//! Edge-case coverage for the runtime primitives: future-phase waits,
//! self-deadlocks, clocked-variable visibility, latch registration
//! corners, and verification-mode interactions.

use std::sync::mpsc;
use std::time::Duration;

use armus_core::VerifierConfig;
use armus_sync::{Clock, ClockedVar, CountDownLatch, Phaser, Runtime, RuntimeConfig, SyncError};

#[test]
fn awaiting_own_future_phase_is_a_self_deadlock_refused_by_avoidance() {
    // The sole member waits for a phase it has itself not arrived at:
    // await(P, 5) with P = {me: 1} can never hold — a self-loop in the
    // WFG. Avoidance must refuse instead of hanging.
    let rt = Runtime::avoidance();
    let ph = Phaser::new(&rt);
    ph.arrive().unwrap(); // local phase 1
    let verdict = ph.await_phase(5);
    match verdict {
        Err(SyncError::WouldDeadlock(report)) => {
            assert_eq!(report.tasks.len(), 1, "{report}");
        }
        other => panic!("expected a self-deadlock verdict, got {other:?}"),
    }
    // The avoidance path deregistered us; re-register to continue using it.
    assert!(ph.local_phase().is_none());
    ph.register().unwrap();
    ph.deregister().unwrap();
}

#[test]
fn awaiting_own_future_phase_is_detected() {
    let rt = Runtime::new(
        RuntimeConfig::detection()
            .with_verifier(VerifierConfig::detection_every(Duration::from_millis(10))),
    );
    let (found, reports) = mpsc::channel();
    rt.verifier().subscribe(move |report| {
        let _ = found.send(report.clone());
    });
    let ph = Phaser::new(&rt);
    let p2 = ph.clone();
    rt.spawn_clocked(&[&ph], move || {
        let _ = p2.arrive(); // phase 1
        let _ = p2.await_phase(9); // never
    });
    ph.deregister().unwrap(); // parent steps out
    let report = reports.recv_timeout(Duration::from_secs(10)).expect("the self-wait is detected");
    assert_eq!(report.tasks.len(), 1, "a one-task cycle: {report}");
    rt.shutdown();
}

#[test]
fn past_phase_waits_never_block_or_publish() {
    let rt = Runtime::avoidance();
    let ph = Phaser::new(&rt);
    for _ in 0..5 {
        ph.arrive().unwrap();
    }
    // Phases 0..=5 are all observed for the sole member.
    for n in 0..=5 {
        ph.await_phase(n).unwrap();
    }
    assert_eq!(rt.stats().blocks, 0, "satisfied waits take the fast path");
    ph.deregister().unwrap();
}

#[test]
fn clocked_var_history_is_per_phase() {
    let rt = Runtime::unchecked();
    let var = ClockedVar::new(&rt, 10u64);
    let v2 = var.clone();
    let reader = rt.spawn_clocked(&[var.phaser()], move || {
        let mut seen = Vec::new();
        for _ in 0..3 {
            v2.advance().unwrap();
            seen.push(v2.get().unwrap());
        }
        v2.deregister().unwrap();
        seen
    });
    // Writer: publish 11, 12, 13 across three phases.
    for x in [11u64, 12, 13] {
        var.set(x).unwrap();
        var.advance().unwrap();
    }
    var.deregister().unwrap();
    assert_eq!(reader.join().unwrap(), vec![11, 12, 13]);
}

#[test]
fn clocked_var_last_write_wins_within_a_phase() {
    let rt = Runtime::unchecked();
    let var = ClockedVar::new(&rt, 0u64);
    var.set(1).unwrap();
    var.set(2).unwrap();
    var.advance().unwrap(); // sole member: advances immediately
    assert_eq!(var.get().unwrap(), 2);
    var.deregister().unwrap();
}

#[test]
fn clocked_var_reads_without_membership_are_refused() {
    let rt = Runtime::unchecked();
    let var: ClockedVar<u64> = ClockedVar::new(&rt, 0);
    let v2 = var.clone();
    let outsider = rt.spawn(move || v2.get());
    assert!(matches!(outsider.join().unwrap(), Err(SyncError::NotRegistered { .. })));
    var.deregister().unwrap();
}

#[test]
fn latch_register_counter_caps_at_count() {
    let rt = Runtime::unchecked();
    let latch = CountDownLatch::new(&rt, 2);
    // Claim both slots from two tasks; a third claim fails.
    let l1 = latch.clone();
    rt.spawn(move || l1.register_counter().unwrap()).join().unwrap();
    let l2 = latch.clone();
    rt.spawn(move || l2.register_counter().unwrap()).join().unwrap();
    let l3 = latch.clone();
    let third = rt.spawn(move || l3.register_counter()).join().unwrap();
    assert!(matches!(third, Err(SyncError::TooManyParties { .. })));
    // The claimed slots belong to tasks joined above, whose exit
    // deregistration released them before their joins returned.
    assert_eq!(latch.count(), 0);
    latch.wait().unwrap();
}

#[test]
fn latch_mixed_claimed_and_anonymous_countdowns() {
    let rt = Runtime::unchecked();
    let latch = CountDownLatch::new(&rt, 3);
    // One claimed counter…
    let l1 = latch.clone();
    let h = rt.spawn(move || {
        l1.register_counter().unwrap();
        l1.count_down().unwrap();
    });
    h.join().unwrap();
    // …and two anonymous count-downs from the main task.
    latch.count_down().unwrap();
    latch.count_down().unwrap();
    latch.wait().unwrap();
    assert_eq!(latch.count(), 0);
}

#[test]
fn clock_split_phase_overlaps_work() {
    // resume() lets a task compute while peers arrive: verify the phase
    // counters behave (X10 semantics), including double-resume.
    let rt = Runtime::unchecked();
    let c = Clock::make(&rt);
    let c2 = c.clone();
    let peer = rt.spawn_clocked(&[c.phaser()], move || {
        for _ in 0..4 {
            c2.advance().unwrap();
        }
        c2.drop_clock().unwrap();
    });
    for step in 1..=4u64 {
        let r = c.resume().unwrap();
        assert_eq!(r, step);
        // Overlapped "work"…
        let done = c.advance().unwrap();
        assert_eq!(done, step, "advance completes the resumed phase");
    }
    c.drop_clock().unwrap();
    peer.join().unwrap();
}

#[test]
fn phaser_membership_queries() {
    let rt = Runtime::unchecked();
    let ph = Phaser::new(&rt);
    assert_eq!(ph.member_count(), 1);
    assert_eq!(ph.local_phase(), Some(0));
    assert_eq!(ph.phase(), Some(0));
    ph.arrive().unwrap();
    assert_eq!(ph.local_phase(), Some(1));
    assert_eq!(ph.phase(), Some(1), "sole member: floor follows");
    ph.deregister().unwrap();
    assert_eq!(ph.member_count(), 0);
    assert_eq!(ph.phase(), None);
}

#[test]
fn interrupted_victims_can_reuse_other_phasers() {
    // After an avoidance verdict on one phaser, the task's other
    // memberships are intact and usable.
    let rt = Runtime::avoidance();
    let a = Phaser::new(&rt);
    let b = Phaser::new(&rt);
    let (a2, b2) = (a.clone(), b.clone());
    let t = rt.spawn_clocked(&[&a, &b], move || {
        // Blocks on `a` while lagging `b`.
        let r = a2.arrive_and_await();
        // After the verdict (parent closes the cycle), `b` still works:
        let r2 = b2.arrive_and_await();
        (r, r2)
    });
    // Parent closes the cycle: blocks on b while lagging a. Whichever
    // side blocks last, both receive the verdict (victim interruption).
    let parent = b.arrive_and_await();
    assert!(matches!(parent, Err(SyncError::WouldDeadlock(_))), "{parent:?}");
    // Recover: parent leaves `a` (it never arrives there), letting the
    // child pass `b` once parent also leaves… parent was deregistered
    // from `b` by its own verdict; child's b-wait needs only the child.
    a.deregister().unwrap();
    let (r, r2) = t.join().unwrap();
    assert!(matches!(r, Err(SyncError::WouldDeadlock(_))), "{r:?}");
    assert!(r2.is_ok(), "{r2:?}");
    assert!(rt.verifier().found_deadlock());
}
