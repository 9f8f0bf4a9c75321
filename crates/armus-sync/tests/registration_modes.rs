//! HJ registration modes (SIG / WAIT / SIG_WAIT): point-to-point
//! synchronisation on phasers, and its verification-layer consequences —
//! wait-only members gate nobody and therefore impede nothing.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use armus_core::VerifierConfig;
use armus_sync::{Phaser, RegMode, Runtime, RuntimeConfig, SyncError};

#[test]
fn mode_discipline_is_enforced() {
    let rt = Runtime::unchecked();
    let ph = Phaser::new_unregistered(&rt);
    ph.register_with_mode(RegMode::Wait).unwrap();
    assert_eq!(ph.mode(), Some(RegMode::Wait));
    assert!(matches!(ph.arrive(), Err(SyncError::InvalidMode { operation: "arrive", .. })));
    assert!(matches!(ph.resume(), Err(SyncError::InvalidMode { operation: "resume", .. })));
    ph.deregister().unwrap();

    ph.register_with_mode(RegMode::Sig).unwrap();
    assert!(matches!(ph.await_phase(1), Err(SyncError::InvalidMode { operation: "await", .. })));
    ph.arrive().unwrap(); // signalling is fine
    ph.deregister().unwrap();
}

#[test]
fn wait_only_members_do_not_gate_the_barrier() {
    // A wait-only consumer never arrives, yet producers advance freely:
    // await(P, n) ignores wait-mode members.
    let rt = Runtime::unchecked();
    let ph = Phaser::new(&rt); // producer (SigWait)
    let consumer = {
        let ph2 = ph.clone();
        rt.spawn(move || {
            ph2.register_with_mode(RegMode::Wait).unwrap();
            // Consume three productions without ever signalling.
            let mut seen = Vec::new();
            for n in 1..=3 {
                ph2.await_phase(n).unwrap();
                seen.push(n);
            }
            ph2.deregister().unwrap();
            seen
        })
    };
    for _ in 0..3 {
        // arrive_and_await: would deadlock if the consumer gated it.
        ph.arrive_and_await().unwrap();
    }
    assert_eq!(consumer.join().unwrap(), vec![1, 2, 3]);
    ph.deregister().unwrap();
}

#[test]
fn sig_only_producers_impede_and_are_reported() {
    // A signal-only producer that stalls *is* a laggard: consumers waiting
    // on its phases are impeded by it. Plant the cycle: producer (Sig on
    // p) blocks on q; consumer (Wait on p, member of q) blocks on p.
    let rt = Runtime::new(
        RuntimeConfig::detection()
            .with_verifier(VerifierConfig::detection_every(Duration::from_millis(10))),
    );
    let p = Phaser::new_unregistered(&rt);
    let q = Phaser::new(&rt);
    let (found, reports) = mpsc::channel();
    rt.verifier().subscribe(move |report| {
        let _ = found.send(report.clone());
    });
    // Rendezvous: the consumer may only await p@1 once the producer's Sig
    // registration exists. Without a signaller p@1 impedes nobody, the
    // await returns at once and the cycle never forms.
    let (sig_registered, released) = std::sync::mpsc::channel::<()>();
    let (p2, q2) = (p.clone(), q.clone());
    rt.spawn_clocked(&[&q], move || {
        p2.register_with_mode(RegMode::Sig).unwrap();
        sig_registered.send(()).unwrap();
        // Producer never signals p: it blocks on q first (q's laggard is
        // the consumer).
        let _ = q2.arrive_and_await();
    });
    let (p3, q3) = (p.clone(), q.clone());
    rt.spawn_clocked(&[&q], move || {
        p3.register_with_mode(RegMode::Wait).unwrap();
        released.recv().unwrap();
        // Consumer waits p@1 (impeded by the Sig producer) while lagging
        // q (impeding the producer): a two-task cycle.
        let _ = p3.await_phase(1);
        let _ = q3.arrive_and_await();
    });
    q.deregister().unwrap(); // planter leaves q
    let report = reports
        .recv_timeout(Duration::from_secs(10))
        .expect("the Sig-producer cycle must be detected");
    assert_eq!(report.tasks.len(), 2, "{report}");
    rt.shutdown();
}

#[test]
fn wait_only_members_impede_nothing_no_false_positive() {
    // The verification-consistency case: if wait-mode registrations were
    // (incorrectly) published as impede sets, this program would be
    // flagged as deadlocked — but it is live, and must neither hang nor
    // be reported.
    //
    //   t1: Wait-mode on p, blocked on q@1 (a real wait on t2's arrival).
    //   t2: waits p@1. If t1's Wait registration on p counted, t2 would
    //       appear impeded by t1 → cycle t1→t2→t1. In reality p's only
    //       signaller is t3, which arrives promptly; t2 then arrives q.
    let rt = Runtime::avoidance();
    let p = Phaser::new_unregistered(&rt);
    let q = Phaser::new(&rt);
    // t2 awaits p@1 only once t3 signals on p, so that its wait blocks.
    let (sig_registered, released) = mpsc::channel::<()>();
    let t1 = {
        let (p2, q2) = (p.clone(), q.clone());
        rt.spawn_clocked(&[&q], move || {
            p2.register_with_mode(RegMode::Wait).unwrap();
            let r = q2.arrive_and_await(); // waits for the parent's arrive
            p2.deregister().unwrap();
            r
        })
    };
    let t2 = {
        let (p2, q2) = (p.clone(), q.clone());
        rt.spawn_clocked(&[&q], move || {
            p2.register_with_mode(RegMode::Wait).unwrap();
            released.recv().unwrap();
            let r = p2.await_phase(1); // impeded only by the Sig member t3
            p2.deregister().unwrap();
            q2.arrive_and_deregister().unwrap();
            r
        })
    };
    let t3 = {
        let (p2, rt2) = (p.clone(), Arc::clone(&rt));
        rt.spawn(move || {
            p2.register_with_mode(RegMode::Sig).unwrap();
            sig_registered.send(()).unwrap();
            // Let the waits pile up: t1, t2 and the parent all parked.
            let deadline = Instant::now() + Duration::from_secs(10);
            while rt2.stats().async_waits < 3 {
                assert!(Instant::now() < deadline, "three waits must park: {:?}", rt2.stats());
                std::thread::yield_now();
            }
            p2.arrive().unwrap();
            p2.deregister().unwrap();
        })
    };
    // The parent arrives q, releasing t1 (and t2's q-arrival releases the
    // parent's own await).
    q.arrive_and_await().unwrap();
    q.deregister().unwrap();
    t1.join().unwrap().unwrap();
    t2.join().unwrap().unwrap();
    t3.join().unwrap();
    assert!(
        !rt.verifier().found_deadlock(),
        "wait-only members must not produce impede edges: {:?}",
        rt.take_reports()
    );
}

#[test]
fn floor_ignores_wait_members() {
    let rt = Runtime::unchecked();
    let ph = Phaser::new(&rt);
    ph.arrive().unwrap();
    ph.arrive().unwrap(); // signaller at 2
    let w = {
        let ph2 = ph.clone();
        rt.spawn(move || {
            ph2.register_with_mode(RegMode::Wait).unwrap();
            // A wait member "at phase 0" must not drag the floor down.
            ph2.phase()
        })
    };
    assert_eq!(w.join().unwrap(), Some(2));
    ph.deregister().unwrap();
}
