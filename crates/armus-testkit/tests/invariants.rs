//! Runtime-level invariants driven deterministically through the
//! simulation seam:
//!
//! * every blocking primitive (`Phaser`, `CyclicBarrier`,
//!   `CountDownLatch`, `Clock`, `ClockedVar`, `Finish`) works through the
//!   cooperative begin/poll wait machine — one OS thread, many task
//!   identities, zero sleeps;
//! * the three invariants of armus-core's `concurrent_stress.rs`,
//!   reproduced as deterministic scenarios: journal-followed state equals
//!   the snapshot at quiescence (through the tiny-journal resync path),
//!   detection under churn reports a planted deadlock exactly once, and
//!   avoidance accounts every block as a check or a fast-path skip.
#![cfg(not(feature = "verifier-mutation"))]

use std::sync::Arc;

use armus_core::VerifierConfig;
use armus_sync::ctx::{self, TaskCtx};
use armus_sync::{
    Clock, ClockedVar, CountDownLatch, CyclicBarrier, Finish, Runtime, RuntimeConfig, SyncError,
    WaitStep,
};
use armus_testkit::{run_config, Op, Scenario, SeededChooser, Sim};

fn sim_runtime(verifier: VerifierConfig) -> Arc<Runtime> {
    Runtime::new(RuntimeConfig::unchecked().with_verifier(verifier))
}

#[test]
fn cyclic_barrier_through_the_poll_seam() {
    let rt = sim_runtime(VerifierConfig::avoidance());
    let barrier = CyclicBarrier::new(&rt, 2);
    let (a, b) = (TaskCtx::fresh(), TaskCtx::fresh());
    ctx::scoped(&a, || barrier.register()).unwrap();
    ctx::scoped(&b, || barrier.register()).unwrap();
    // a arrives and parks; b's arrival releases it — all polled, no threads.
    assert_eq!(
        ctx::scoped(&a, || barrier.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Pending
    );
    assert!(!barrier.phaser().await_would_resolve_of(a.id()));
    assert_eq!(
        ctx::scoped(&b, || barrier.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Ready
    );
    assert!(barrier.phaser().await_would_resolve_of(a.id()));
    assert_eq!(ctx::scoped(&a, || barrier.phaser().poll_await()).unwrap(), WaitStep::Ready);
    let stats = rt.stats();
    assert_eq!(stats.blocks, 1, "only the parked wait published");
    assert_eq!(stats.unblocks, 1);
}

#[test]
fn count_down_latch_through_the_poll_seam() {
    let rt = sim_runtime(VerifierConfig::avoidance());
    let latch = CountDownLatch::new(&rt, 2);
    let (waiter, counter) = (TaskCtx::fresh(), TaskCtx::fresh());
    assert_eq!(ctx::scoped(&waiter, || latch.phaser().begin_await(1)).unwrap(), WaitStep::Pending);
    ctx::scoped(&counter, || latch.count_down()).unwrap();
    assert!(!latch.phaser().await_would_resolve_of(waiter.id()), "one count left");
    ctx::scoped(&counter, || latch.count_down()).unwrap();
    assert_eq!(ctx::scoped(&waiter, || latch.phaser().poll_await()).unwrap(), WaitStep::Ready);
    assert_eq!(latch.count(), 0);
}

#[test]
fn finish_join_through_the_poll_seam() {
    let rt = sim_runtime(VerifierConfig::avoidance());
    let parent = TaskCtx::fresh();
    let finish = ctx::scoped(&parent, || Finish::new(&rt));
    let child = TaskCtx::fresh();
    // "Spawn": register the child on the join phaser without a thread.
    ctx::scoped(&parent, || finish.phaser().register_child(&child)).unwrap();
    assert_eq!(finish.pending(), 2);
    assert_eq!(
        ctx::scoped(&parent, || finish.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Pending
    );
    // Child terminates: its exit-deregistration is the join arrival.
    ctx::scoped(&child, || finish.phaser().deregister()).unwrap();
    assert_eq!(ctx::scoped(&parent, || finish.phaser().poll_await()).unwrap(), WaitStep::Ready);
    ctx::scoped(&parent, || finish.conclude()).unwrap();
}

#[test]
fn clock_and_clocked_var_through_the_poll_seam() {
    let rt = sim_runtime(VerifierConfig::avoidance());
    let owner = TaskCtx::fresh();
    let clock = ctx::scoped(&owner, || Clock::make(&rt));
    let member = TaskCtx::fresh();
    ctx::scoped(&member, || clock.register()).unwrap();
    assert_eq!(
        ctx::scoped(&owner, || clock.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Pending
    );
    assert_eq!(
        ctx::scoped(&member, || clock.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Ready
    );
    assert_eq!(ctx::scoped(&owner, || clock.phaser().poll_await()).unwrap(), WaitStep::Ready);

    let var = ctx::scoped(&owner, || ClockedVar::new(&rt, 1));
    ctx::scoped(&member, || var.register()).unwrap();
    ctx::scoped(&owner, || var.set(2)).unwrap();
    assert_eq!(ctx::scoped(&member, || var.get()).unwrap(), 1, "write not visible this phase");
    assert_eq!(
        ctx::scoped(&owner, || var.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Pending
    );
    assert_eq!(
        ctx::scoped(&member, || var.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Ready
    );
    assert_eq!(ctx::scoped(&owner, || var.phaser().poll_await()).unwrap(), WaitStep::Ready);
    assert_eq!(ctx::scoped(&member, || var.get()).unwrap(), 2, "visible after the advance");
}

#[test]
fn crossed_clocks_raise_would_deadlock_through_the_seam() {
    // Both tasks advance their own clock while lagging on the other's:
    // the second begin must be refused, and the first victim interrupted.
    let rt = sim_runtime(VerifierConfig::avoidance());
    let (a, b) = (TaskCtx::fresh(), TaskCtx::fresh());
    let ca = ctx::scoped(&a, || Clock::make(&rt));
    let cb = ctx::scoped(&b, || Clock::make(&rt));
    ctx::scoped(&a, || cb.register()).unwrap();
    ctx::scoped(&b, || ca.register()).unwrap();
    assert_eq!(
        ctx::scoped(&a, || ca.phaser().begin_arrive_and_await()).unwrap(),
        WaitStep::Pending
    );
    let err =
        ctx::scoped(&b, || cb.phaser().begin_arrive_and_await()).expect_err("closing advance");
    assert!(matches!(err, SyncError::WouldDeadlock(_)));
    // The parked victim is woken with the same verdict.
    assert!(ca.phaser().await_would_resolve_of(a.id()));
    let err = ctx::scoped(&a, || ca.phaser().poll_await()).expect_err("interrupted victim");
    assert!(matches!(err, SyncError::WouldDeadlock(_)));
    assert!(rt.verifier().found_deadlock());
}

/// Stress-port (a): the journal-followed engine state equals a
/// from-scratch snapshot at quiescence — driven through the journal's
/// `Behind`/full-resync branch by a deterministic tiny-journal verifier.
#[test]
fn journal_resync_keeps_the_followed_view_exact() {
    // Churn: four independent barrier pairs block and unblock while the
    // verifier never samples, overflowing the 2-entry journal window; the
    // quiescent check must resync and still answer correctly.
    let mut scenario = Scenario::new(3);
    for _ in 0..4 {
        scenario = scenario.task(&[0], vec![Op::Arrive(0), Op::Await(0)]);
    }
    // Plus the figure-1 deadlock on the other two phasers.
    let scenario = scenario
        .task(&[1, 2], vec![Op::Arrive(1), Op::Await(1)])
        .task(&[1, 2], vec![Op::Arrive(2), Op::Await(2)]);
    let oc = armus_testkit::oracle_configs()
        .into_iter()
        .find(|c| c.name == "detection-tiny-journal")
        .unwrap();
    // run_config asserts at quiescence that the registry equals ϕ of the
    // replayed PL state — the "followed view equals snapshot" invariant.
    run_config(&scenario, &oc, &mut SeededChooser::new(11)).unwrap();
    // And explicitly: the run must actually have taken the resync path.
    let mut sim = Sim::new(&scenario, oc.verifier);
    sim.run_to_end(&mut SeededChooser::new(11));
    let _ = sim.verifier().check_now();
    let stats = sim.verifier().stats();
    assert!(stats.resyncs >= 1, "tiny journal must force a snapshot resync: {stats:?}");
    assert!(sim.verifier().found_deadlock(), "the planted cycle survives the resync");
}

/// Stress-port (b): detection under churn reports the planted deadlock
/// exactly once — no loss, no duplication — here with the sampler racing
/// the churn deterministically (a sample after every step).
#[test]
fn detection_under_churn_reports_exactly_once() {
    let scenario = Scenario::new(3)
        // The planted figure-1 cycle…
        .task(&[0, 1], vec![Op::Arrive(0), Op::Await(0)])
        .task(&[0, 1], vec![Op::Arrive(1), Op::Await(1)])
        // …and two full barrier rounds of churn beside it.
        .task(&[2], vec![Op::Arrive(2), Op::Await(2), Op::Arrive(2), Op::Await(2)])
        .task(&[2], vec![Op::Arrive(2), Op::Await(2), Op::Arrive(2), Op::Await(2)]);
    for seed in 0..64 {
        let mut sim = Sim::new(&scenario, VerifierConfig::publish_only());
        let mut chooser = SeededChooser::new(seed);
        loop {
            let options = sim.options();
            if options.is_empty() {
                break;
            }
            use armus_testkit::Chooser;
            let pick = chooser.choose(options.len());
            sim.step(options[pick]);
            let _ = sim.verifier().check_now();
        }
        let _ = sim.verifier().check_now();
        let reports = sim.verifier().take_reports();
        assert_eq!(reports.len(), 1, "seed {seed}: exactly one report, got {reports:?}");
        assert_eq!(
            reports[0].tasks,
            vec![sim.task_id(0), sim.task_id(1)],
            "seed {seed}: the report names the planted cycle"
        );
    }
}

/// Stress-port (c): every avoidance block is answered exactly once — by
/// an engine check or by the cardinality fast path — across interleaved
/// independent blockers.
#[test]
fn avoidance_accounts_every_block() {
    let scenario = Scenario::new(3)
        .task(&[0], vec![Op::Arrive(0), Op::Await(0), Op::Arrive(0), Op::Await(0)])
        .task(&[0], vec![Op::Arrive(0), Op::Await(0), Op::Arrive(0), Op::Await(0)])
        .task(&[1], vec![Op::Arrive(1), Op::Await(1)])
        .task(&[1], vec![Op::Arrive(1), Op::Await(1)])
        .task(&[2], vec![Op::Arrive(2), Op::Await(2)])
        .task(&[2], vec![Op::Arrive(2), Op::Await(2)]);
    for seed in 0..64 {
        let mut sim = Sim::new(&scenario, VerifierConfig::avoidance());
        let (outcome, _) = sim.run_to_end(&mut SeededChooser::new(seed));
        assert_eq!(outcome, armus_testkit::SimOutcome::Quiesced, "seed {seed}");
        let stats = sim.verifier().stats();
        assert_eq!(
            stats.checks + stats.fastpath_skips,
            stats.blocks,
            "seed {seed}: every block is accounted: {stats:?}"
        );
        assert_eq!(stats.blocks, stats.unblocks, "seed {seed}: all waits completed");
        assert!(!sim.verifier().found_deadlock(), "seed {seed}: independent barriers");
    }
}

/// The oracle's config cross-product stays in sync with what this file
/// assumes by name.
#[test]
fn oracle_config_names_are_stable() {
    let names: Vec<&str> = armus_testkit::oracle_configs().iter().map(|c| c.name).collect();
    assert_eq!(
        names,
        vec!["avoidance", "avoidance-nofastpath", "detection", "detection-tiny-journal"]
    );
}
