//! Manifest-level smoke tests: the facade's re-exports resolve, the
//! prelude is importable as one glob, and both checked runtime
//! constructors work — guarding the workspace wiring (crate renames,
//! path-dependency mistakes, prelude regressions) rather than behaviour.

use armus::prelude::*;

/// Every facade module path resolves and exposes its headline type.
#[test]
fn facade_modules_are_wired() {
    let _core: armus::core::VerifierConfig = armus::core::VerifierConfig::avoidance();
    let _sync: std::sync::Arc<armus::sync::Runtime> = armus::sync::Runtime::unchecked();
    let _pl: armus::pl::Seq = armus::pl::parse("skip;").unwrap();
    let _dist: armus::dist::SiteConfig = armus::dist::SiteConfig::default();
    assert_eq!(armus::workloads::kernels::all().len(), 6);
    assert_eq!(armus::workloads::course::all().len(), 5);
    assert_eq!(armus::workloads::dist::all().len(), 5);
}

/// The prelude alone supports naming the core verification types.
#[test]
fn prelude_exports_the_verification_vocabulary() {
    let task: TaskId = TaskId::fresh();
    let phaser: PhaserId = PhaserId::fresh();
    let phase: Phase = 0;
    let _ = (task, phaser, phase);
    let _model: ModelChoice = ModelChoice::Auto;
    let _graph: GraphModel = GraphModel::Sg;
    let _mode: VerifyMode = VerifyMode::Disabled;
    let _cfg: VerifierConfig = VerifierConfig::detection();
    let _rt_cfg: RuntimeConfig = RuntimeConfig::unchecked();
    let _on: OnDeadlock = OnDeadlock::Report;
    let _v: std::sync::Arc<Verifier> = Verifier::new(VerifierConfig::disabled());
}

/// Both checked constructors build working runtimes.
#[test]
fn avoidance_and_detection_runtimes_construct() {
    for rt in [Runtime::avoidance(), Runtime::detection()] {
        assert!(rt.verifier().is_enabled());
        assert!(!rt.verifier().found_deadlock());
        assert_eq!(rt.stats().deadlocks, 0);
        // A phaser can be created and stepped on a fresh runtime.
        let ph = Phaser::new(&rt);
        ph.arrive_and_await().expect("sole member never blocks");
        ph.deregister().expect("creator can leave");
        rt.shutdown();
    }
}

/// The incremental-engine counters are part of the stats surface: the
/// avoidance hot path applies journal deltas, and only a deadlock hit
/// pays for a from-scratch rebuild.
#[test]
fn incremental_engine_stats_surface() {
    use armus::core::{Registration, Resource};
    let v = Verifier::new(VerifierConfig::avoidance());
    let p = |n: u64| PhaserId(n);
    // Three independent blocked tasks: three checks, three deltas, no hit.
    for i in 1..=3u64 {
        v.block(TaskId(i), vec![Resource::new(p(i), 1)], vec![Registration::new(p(i), 1)])
            .expect("independent waits cannot deadlock");
    }
    let s = v.stats();
    assert_eq!(s.deltas_applied, 3);
    assert_eq!(s.full_rebuilds, 0);
    assert_eq!(s.resyncs, 0);
    // Crossed waits: the closing block is a hit, confirmed by one
    // canonical from-scratch rebuild.
    v.block(
        TaskId(10),
        vec![Resource::new(p(10), 1)],
        vec![Registration::new(p(10), 1), Registration::new(p(11), 0)],
    )
    .expect("first half of the cross");
    v.block(
        TaskId(11),
        vec![Resource::new(p(11), 1)],
        vec![Registration::new(p(10), 0), Registration::new(p(11), 1)],
    )
    .expect_err("closing the cross must raise");
    let s = v.stats();
    assert_eq!(s.full_rebuilds, 1);
    assert!(s.deltas_applied >= 5);
    assert_eq!(s.resyncs, 0);
}

/// The contention-visibility counters are part of the stats surface: the
/// in-edge fast path answers a block nobody waits behind without a check,
/// and the single-threaded path never records lock waits.
#[test]
fn contention_stats_surface() {
    use armus::core::{Registration, Resource};
    let v = Verifier::new(VerifierConfig::avoidance());
    let p = |n: u64| PhaserId(n);
    // Everyone arrived at and blocked on the same barrier event: nobody
    // waits behind anybody, so every block is a fast-path skip.
    for i in 1..=4u64 {
        v.block(TaskId(i), vec![Resource::new(p(1), 1)], vec![Registration::new(p(1), 1)])
            .expect("single-event blocks cannot deadlock");
    }
    let s = v.stats();
    assert_eq!(s.fastpath_skips, 4);
    assert_eq!(s.checks, 0, "a skip runs no check");
    assert_eq!(s.deltas_applied, 4, "a skip that finds the engine lock free syncs it");
    // A laggard of that barrier has all four waiting behind it: it is
    // checked, and its sync applies its own delta alone.
    let regs = vec![Registration::new(p(1), 0), Registration::new(p(2), 1)];
    v.block(TaskId(9), vec![Resource::new(p(2), 1)], regs)
        .expect("independent event cannot deadlock");
    let s = v.stats();
    assert_eq!(s.fastpath_skips, 4);
    assert_eq!(s.checks, 1);
    assert_eq!(s.deltas_applied, 5, "the skips' 4 + the checked block's own delta");
    assert_eq!(s.engine_lock_waits, 0, "single-threaded: the lock is never contended");
    assert_eq!(s.combined_checks, 0);
    assert_eq!(s.checks + s.fastpath_skips, s.blocks, "every avoidance block is accounted");
}

/// The prelude names the sync primitives the README advertises.
#[test]
fn prelude_sync_primitives_construct() {
    let rt = Runtime::unchecked();
    let _clock: Clock = Clock::make(&rt);
    let _barrier: CyclicBarrier = CyclicBarrier::new(&rt, 2);
    let _latch: CountDownLatch = CountDownLatch::new(&rt, 1);
    let _finish: Finish = Finish::new(&rt);
    let _var: ClockedVar<u32> = ClockedVar::new(&rt, 7);
    let _err: fn(SyncError) = |_| {};
}
