//! Cross-crate integration: the same deadlock caught at every level of the
//! stack — PL semantics, graph analysis, runtime detection/avoidance, and
//! distributed detection.

use armus::core::{checker, ModelChoice, VerifierConfig, DEFAULT_SG_THRESHOLD};
use armus::dist::{Cluster, SiteConfig};
use armus::pl::{self, deadlock, phi, semantics, state::State};
use armus::prelude::*;

use std::time::{Duration, Instant};

fn eventually(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// The running example in PL, one worker, no loop (finite state space).
const MINI_FIGURE_3: &str = "
    pc = newPhaser();
    pb = newPhaser();
    t = newTid();
    reg(pc, t); reg(pb, t);
    fork(t) { adv(pc); await(pc); dereg(pc); dereg(pb); }
    adv(pb); await(pb);
";

#[test]
fn pl_and_runtime_agree_on_the_running_example() {
    // 1. PL: the buggy program reaches a deadlocked state; the analysis
    //    on ϕ(S) agrees with the semantic oracle.
    let program = pl::parse(MINI_FIGURE_3).unwrap();
    let (outcome, stuck) =
        semantics::RandomScheduler::new(7).run(State::initial(program), 10_000, |_| {});
    assert_eq!(outcome, semantics::Outcome::Stuck);
    assert!(deadlock::is_deadlocked(&stuck));
    let (snap, _) = phi::phi(&stuck);
    assert!(checker::check(&snap, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).report.is_some());

    // 2. Runtime: the same program, run on real threads under avoidance —
    //    someone gets the verdict instead of deadlocking.
    let rt = Runtime::avoidance();
    let pc = Phaser::new(&rt);
    let pb = Phaser::new(&rt);
    let (pc2, pb2) = (pc.clone(), pb.clone());
    let worker = rt.spawn_clocked(&[&pc, &pb], move || {
        let r = pc2.arrive_and_await();
        pc2.deregister().ok();
        pb2.arrive_and_deregister().ok();
        r
    });
    let driver_verdict = pb.arrive_and_await();
    let worker_verdict = worker.join().unwrap();
    assert!(
        driver_verdict.is_err() || worker_verdict.is_err(),
        "someone must receive the avoidance verdict"
    );
    assert!(rt.verifier().found_deadlock());
    // Clean up whatever memberships remain.
    pc.deregister().ok();
    pb.deregister().ok();
}

#[test]
fn detection_report_names_the_right_phasers() {
    let rt = Runtime::new(
        RuntimeConfig::detection()
            .with_verifier(VerifierConfig::detection_every(Duration::from_millis(10))),
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let tx = std::sync::Mutex::new(tx);
    rt.verifier().subscribe(move |_| {
        let _ = tx.lock().unwrap().send(());
    });
    let (p, q) = armus::workloads::deadlocky::crossed_pair(&rt);
    rx.recv_timeout(Duration::from_secs(10)).expect("the monitor never reported");
    let report = rt.take_reports().remove(0);
    let mut ids: Vec<_> = report.resources.iter().map(|r| r.phaser).collect();
    ids.sort();
    let mut expect = vec![p, q];
    expect.sort();
    assert_eq!(ids, expect);
    assert_eq!(report.tasks.len(), 2);
    rt.shutdown();
}

#[test]
fn recovery_breaks_a_planted_ring() {
    let rt = Runtime::new(
        RuntimeConfig::detection()
            .with_verifier(VerifierConfig::detection_every(Duration::from_millis(10)))
            .with_on_deadlock(OnDeadlock::Break),
    );
    // Plant the ring through handles we can join: recovery must unblock
    // every victim with Poisoned.
    let phasers: Vec<Phaser> = (0..3).map(|_| Phaser::new(&rt)).collect();
    let mut handles = Vec::new();
    for i in 0..3 {
        let own = phasers[i].clone();
        let refs: Vec<&Phaser> = vec![&phasers[i], &phasers[(i + 2) % 3]];
        handles.push(rt.spawn_clocked(&refs, move || own.arrive_and_await()));
    }
    for p in &phasers {
        p.deregister().unwrap();
    }
    for h in handles {
        let r = h.join().unwrap();
        assert!(matches!(r, Err(SyncError::Poisoned(_))), "victim must be broken out, got {r:?}");
    }
    rt.shutdown();
}

#[test]
fn distributed_cluster_detects_a_cross_runtime_plant() {
    let cfg = SiteConfig {
        publish_period: Duration::from_millis(10),
        check_period: Duration::from_millis(20),
        ..Default::default()
    };
    let cluster = Cluster::start(2, cfg);
    armus::workloads::deadlocky::ring(cluster.sites()[0].runtime());
    assert!(eventually(Duration::from_secs(10), || cluster.any_deadlock()));
    let report = &cluster.all_reports()[0];
    assert_eq!(report.tasks.len(), 3);
    cluster.stop();
}

#[test]
fn all_primitives_run_clean_under_avoidance() {
    // One pass over every primitive: phaser, clock (split-phase), cyclic
    // barrier, latch, finish, clocked var — all under avoidance, with no
    // verdicts.
    let rt = Runtime::avoidance();

    // Phaser + clock.
    let clock = Clock::make(&rt);
    let c2 = clock.clone();
    let t1 = rt.spawn_clocked(&[clock.phaser()], move || {
        for _ in 0..5 {
            c2.resume().unwrap(); // split-phase
            c2.advance().unwrap();
        }
        c2.drop_clock().unwrap();
    });
    for _ in 0..5 {
        clock.advance().unwrap();
    }
    clock.drop_clock().unwrap();
    t1.join().unwrap();

    // Cyclic barrier.
    let bar = CyclicBarrier::new(&rt, 2);
    let b2 = bar.clone();
    let t2 = rt.spawn(move || {
        b2.register().unwrap();
        for _ in 0..5 {
            b2.wait().unwrap();
        }
        b2.deregister().unwrap();
    });
    bar.register().unwrap();
    for _ in 0..5 {
        bar.wait().unwrap();
    }
    bar.deregister().unwrap();
    t2.join().unwrap();

    // Latch with a registered counter.
    let latch = CountDownLatch::new(&rt, 1);
    let l2 = latch.clone();
    let t3 = rt.spawn(move || {
        l2.register_counter().unwrap();
        l2.count_down().unwrap();
    });
    latch.wait().unwrap();
    t3.join().unwrap();

    // Finish + clocked variable.
    let var = ClockedVar::new(&rt, 0u64);
    let finish = Finish::new(&rt);
    let v2 = var.clone();
    finish.spawn_clocked(&[var.phaser()], move || {
        v2.set(42).unwrap();
        v2.advance().unwrap();
        v2.deregister().unwrap();
    });
    var.advance().unwrap();
    assert_eq!(var.get().unwrap(), 42);
    var.deregister().unwrap();
    finish.wait().unwrap();

    assert!(!rt.verifier().found_deadlock(), "no spurious verdicts");
    assert!(rt.stats().checks > 0, "avoidance actually checked");
}

#[test]
fn facade_prelude_is_sufficient_for_the_readme_example() {
    use armus::prelude::*;
    let rt = Runtime::avoidance();
    let barrier = Phaser::new(&rt);
    let b2 = barrier.clone();
    let worker = rt.spawn_clocked(&[&barrier], move || {
        for _ in 0..10 {
            b2.arrive_and_await().unwrap();
        }
        b2.deregister().unwrap();
    });
    for _ in 0..10 {
        barrier.arrive_and_await().unwrap();
    }
    barrier.deregister().unwrap();
    worker.join().unwrap();
    assert!(!rt.verifier().found_deadlock());
}

#[test]
fn pl_interpreter_runs_generated_programs_under_budget() {
    use armus::pl::gen::{gen_program, ProgGenConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(5);
    let cfg = ProgGenConfig::default();
    for seed in 0..20u64 {
        let prog = gen_program(&mut rng, &cfg);
        let (outcome, state) =
            semantics::RandomScheduler::new(seed).run(State::initial(prog), 5_000, |_| {});
        // Whatever the outcome, verdicts stay consistent at the end.
        let (snap, _) = phi::phi(&state);
        let cycle = checker::check(&snap, ModelChoice::Auto, 2).report.is_some();
        assert_eq!(cycle, deadlock::is_deadlocked(&state), "seed {seed} outcome {outcome:?}");
    }
}
