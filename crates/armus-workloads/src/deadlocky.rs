//! Deliberately deadlocking programs, used by the detection/avoidance
//! tests, the examples, and the `paper` harness's sanity checks.

use std::sync::Arc;

use armus_sync::{Clock, Finish, Phaser, PhaserId, Runtime, SyncError};

/// Plants the paper's Figure 1 deadlock: `workers` tasks advancing a clock
/// stepwise inside a finish, with the parent registered on the clock but
/// never advancing, blocked on the join. Runs detached (the tasks stay
/// blocked under detection). Returns the clock's phaser id for report
/// matching.
pub fn figure1(runtime: &Arc<Runtime>, workers: usize) -> PhaserId {
    let rt = Arc::clone(runtime);
    let (tx, rx) = std::sync::mpsc::channel();
    runtime.spawn(move || {
        let c = Clock::make(&rt);
        tx.send(c.id()).expect("report clock id");
        let finish = Finish::new(&rt);
        for _ in 0..workers {
            let c2 = c.clone();
            finish.spawn_clocked(&[c.phaser()], move || {
                for _ in 0..u64::MAX {
                    if c2.advance().is_err() {
                        return; // avoidance verdict: leave
                    }
                    if c2.advance().is_err() {
                        return;
                    }
                }
            });
        }
        // BUG: no `c.drop_clock()` before the join.
        let _ = finish.wait();
    });
    rx.recv().expect("clock id")
}

/// Plants a minimal two-task crossed wait: t1 advances `p` and waits while
/// lagging on `q`; t2 advances `q` and waits while lagging on `p`. Returns
/// the two phaser ids. Detached.
pub fn crossed_pair(runtime: &Arc<Runtime>) -> (PhaserId, PhaserId) {
    let p = Phaser::new(runtime);
    let q = Phaser::new(runtime);
    let ids = (p.id(), q.id());
    {
        let p2 = p.clone();
        runtime.spawn_clocked(&[&p, &q], move || {
            let _: Result<_, SyncError> = p2.arrive_and_await();
        });
    }
    {
        let q2 = q.clone();
        runtime.spawn_clocked(&[&p, &q], move || {
            let _: Result<_, SyncError> = q2.arrive_and_await();
        });
    }
    // The planter leaves both phasers so only the crossed pair remains.
    p.deregister().expect("planter leaves p");
    q.deregister().expect("planter leaves q");
    ids
}

/// A three-task ring: t0 waits on p0 impeded by t1, t1 on p1 impeded by
/// t2, t2 on p2 impeded by t0 — a cycle longer than two, exercising the
/// general case of Theorem 4.8. Detached.
pub fn ring(runtime: &Arc<Runtime>) -> Vec<PhaserId> {
    let phasers: Vec<Phaser> = (0..3).map(|_| Phaser::new(runtime)).collect();
    let ids: Vec<PhaserId> = phasers.iter().map(|p| p.id()).collect();
    for i in 0..3 {
        // Task i: member of p[i] (which it advances and awaits) and of
        // p[(i+2)%3] (on which it lags, impeding task i-1).
        let own = phasers[i].clone();
        let refs: Vec<&Phaser> = vec![&phasers[i], &phasers[(i + 2) % 3]];
        runtime.spawn_clocked(&refs, move || {
            let _: Result<_, SyncError> = own.arrive_and_await();
        });
    }
    for p in &phasers {
        p.deregister().expect("planter leaves");
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use armus_core::{DeadlockReport, VerifierConfig};
    use armus_sync::RuntimeConfig;
    use std::sync::mpsc::Receiver;
    use std::sync::Mutex;
    use std::time::Duration;

    fn detecting_runtime() -> Arc<Runtime> {
        Runtime::new(
            RuntimeConfig::detection()
                .with_verifier(VerifierConfig::detection_every(Duration::from_millis(10))),
        )
    }

    /// Every report `rt` delivers from now on, in order.
    fn reports(rt: &Arc<Runtime>) -> Receiver<DeadlockReport> {
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        rt.verifier().subscribe(move |report| {
            let _ = tx.lock().unwrap().send(report.clone());
        });
        rx
    }

    fn first(reports: &Receiver<DeadlockReport>) -> DeadlockReport {
        reports.recv_timeout(Duration::from_secs(10)).expect("no deadlock reported within 10 s")
    }

    #[test]
    fn figure1_is_detected() {
        let rt = detecting_runtime();
        let reports = reports(&rt);
        let clock = figure1(&rt, 3);
        let report = first(&reports);
        assert!(report.resources.iter().any(|r| r.phaser == clock));
        rt.shutdown();
    }

    #[test]
    fn crossed_pair_is_detected() {
        let rt = detecting_runtime();
        let reports = reports(&rt);
        let (p, q) = crossed_pair(&rt);
        let report = first(&reports);
        let ids: Vec<_> = report.resources.iter().map(|r| r.phaser).collect();
        assert!(ids.contains(&p) && ids.contains(&q), "{report}");
        rt.shutdown();
    }

    #[test]
    fn ring_of_three_is_detected() {
        let rt = detecting_runtime();
        let reports = reports(&rt);
        let ids = ring(&rt);
        let report = first(&reports);
        assert_eq!(report.tasks.len(), 3, "{report}");
        for id in ids {
            assert!(report.resources.iter().any(|r| r.phaser == id), "{report}");
        }
        rt.shutdown();
    }

    #[test]
    fn ring_is_refused_under_avoidance() {
        // Under avoidance at least one member of the would-be ring gets a
        // verdict; with victim interruption all blocked members do.
        let rt = Runtime::avoidance();
        let reports = reports(&rt);
        let _ = ring(&rt);
        first(&reports);
        assert!(rt.verifier().found_deadlock());
    }
}
