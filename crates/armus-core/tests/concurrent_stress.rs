//! Multi-threaded stress tests for the registry journal and the
//! verifier's concurrent check paths: N producer threads doing randomized
//! block/unblock over overlapping tasks while consumers read, asserting
//! that nothing is lost, duplicated, or torn — the journal view equals
//! a from-scratch snapshot at quiesce, every resync copy is exactly the
//! journal prefix below its cursor, and detection reports a concurrent
//! deadlock exactly once.
//!
//! Synchronisation is by explicit rendezvous only: a start barrier puts
//! every producer and the consumer in the contended region together, and
//! quiesce is the producers' scope join — no sleeps, no yield loops, so
//! the assertions cannot race on slow CI machines. The same three
//! invariants also run as deterministic simulation scenarios in
//! `armus-testkit/tests/invariants.rs`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use armus_core::engine::IncrementalEngine;
use armus_core::{
    checker, BlockedInfo, Delta, GraphModel, JournalRead, PhaserId, Registration, Registry,
    Resource, Snapshot, TaskId, Verifier, VerifierConfig, DEFAULT_SG_THRESHOLD,
};

fn t(n: u64) -> TaskId {
    TaskId(n)
}
fn p(n: u64) -> PhaserId {
    PhaserId(n)
}
fn r(ph: u64, n: u64) -> Resource {
    Resource::new(p(ph), n)
}

/// Tiny deterministic LCG so the stress mix needs no rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A benign blocked status: task `id` waits phase 1 of its own phaser in
/// a small universe, arrived (phase 1) there and lagging (phase 0) on a
/// neighbour — real edges, no cycles across the universe.
fn churn_info(id: u64, universe: u64) -> BlockedInfo {
    let own = id % universe;
    let mut regs = vec![Registration::new(p(own), 1)];
    if own > 0 {
        regs.push(Registration::new(p(own - 1), 0));
    }
    BlockedInfo::new(t(id), vec![r(own, 1)], regs)
}

/// N producers blocking/unblocking randomized, overlapping tasks while
/// two consumer engines, each on its own thread, follow the delta
/// journal (both through the registry's one shared read): at quiesce
/// each journal view must equal a from-scratch snapshot, entry for
/// entry — no delta lost, duplicated, or misordered.
#[test]
fn merged_journal_view_equals_snapshot_at_quiesce() {
    const PRODUCERS: u64 = 4;
    const OPS: u64 = 2000;
    // Small journal window: the follower is *expected* to fall behind
    // under full-speed producers and exercise the snapshot resync path.
    let registry = Arc::new(Registry::with_journal_capacity(64));
    let (mut follower, mut second) = (IncrementalEngine::new(), IncrementalEngine::new());
    // Rendezvous: every producer and both consumers enter the contended
    // region together, so the followers provably overlap the churn.
    let start = Barrier::new(PRODUCERS as usize + 2);
    let finished = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        for producer in 0..PRODUCERS {
            let registry = Arc::clone(&registry);
            let (start, finished) = (&start, &finished);
            s.spawn(move || {
                let mut rng = Lcg(0x9e3779b9 ^ producer);
                start.wait();
                for _ in 0..OPS {
                    // Task ids overlap across producers (serialised by
                    // the registry's lock).
                    let id = rng.next() % 96;
                    if rng.next() % 3 == 0 {
                        registry.unblock(t(id));
                    } else {
                        registry.block(churn_info(id, 8));
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        // The second consumer only ever syncs: indexes, no model live.
        s.spawn(|| {
            start.wait();
            while finished.load(Ordering::Acquire) < PRODUCERS {
                second.sync(&registry);
            }
        });
        // The consumer follows the journal concurrently; every sync must
        // leave the engine internally consistent even mid-churn. Each
        // sync does real work (deltas or a resync), so the loop needs no
        // yield; it exits when the last producer has flagged completion,
        // and the scope join below is the quiesce rendezvous.
        start.wait();
        while finished.load(Ordering::Acquire) < PRODUCERS {
            follower.sync(&registry);
            // Keep both models live, so the deltas (and resyncs) of the
            // next sync maintain them rather than only the indexes.
            follower.demand(GraphModel::Wfg);
            follower.demand(GraphModel::Sg);
        }
    });

    // Quiesce: one final sync, then compare the followed view against a
    // from-scratch snapshot of the registry.
    follower.sync(&registry);
    second.sync(&registry);
    let snapshot = registry.snapshot();
    assert_eq!(follower.materialize(), snapshot, "journal-followed view diverged from snapshot");
    assert_eq!(second.materialize(), snapshot, "the second consumer's view diverged");

    // A joiner that only ever saw the final snapshot agrees structurally.
    let mut joiner = IncrementalEngine::new();
    joiner.reset_to(&snapshot);
    for engine in [&mut follower, &mut joiner] {
        engine.demand(GraphModel::Wfg);
        engine.demand(GraphModel::Sg);
    }
    assert_eq!(follower.wfg_edge_list(), joiner.wfg_edge_list());
    assert_eq!(follower.sg_edge_list(), joiner.sg_edge_list());
    assert_eq!(follower.wfg_vertex_list(), joiner.wfg_vertex_list());
    assert_eq!(follower.sg_vertex_list(), joiner.sg_vertex_list());
}

/// Producers block and unblock overlapping tasks while a reader takes
/// resync copies: every `(snapshot, cursor)` must be exactly the per-task
/// replay of the journal's first `cursor` entries — nothing below the
/// cursor missing, nothing at or past it already in. The window holds the
/// whole run, so the replay reads every entry from 0.
#[test]
fn snapshot_with_cursor_is_exactly_the_journal_prefix() {
    const PRODUCERS: u64 = 4;
    const OPS: u64 = 2000;
    const SAMPLES: usize = 4096;
    let registry = Registry::with_journal_capacity((PRODUCERS * OPS) as usize);
    let start = Barrier::new(PRODUCERS as usize + 1);
    let finished = std::sync::atomic::AtomicU64::new(0);
    let mut samples = Vec::new();
    std::thread::scope(|s| {
        for producer in 0..PRODUCERS {
            let (registry, start, finished) = (&registry, &start, &finished);
            s.spawn(move || {
                let mut rng = Lcg(0x5eed ^ producer);
                start.wait();
                for _ in 0..OPS {
                    let id = rng.next() % 96;
                    if rng.next() % 3 == 0 {
                        registry.unblock(t(id));
                    } else {
                        registry.block(churn_info(id, 8));
                    }
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        start.wait();
        while finished.load(Ordering::Acquire) < PRODUCERS && samples.len() < SAMPLES {
            samples.push(registry.snapshot_with_cursor());
        }
    });
    let JournalRead::Deltas(log, head) = registry.deltas_since(0) else {
        panic!("the window holds the whole run");
    };
    assert_eq!(log.len() as u64, head);
    // The reader's cursors never go back, so one replay serves them all.
    let mut state = std::collections::BTreeMap::new();
    let mut replayed = 0;
    for (n, (snap, cursor)) in samples.into_iter().enumerate() {
        assert!(cursor >= replayed as u64 && cursor <= head, "sample {n}: cursor {cursor}");
        for delta in &log[replayed..cursor as usize] {
            match delta {
                Delta::Block(info) => state.insert(info.task, info.clone()),
                Delta::Unblock(task) => state.remove(task),
            };
        }
        replayed = cursor as usize;
        let prefix = Snapshot::from_tasks(state.values().cloned().collect());
        assert_eq!(snap, prefix, "sample {n}: the copy at cursor {cursor} is not its prefix");
    }
}

/// Producers churn benign tasks while a deadlocked task set exists and a
/// checker thread samples continuously: the deadlock must be reported
/// (not lost in the churn) and reported exactly once (not duplicated by
/// repeated sampling).
#[test]
fn detection_under_churn_loses_and_duplicates_nothing() {
    const PRODUCERS: u64 = 3;
    const OPS: u64 = 1000;
    // Long period: the monitor thread stays out of the way; the test
    // drives check_now itself so sampling overlaps the churn.
    let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));

    // The paper's running-example deadlock on high phaser ids, away from
    // the churn universe: workers 1-3 stuck on p9001@1 impeded by the
    // driver, driver 4 stuck on p9002@1 impeded by the workers.
    for i in 1..=3 {
        v.block(
            t(i),
            vec![r(9001, 1)],
            vec![Registration::new(p(9001), 1), Registration::new(p(9002), 0)],
        )
        .unwrap();
    }
    v.block(
        t(4),
        vec![r(9002, 1)],
        vec![Registration::new(p(9002), 1), Registration::new(p(9001), 0)],
    )
    .unwrap();

    let start = Barrier::new(PRODUCERS as usize + 1);
    let produced = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for producer in 0..PRODUCERS {
            let v = &v;
            let (start, produced) = (&start, &produced);
            s.spawn(move || {
                let mut rng = Lcg(0xdeadbeef ^ producer);
                start.wait();
                for _ in 0..OPS {
                    let id = 1000 + producer * 1000 + rng.next() % 64;
                    if rng.next() % 2 == 0 {
                        v.block(
                            t(id),
                            vec![r(100 + id % 16, 1)],
                            vec![Registration::new(p(100 + id % 16), 1)],
                        )
                        .unwrap();
                    } else {
                        v.unblock(t(id));
                    }
                    produced.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The checker samples as fast as it can while producers churn,
        // entering the contended region with them (start rendezvous) and
        // leaving it at the scope join (quiesce rendezvous).
        start.wait();
        while produced.load(Ordering::Relaxed) < PRODUCERS * OPS {
            let _ = v.check_now();
        }
    });
    let _ = v.check_now(); // one quiescent sample for good measure

    let reports = v.take_reports();
    assert_eq!(reports.len(), 1, "the deadlock must surface exactly once, got {reports:?}");
    assert_eq!(reports[0].tasks, vec![t(1), t(2), t(3), t(4)]);
    v.shutdown();
}

/// Concurrent avoidance blockers over distinct resources drive the slow
/// path from many threads at once: every admitted block really is
/// deadlock-free, every check is accounted for, and the engine ends
/// the run in sync with the registry.
#[test]
fn concurrent_avoidance_accounts_every_block() {
    const THREADS: u64 = 4;
    const OPS: u64 = 500;
    let v = Verifier::new(VerifierConfig::avoidance());
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for worker in 0..THREADS {
            let v = &v;
            let start = &start;
            s.spawn(move || {
                let mut rng = Lcg(42 ^ worker);
                start.wait();
                for i in 0..OPS {
                    let id = worker * 10_000 + i;
                    // Distinct per-thread phasers: plenty of distinct
                    // awaited resources, so checks take the slow path and
                    // contend on the engine lock.
                    let ph = 10 + worker * 100 + rng.next() % 8;
                    v.block(t(id), vec![r(ph, 1)], vec![Registration::new(p(ph), 1)])
                        .expect("independent per-thread events cannot deadlock");
                    v.unblock(t(id));
                }
            });
        }
    });
    let s = v.stats();
    assert_eq!(s.blocks, THREADS * OPS);
    assert_eq!(s.unblocks, THREADS * OPS);
    assert_eq!(
        s.checks + s.fastpath_skips,
        s.blocks,
        "every avoidance block is answered exactly once (checks {} + skips {})",
        s.checks,
        s.fastpath_skips
    );
    assert!(!v.found_deadlock());
}

/// A two-task cycle closed while four threads drive the slow path as in
/// `concurrent_avoidance_accounts_every_block`: the closing checks wait
/// on the engine lock behind the churn's, and still refuse the cycle.
/// Every round all six threads leave one start rendezvous together and
/// meet again at its end. The first closer then reads the round's
/// verdicts, a full check of the verifier's snapshot and the accounting
/// while an admitted closer is still blocked and the churn waits at the
/// next start; only after that do the admitted closers withdraw. The
/// assertions run after the join, since a failed one inside the rounds
/// would strand the others at a barrier.
#[test]
fn contended_avoidance_refuses_the_closing_block() {
    const CHURNERS: u64 = 4;
    const ROUNDS: u64 = 200;
    const OPS: u64 = 10;
    let v = Verifier::new(VerifierConfig::avoidance());
    let (start, end) = (Barrier::new(CHURNERS as usize + 2), Barrier::new(CHURNERS as usize + 2));
    let read = Barrier::new(2);
    // t1 waits on p1 and is registered (lagging) at p2; t2 the reverse.
    let closers = [(t(1_000_001), 9001, 9002), (t(1_000_002), 9002, 9001)];
    let verdicts: [Mutex<Option<Verdict>>; 2] = Default::default();
    let mut rounds = Vec::new();
    std::thread::scope(|s| {
        for worker in 0..CHURNERS {
            let (v, start, end) = (&v, &start, &end);
            s.spawn(move || {
                let mut rng = Lcg(42 ^ worker);
                for round in 0..ROUNDS {
                    start.wait();
                    for i in 0..OPS {
                        let id = worker * 10_000 + round * OPS + i;
                        let ph = 10 + worker * 100 + rng.next() % 8;
                        v.block(t(id), vec![r(ph, 1)], vec![Registration::new(p(ph), 1)])
                            .expect("independent per-thread events cannot deadlock");
                        v.unblock(t(id));
                    }
                    end.wait();
                }
            });
        }
        let second = closers[1];
        let (v1, start1, end1, read1, verdict1) = (&v, &start, &end, &read, &verdicts[1]);
        s.spawn(move || {
            for _ in 0..ROUNDS {
                start1.wait();
                let verdict = close(v1, second);
                *verdict1.lock().unwrap() = Some(verdict.clone());
                end1.wait();
                read1.wait();
                if verdict.is_ok() {
                    v1.unblock(second.0);
                }
            }
        });
        for _ in 0..ROUNDS {
            start.wait();
            let verdict = close(&v, closers[0]);
            *verdicts[0].lock().unwrap() = Some(verdict.clone());
            end.wait();
            let round: Vec<_> = verdicts.iter().map(|slot| slot.lock().unwrap().take()).collect();
            let full = checker::check(&v.local_snapshot(), v.config().model, DEFAULT_SG_THRESHOLD);
            rounds.push((round, full.report, v.stats()));
            read.wait();
            if verdict.is_ok() {
                v.unblock(closers[0].0);
            }
        }
    });
    let cycle = vec![closers[0].0, closers[1].0];
    for (n, (round, probe, st)) in rounds.into_iter().enumerate() {
        let round: Vec<_> = round.into_iter().map(|v| v.expect("both closers ran")).collect();
        assert!(round.iter().any(Result::is_err), "round {n}: both closing blocks were admitted");
        for mut tasks in round.into_iter().filter_map(Result::err) {
            tasks.sort();
            assert_eq!(tasks, cycle, "round {n}: a report named the wrong tasks");
        }
        assert_eq!(probe, None, "round {n}: a cycle outlived its refusal");
        assert_eq!(
            st.checks + st.fastpath_skips,
            st.blocks,
            "round {n}: a block went unanswered or was answered twice"
        );
    }
    assert_eq!(v.stats().blocks, CHURNERS * ROUNDS * OPS + 2 * ROUNDS);
}

/// A closer's verdict: admitted, or refused with its report's tasks.
type Verdict = Result<(), Vec<TaskId>>;

/// One closer's block: `task` waits on phase 1 of `waits` and lags at
/// phase 0 of `lags`. A refused block was already withdrawn by the
/// verifier; an admitted one stays blocked.
fn close(v: &Verifier, (task, waits, lags): (TaskId, u64, u64)) -> Verdict {
    v.block(
        task,
        vec![r(waits, 1)],
        vec![Registration::new(p(waits), 1), Registration::new(p(lags), 0)],
    )
    .map_err(|e| e.report.tasks)
}
