//! Verification statistics: per-check graph sizes and model choices.
//!
//! Table 3 of the paper reports, per benchmark and per graph mode, the
//! *average number of edges used in verification*; this collector gathers
//! exactly that, lock-free, so the workloads can report it.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::adaptive::GraphModel;
use crate::checker::CheckStats;
use crate::engine::EngineCounters;

/// Lock-free accumulator of check statistics.
#[derive(Debug, Default)]
pub struct StatsCollector {
    checks: AtomicU64,
    checks_wfg: AtomicU64,
    checks_sg: AtomicU64,
    edges_sum: AtomicU64,
    edges_max: AtomicU64,
    nodes_sum: AtomicU64,
    deadlocks: AtomicU64,
    sg_aborts: AtomicU64,
    blocks: AtomicU64,
    unblocks: AtomicU64,
    deltas_applied: AtomicU64,
    full_rebuilds: AtomicU64,
    resyncs: AtomicU64,
    fastpath_skips: AtomicU64,
    engine_lock_waits: AtomicU64,
    incremental_detections: AtomicU64,
    order_rebuilds: AtomicU64,
    model_builds: AtomicU64,
    model_retires: AtomicU64,
    async_waits: AtomicU64,
    waker_wakes: AtomicU64,
}

impl StatsCollector {
    /// Creates a zeroed collector.
    pub fn new() -> StatsCollector {
        StatsCollector::default()
    }

    /// Records the sizes of one completed check.
    pub fn record_check(&self, stats: &CheckStats) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        match stats.model {
            GraphModel::Wfg => self.checks_wfg.fetch_add(1, Ordering::Relaxed),
            GraphModel::Sg => self.checks_sg.fetch_add(1, Ordering::Relaxed),
        };
        self.edges_sum.fetch_add(stats.edges as u64, Ordering::Relaxed);
        self.nodes_sum.fetch_add(stats.nodes as u64, Ordering::Relaxed);
        self.edges_max.fetch_max(stats.edges as u64, Ordering::Relaxed);
        if stats.sg_aborted {
            self.sg_aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a deadlock report.
    pub fn record_deadlock(&self) {
        self.deadlocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a blocked-status publication.
    pub fn record_block(&self) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an unblock.
    pub fn record_unblock(&self) {
        self.unblocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one incremental-engine sync: how many journal deltas were
    /// applied, and whether the engine had to resync from a full snapshot.
    pub fn record_sync(&self, deltas_applied: usize, resynced: bool) {
        self.deltas_applied.fetch_add(deltas_applied as u64, Ordering::Relaxed);
        if resynced {
            self.resyncs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a canonical check (the engine's slow path: a maintained-graph
    /// hit being confirmed into a canonical report).
    pub fn record_full_rebuild(&self) {
        self.full_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an avoidance block answered by the in-edge fast path: no
    /// blocked task waits behind it, so it takes no check.
    pub fn record_fastpath_skip(&self) {
        self.fastpath_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an avoidance check finding the engine lock held (it then
    /// waits on the lock).
    pub fn record_engine_lock_wait(&self) {
        self.engine_lock_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a detection check answered entirely from the maintained
    /// topological order — no cycle, so no canonical rebuild ran and the
    /// check cost `O(churn)`, not `O(V + E)`.
    pub fn record_incremental_detection(&self) {
        self.incremental_detections.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the verifier's engine's cumulative build / retire /
    /// order-rebuild counts. The verifier owns one engine and calls this
    /// under its lock, so a plain store keeps the counters monotone.
    pub fn mirror_engine(&self, counters: EngineCounters) {
        self.order_rebuilds.store(counters.order_rebuilds, Ordering::Relaxed);
        self.model_builds.store(counters.model_builds, Ordering::Relaxed);
        self.model_retires.store(counters.model_retires, Ordering::Relaxed);
    }

    /// Records a wait going pending with a waker parked on the phaser's
    /// wait machine — a future's, or a blocked thread's.
    pub fn record_async_wait(&self) {
        self.async_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` parked waits being woken by a fate-resolving event
    /// (arrival, poison, interrupt, deregistration).
    pub fn record_waker_wakes(&self, n: u64) {
        if n > 0 {
            self.waker_wakes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes a consistent-enough copy for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            checks: self.checks.load(Ordering::Relaxed),
            checks_wfg: self.checks_wfg.load(Ordering::Relaxed),
            checks_sg: self.checks_sg.load(Ordering::Relaxed),
            edges_sum: self.edges_sum.load(Ordering::Relaxed),
            edges_max: self.edges_max.load(Ordering::Relaxed),
            nodes_sum: self.nodes_sum.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            sg_aborts: self.sg_aborts.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            unblocks: self.unblocks.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            full_rebuilds: self.full_rebuilds.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            fastpath_skips: self.fastpath_skips.load(Ordering::Relaxed),
            static_skips: 0,
            engine_lock_waits: self.engine_lock_waits.load(Ordering::Relaxed),
            combined_checks: 0,
            incremental_detections: self.incremental_detections.load(Ordering::Relaxed),
            order_rebuilds: self.order_rebuilds.load(Ordering::Relaxed),
            model_builds: self.model_builds.load(Ordering::Relaxed),
            model_retires: self.model_retires.load(Ordering::Relaxed),
            async_waits: self.async_waits.load(Ordering::Relaxed),
            waker_wakes: self.waker_wakes.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time statistics, read one counter at a time. A block is
/// counted before its check, so `checks + fastpath_skips == blocks` holds
/// only at rest: a read while blocks are in flight can show `blocks`
/// ahead by the number in flight.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Total deadlock checks run.
    pub checks: u64,
    /// Checks that analysed a WFG.
    pub checks_wfg: u64,
    /// Checks that analysed an SG.
    pub checks_sg: u64,
    /// Sum of analysed edge counts (for the Table 3 average).
    pub edges_sum: u64,
    /// Largest graph analysed. `u64` like every sibling counter — the
    /// snapshot crosses the wire in the store server's metrics endpoint,
    /// so its layout must not depend on the host's pointer width.
    pub edges_max: u64,
    /// Sum of analysed node counts.
    pub nodes_sum: u64,
    /// Deadlocks reported.
    pub deadlocks: u64,
    /// Auto-mode SG builds abandoned for a WFG.
    pub sg_aborts: u64,
    /// Blocked-status publications.
    pub blocks: u64,
    /// Unblocks.
    pub unblocks: u64,
    /// Journal deltas applied to the incremental engine's maintained graph.
    /// Only checks sync the engine, so an avoidance block the fast path
    /// skips adds its delta here when the next check applies it (or none,
    /// if that check reloads the engine from the registry instead).
    pub deltas_applied: u64,
    /// Canonical checks run on a hit (maintained-graph hits confirmed into
    /// canonical reports) — the counterpart of `deltas_applied`. An
    /// avoidance hit rebuilds the graph of the whole state from scratch; a
    /// detection hit that of the slice that reaches the cycle (see
    /// [`crate::engine::IncrementalEngine::check_full`]).
    pub full_rebuilds: u64,
    /// Engine reloads from a full snapshot after falling behind the
    /// bounded delta journal.
    pub resyncs: u64,
    /// Avoidance blocks answered by the in-edge fast path: no blocked
    /// task waits on an event the new status impedes, so the block closes
    /// no cycle and runs no check. Such a block leaves the engine alone:
    /// the next check applies its delta.
    pub fastpath_skips: u64,
    /// Always 0. It counted avoidance checks skipped on a whole-program
    /// proof of deadlock-freedom; a proved-safe program now runs
    /// publish-only instead, so every avoidance block is a check or a
    /// fast-path skip. The field stays only because the benchmark still
    /// reads it, and goes with the next change to the benchmark.
    pub static_skips: u64,
    /// Avoidance checks that found the engine lock held and waited on it
    /// (the lock's release wakes them). Only concurrent blockers that
    /// miss the fast path can wait; a single-threaded program reads 0.
    pub engine_lock_waits: u64,
    /// Always 0. It counted checks a lock holder ran for queued blockers
    /// (flat combining), which the verifier no longer does; the field
    /// stays only because the benchmark still reads it, and goes with the
    /// next change to the benchmark.
    pub combined_checks: u64,
    /// Detection checks answered entirely from the maintained topological
    /// order (no cycle found, no canonical rebuild): `O(churn)` instead of
    /// a full-graph pass. The hit counterpart is `full_rebuilds`.
    pub incremental_detections: u64,
    /// From-scratch rebuilds of a *live* topological order by a journal
    /// resync. A resync with no order live (every avoidance verifier)
    /// rebuilds none and counts nothing.
    pub order_rebuilds: u64,
    /// Derived structures (an SG or WFG adjacency, or one of their orders)
    /// the engine built because a check demanded one that was not live.
    pub model_builds: u64,
    /// Derived structures the engine dropped because no check had read
    /// them for longer than rebuilding them costs. Climbing together with
    /// `model_builds`, it shows a check pattern that keeps crossing that
    /// break-even point (e.g. a program oscillating around the `Auto`
    /// threshold).
    pub model_retires: u64,
    /// Waits parked on the phaser's wait machine, from either front-end:
    /// a future parks its task's waker, a blocked thread a waker that
    /// unparks it. (The name predates the blocking front-end's use of the
    /// same machine; it is kept for the wire and the readers.)
    pub async_waits: u64,
    /// Parked waits woken, each by an event that resolved it. A parked
    /// waiter is woken exactly once, so this stays close to
    /// `async_waits`; a wait that parks again after its wake (its phaser
    /// gained a laggard in between) counts twice in both.
    pub waker_wakes: u64,
}

impl StatsSnapshot {
    /// Average edges per check (Table 3's "Edges" row), 0 when no checks ran.
    pub fn avg_edges(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.edges_sum as f64 / self.checks as f64
        }
    }

    /// Average nodes per check.
    pub fn avg_nodes(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            self.nodes_sum as f64 / self.checks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(model: GraphModel, edges: usize, aborted: bool) -> CheckStats {
        CheckStats { model, nodes: edges / 2 + 1, edges, blocked_tasks: 4, sg_aborted: aborted }
    }

    #[test]
    fn averages_over_checks() {
        let c = StatsCollector::new();
        c.record_check(&check(GraphModel::Wfg, 10, false));
        c.record_check(&check(GraphModel::Sg, 2, false));
        c.record_check(&check(GraphModel::Wfg, 30, true));
        let s = c.snapshot();
        assert_eq!(s.checks, 3);
        assert_eq!(s.checks_wfg, 2);
        assert_eq!(s.checks_sg, 1);
        assert!((s.avg_edges() - 14.0).abs() < 1e-9);
        // Fixed-width on every host: the snapshot is serialised across
        // the wire by the store server's metrics endpoint.
        let edges_max: u64 = s.edges_max;
        assert_eq!(edges_max, 30);
        assert_eq!(s.sg_aborts, 1);
    }

    #[test]
    fn empty_collector_has_zero_average() {
        let s = StatsCollector::new().snapshot();
        assert_eq!(s.avg_edges(), 0.0);
        assert_eq!(s.avg_nodes(), 0.0);
    }

    #[test]
    fn block_unblock_deadlock_counters() {
        let c = StatsCollector::new();
        c.record_block();
        c.record_block();
        c.record_unblock();
        c.record_deadlock();
        let s = c.snapshot();
        assert_eq!(s.blocks, 2);
        assert_eq!(s.unblocks, 1);
        assert_eq!(s.deadlocks, 1);
    }

    #[test]
    fn engine_counters_accumulate() {
        let c = StatsCollector::new();
        c.record_sync(3, false);
        c.record_sync(0, true);
        c.record_sync(2, false);
        c.record_full_rebuild();
        c.record_incremental_detection();
        c.record_incremental_detection();
        c.mirror_engine(EngineCounters { model_builds: 3, model_retires: 1, order_rebuilds: 1 });
        c.mirror_engine(EngineCounters { model_builds: 4, model_retires: 2, order_rebuilds: 1 });
        let s = c.snapshot();
        assert_eq!(s.deltas_applied, 5);
        assert_eq!(s.resyncs, 1);
        assert_eq!(s.full_rebuilds, 1);
        assert_eq!(s.incremental_detections, 2);
        assert_eq!(s.order_rebuilds, 1);
        assert_eq!((s.model_builds, s.model_retires), (4, 2), "cumulative, not summed");
    }

    #[test]
    fn async_counters_accumulate() {
        let c = StatsCollector::new();
        c.record_async_wait();
        c.record_async_wait();
        c.record_waker_wakes(0);
        c.record_waker_wakes(2);
        let s = c.snapshot();
        assert_eq!(s.async_waits, 2);
        assert_eq!(s.waker_wakes, 2);
    }

    #[test]
    fn contention_counters_accumulate() {
        let c = StatsCollector::new();
        c.record_fastpath_skip();
        c.record_fastpath_skip();
        c.record_engine_lock_wait();
        let s = c.snapshot();
        assert_eq!(s.fastpath_skips, 2);
        assert_eq!(s.engine_lock_waits, 1);
        assert_eq!(s.static_skips, 0, "nothing skips checks on a proof any more");
        assert_eq!(s.combined_checks, 0, "nothing combines checks any more");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        use std::sync::Arc;
        let c = Arc::new(StatsCollector::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record_check(&check(GraphModel::Sg, 3, false));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.checks, 4000);
        assert_eq!(s.edges_sum, 12000);
    }
}
