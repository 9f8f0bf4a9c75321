//! The `incremental` experiment: rebuild-per-check vs delta-maintenance on
//! the avoidance hot path, across blocked-task counts.
//!
//! Both arms run the same operation — a probe task blocks, an avoidance
//! check runs for it, the probe unblocks — against a registry holding `N`
//! background blocked tasks. The **rebuild** arm does what the verifier
//! did before the incremental engine existed: clone the registry into a
//! snapshot and build the analysis graph from scratch, `O(N)` per check.
//! The **delta** arm syncs an [`IncrementalEngine`] (applying only the two
//! journal deltas the probe produced) and checks the maintained graph,
//! `O(churn)` per check. The paper's observation that status maintenance
//! outnumbers checks (§5.1) is exactly why the delta arm's ops/sec should
//! stay flat while the rebuild arm's falls off linearly in `N`.

use std::time::{Duration, Instant};

use armus_core::{
    checker, BlockedInfo, IncrementalEngine, ModelChoice, PhaserId, Registration, Registry,
    Resource, TaskId, DEFAULT_SG_THRESHOLD,
};
use serde::Serialize;

/// Phasers the background tasks are spread over (tasks:barriers ratio is
/// SPMD-like, the paper's common case; the SG stays small and Auto keeps it).
const PHASERS: u64 = 64;

/// One measured size.
#[derive(Clone, Debug, Serialize)]
pub struct IncrementalCell {
    /// Background blocked tasks during the measurement.
    pub blocked_tasks: usize,
    /// block → snapshot-clone-and-rebuild check → unblock, ops/sec.
    pub rebuild_ops_per_sec: f64,
    /// block → delta-sync check on the maintained graph → unblock, ops/sec.
    pub delta_ops_per_sec: f64,
    /// `delta / rebuild`.
    pub speedup: f64,
}

/// The whole experiment, for `--json` export (`BENCH_incremental.json`).
#[derive(Clone, Debug, Serialize)]
pub struct IncrementalResults {
    /// `std::thread::available_parallelism()` of the measuring host, so
    /// readers can interpret the numbers (the comparison is
    /// single-threaded and algorithmic, but the CI gate wants the
    /// provenance).
    pub host_cores: usize,
    /// One cell per blocked-task count.
    pub cells: Vec<IncrementalCell>,
}

/// A background blocked task in the SPMD-ish shape: arrived (phase 1) on
/// its own barrier, lagging (phase 0) on the previous one.
fn background(task: u64) -> BlockedInfo {
    let own = task % PHASERS;
    let mut regs = vec![Registration::new(PhaserId(own), 1)];
    if own > 0 {
        regs.push(Registration::new(PhaserId(own - 1), 0));
    }
    BlockedInfo::new(TaskId(task), vec![Resource::new(PhaserId(own), 1)], regs)
}

/// The probe: the task whose block/check/unblock cycle is measured. Shaped
/// like the background tasks (it participates in real edges) but on a task
/// id of its own.
fn probe(n: usize) -> BlockedInfo {
    background(n as u64)
}

fn populate(registry: &Registry, n: usize) {
    for task in 0..n {
        registry.block(background(task as u64));
    }
}

/// Runs `op` repeatedly for at least `budget`, returning ops/sec.
fn measure(budget: Duration, mut op: impl FnMut()) -> f64 {
    // Warm-up: fault in allocations and caches.
    for _ in 0..16 {
        op();
    }
    let mut ops = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            op();
        }
        ops += 32;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return ops as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Measures one blocked-task count.
pub fn run_cell(n: usize, budget: Duration) -> IncrementalCell {
    let info = probe(n);
    let task = info.task;

    // Rebuild arm: the pre-engine hot path.
    let registry = Registry::new();
    populate(&registry, n);
    let rebuild_ops_per_sec = measure(budget, || {
        registry.block(info.clone());
        let snapshot = registry.snapshot();
        let out = checker::check_task(&snapshot, task, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_none(), "the synthetic shape is deadlock-free");
        registry.unblock(task);
    });

    // Delta arm: the engine-maintained hot path.
    let registry = Registry::new();
    populate(&registry, n);
    let mut engine = IncrementalEngine::new();
    engine.sync(&registry);
    let delta_ops_per_sec = measure(budget, || {
        registry.block(info.clone());
        engine.sync(&registry);
        let out = engine.check_task(task, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_none(), "the synthetic shape is deadlock-free");
        registry.unblock(task);
    });

    IncrementalCell {
        blocked_tasks: n,
        rebuild_ops_per_sec,
        delta_ops_per_sec,
        speedup: delta_ops_per_sec / rebuild_ops_per_sec,
    }
}

/// Runs the experiment over the given sizes.
pub fn run(sizes: &[usize], budget: Duration) -> IncrementalResults {
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cells = sizes
        .iter()
        .map(|&n| {
            eprintln!("  [incremental] N = {n}");
            run_cell(n, budget)
        })
        .collect();
    IncrementalResults { host_cores, cells }
}

/// Prints the results as a table.
pub fn print_table(results: &IncrementalResults) {
    println!(
        "\nIncremental engine: avoidance check throughput, rebuild-per-check vs delta-maintenance."
    );
    println!("  {:>8} {:>16} {:>16} {:>9}", "blocked", "rebuild ops/s", "delta ops/s", "speedup");
    for cell in &results.cells {
        println!(
            "  {:>8} {:>16.0} {:>16.0} {:>8.1}x",
            cell.blocked_tasks, cell.rebuild_ops_per_sec, cell.delta_ops_per_sec, cell.speedup
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_agree_and_produce_throughput() {
        let results = run(&[8, 32], Duration::from_millis(20));
        assert_eq!(results.cells.len(), 2);
        for cell in &results.cells {
            assert!(cell.rebuild_ops_per_sec > 0.0);
            assert!(cell.delta_ops_per_sec > 0.0);
            assert!(cell.speedup > 0.0);
        }
        assert!(results.host_cores >= 1);
        print_table(&results);
    }

    #[test]
    fn synthetic_shape_is_deadlock_free_but_not_trivial() {
        let registry = Registry::new();
        populate(&registry, 256);
        registry.block(probe(256));
        let snap = registry.snapshot();
        let wfg = armus_core::wfg::wfg(&snap);
        assert!(wfg.edge_count() > 0, "the shape must have real dependencies");
        assert!(wfg.find_cycle().is_none());
        assert!(armus_core::sg::sg(&snap).find_cycle().is_none());
    }
}
