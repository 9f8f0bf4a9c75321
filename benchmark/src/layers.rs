//! The traced run: every per-layer metric of one workload.
//!
//! Three parts. A *live* part runs the workload as the untraced run does
//! (a few paired rounds, then rounds in which every task times its own
//! operations, then a few verdict trials) but on `min(2, cores)` workers,
//! and reads the verifier's public counters: contention shows only here,
//! with both workers running, and `contended.*` is what it does to the
//! throughput the untraced run measures on one worker. A
//! *capture* part runs the checked program once more under a journal wide
//! enough to hand back its whole delta stream. The *ladder* replays that
//! stream one layer deeper per rung (see [`crate::ladder`]). The six
//! kernels run once as well, on every workload: their solve times should
//! never move, so a traced run that shows them moved was taken on a noisy
//! host.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;

use crate::api::{Delta, JournalRead, Runtime, StatsSnapshot};
use crate::e2e::{gates_after_round, settle, site_reports, Options, Outcome};
use crate::gen::{self, Trials, Workload};
use crate::host;
use crate::ladder::{self, attribute, ratio, LayerCosts};
use crate::metrics;
use crate::program::{AsyncProgram, Part};
use crate::rig::{self, checked_runtime, KernelWork, Work};
use crate::stats;
use crate::trace;

/// Paired untraced rounds the attribution's added time is read from.
const PAIRS: usize = 5;
/// Verdict trials the live part runs (so that canonical rebuilds on a hit
/// are counted at all).
const TRIALS: usize = 20;
/// Journal window of the capture run: wider than any stream it records.
const CAPTURE_JOURNAL: usize = 1 << 21;
/// Deltas the ladder replays at most.
const MAX_STREAM: usize = 60_000;
/// Front-end operation latencies a p99 needs (ten samples beyond it).
const MIN_LATENCIES: usize = 1_000;

fn sum_stats(runtimes: &[Arc<Runtime>]) -> StatsSnapshot {
    let mut total = StatsSnapshot::default();
    for rt in runtimes {
        let s = rt.stats();
        total.checks += s.checks;
        total.blocks += s.blocks;
        total.fastpath_skips += s.fastpath_skips;
        total.engine_lock_waits += s.engine_lock_waits;
        total.combined_checks += s.combined_checks;
        total.order_rebuilds += s.order_rebuilds;
        total.full_rebuilds += s.full_rebuilds;
        total.async_waits += s.async_waits;
        total.waker_wakes += s.waker_wakes;
    }
    total
}

/// The delta journal of `rt`, whole (at most [`MAX_STREAM`] deltas).
fn journal(rt: &Runtime) -> Result<Vec<Delta>, String> {
    match rt.verifier().deltas_since(0) {
        JournalRead::Deltas(deltas, _) => Ok(deltas.into_iter().take(MAX_STREAM).collect()),
        JournalRead::Behind => Err("the capture journal overran".into()),
    }
}

/// The whole delta stream a checked run of the async program publishes.
fn capture(opts: &Options, inputs: &gen::Inputs, spec: &gen::Spec) -> Result<Vec<Delta>, String> {
    let rt = checked_runtime(opts.workload, Some(CAPTURE_JOURNAL));
    let part = Part { runtime: Arc::clone(&rt), topology: inputs.topology.clone() };
    let mut program = AsyncProgram::spawn(vec![part], opts.workers, spec.advances)?;
    let per_round = 2 * program.ops_per_round() as usize;
    for _ in 0..(MAX_STREAM / per_round).clamp(1, 4) {
        program.round()?;
    }
    if program.shutdown() != 0 {
        return Err("a task of the capture run failed".into());
    }
    let stream = journal(&rt);
    rt.shutdown();
    stream
}

/// Passes of the kernel canary.
const CANARY_PASSES: usize = 3;

/// All six kernels on `rt`: median solve times (ms, table order) and
/// blocks per solve.
fn kernel_canary(opts: &Options, rt: &Arc<Runtime>) -> (Vec<(&'static str, f64)>, f64) {
    let order: Vec<usize> = (0..6).collect();
    let scale = rig::scale(opts.size);
    let reference = Arc::new(KernelWork::reference(&order, scale));
    let work =
        KernelWork::new(Arc::clone(rt), &order, reference, rig::SPMD_THREADS, scale, CANARY_PASSES);
    let names = work.names();
    let mut kernels = Work::Kernels(work);
    kernels.round().expect("kernel rounds cannot fail");
    let Work::Kernels(done) = &kernels else { unreachable!() };
    let times = names.into_iter().zip(done.solve_ms.iter().map(|t| stats::median(t))).collect();
    let blocks = rt.stats().blocks as f64 / (CANARY_PASSES * order.len()) as f64;
    (times, blocks)
}

fn trace_file(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", workload.name()))
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let started = Instant::now();
    let spec = gen::spec(opts.workload, opts.size);
    let inputs = gen::inputs(opts.workload, opts.size, opts.seed);
    let mode = rig::mode(opts.workload);
    let mut out = Outcome::default();
    host::confine_harness();

    // Live part.
    let mut rig = rig::setup(opts.workload, &inputs, &spec, opts.size, opts.workers)?;
    let ops = rig.checked.ops_per_round();
    let (mut unchecked_s, mut checked_s) = (Vec::new(), Vec::new());
    for pair in 0..=PAIRS {
        let u = rig.unchecked.round()?.as_secs_f64();
        let quiet = site_reports(&rig);
        let c = rig.checked.round()?.as_secs_f64();
        for violation in gates_after_round(&rig, quiet) {
            out.violation(violation);
        }
        if pair > 0 {
            unchecked_s.push(u);
            checked_s.push(c);
        }
    }
    let live = sum_stats(&rig.runtimes);
    let live_rounds = (PAIRS + 1) as u64;

    // Front-end spans: every task times each of its operations. The
    // kernels have no async program, so `npb-spmd` times a two-task group
    // (its SPMD width) under the same verifier instead.
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut traced_s = Vec::new();
    let mut side_program = match &rig.checked {
        Work::Async(_) => None,
        Work::Kernels(_) => Some(AsyncProgram::spawn(
            vec![Part { runtime: Arc::clone(&rig.runtimes[0]), topology: inputs.topology.clone() }],
            opts.workers,
            spec.advances,
        )?),
    };
    while latencies_us.len() < MIN_LATENCIES || traced_s.len() < 3 {
        let program = match (&mut rig.checked, &mut side_program) {
            (Work::Async(p), _) => p,
            (_, Some(p)) => p,
            _ => unreachable!("a kernel rig has a side program"),
        };
        let (elapsed, latencies) = program.traced_round()?;
        traced_s.push(elapsed.as_secs_f64());
        latencies_us.extend(latencies.iter().map(|&ns| f64::from(ns) / 1e3));
        if started.elapsed() > Duration::from_secs(30) {
            return Err("the traced rounds did not gather enough latencies".into());
        }
    }
    if let Some(program) = side_program.take() {
        for _ in 0..program.shutdown() {
            out.violation("a task of the two-task group ended in an error");
        }
    }
    // With no async program of its own the traced rounds say nothing
    // about the workload's round time.
    let overhead_share = match &rig.checked {
        Work::Async(_) => stats::median(&traced_s) / stats::median(&checked_s) - 1.0,
        Work::Kernels(_) => 0.0,
    };

    for shape in Trials::new(opts.seed).take(TRIALS) {
        if let Err(why) = rig.trial(shape) {
            out.violation(format!("trial: {why}"));
        }
    }
    if let Err(why) = settle(&rig) {
        out.violation(why);
    }
    let after_trials = sum_stats(&rig.runtimes);
    for _ in 0..rig.teardown() {
        out.violation("a task ended in an error or a checksum missed its reference");
    }

    // Capture, canary and ladder. The kernels have no async program to
    // capture: on `npb-spmd` the canary itself runs under the wide journal
    // and its deltas are the stream.
    let (stream, (kernel_ms, blocks_per_solve)) = if opts.workload == Workload::NpbSpmd {
        let rt = checked_runtime(opts.workload, Some(CAPTURE_JOURNAL));
        let canary = kernel_canary(opts, &rt);
        (journal(&rt)?, canary)
    } else {
        (capture(opts, &inputs, &spec)?, kernel_canary(opts, &Runtime::avoidance()))
    };
    let clock_ns = trace::clock_overhead_ns();
    let rung_budget = Duration::from_secs_f64((opts.seconds * 0.1).clamp(0.2, 2.0));
    let measured = ladder::climb(&stream, mode, inputs.topology.typical_group(), rung_budget)?;

    let span = |name: &str| measured.mean_ns(name, clock_ns);
    let costs = LayerCosts {
        deps_block_ns: span("core.deps.block"),
        deps_unblock_ns: span("core.deps.unblock"),
        sync_ns_per_delta: ratio(
            measured.spans.get("core.engine.sync").map_or(0.0, |t| t.total_ns as f64)
                - clock_ns * stream.len() as f64,
            measured.counter("core.engine.deltas_applied"),
        )
        .max(0.0),
        deltas_per_block: ratio(
            stream.len() as f64,
            stream.iter().filter(|d| matches!(d, Delta::Block(_))).count() as f64,
        ),
        check_task_ns: span("core.engine.check_task"),
        verifier_block_ns: span("core.verifier.block"),
        verifier_unblock_ns: span("core.verifier.unblock"),
    };
    let blocks_per_op = ratio(live.blocks as f64, (live_rounds * ops) as f64);
    let attribution = attribute(
        stats::median(&checked_s),
        stats::median(&unchecked_s),
        ops,
        &costs,
        blocks_per_op,
    );

    let group = measured.counter("seam_group");
    let per_delta = |name: &str| {
        ratio(
            measured.spans.get(name).map_or(0.0, |t| t.total_ns as f64 - clock_ns * t.count as f64),
            measured.counter("batch_deltas"),
        )
        .max(0.0)
    };
    let v = &mut out.values;
    // Counters the rungs named after the metric they are.
    for (&name, &value) in &measured.counters {
        if metrics::unit(name).is_some() {
            v.set(name, value);
        }
    }
    // Span means, in the metric's unit.
    for (metric, name, per) in [
        ("core.deps.snapshot_us", "core.deps.snapshot", 1e3),
        ("core.engine.check_full_us", "core.engine.check_full", 1e3),
        ("core.engine.reset_us", "core.engine.reset", 1e3),
        ("core.checker.rebuild_us", "core.checker.rebuild", 1e3),
        ("sync.phaser.seam_op_ns", "sync.phaser.seam_round", group),
        ("sync.phaser.resolve_ns_per_waiter", "sync.phaser.resolve", group - 1.0),
        ("sync.phaser.register_ns", "sync.phaser.register", 1.0),
        ("async.executor.spawn_ns", "async.executor.spawn_batch", measured.counter("spawn_batch")),
        (
            "async.executor.switch_ns",
            "async.executor.switch_batch",
            measured.counter("switch_batch"),
        ),
        ("dist.store.publish_full_us", "dist.store.publish_full", 1e3),
        ("dist.store.fetch_all_us", "dist.store.fetch_all", 1e3),
        ("dist.detector.round_us", "dist.detector.round", 1e3),
        ("dist.detector.merge_us", "dist.detector.merge", 1e3),
    ] {
        v.set(metric, span(name) / per);
    }
    v.set("core.deps.block_ns", costs.deps_block_ns);
    v.set("core.deps.unblock_ns", costs.deps_unblock_ns);
    v.set("core.engine.sync_ns_per_delta", costs.sync_ns_per_delta);
    v.set("core.engine.check_task_ns", costs.check_task_ns);
    v.set("core.verifier.block_ns", costs.verifier_block_ns);
    v.set("core.verifier.unblock_ns", costs.verifier_unblock_ns);
    v.set("core.verifier.self_ns", costs.verifier_self_ns(mode));
    v.set("dist.wire.encode_ns_per_delta", per_delta("dist.wire.encode"));
    v.set("dist.wire.decode_ns_per_delta", per_delta("dist.wire.decode"));
    v.set("dist.store.apply_ns_per_delta", per_delta("dist.store.apply"));
    // The live run's public counters.
    v.set("core.engine.order_rebuilds", after_trials.order_rebuilds as f64);
    v.set("core.checker.full_rebuilds", after_trials.full_rebuilds as f64);
    v.set("core.verifier.checks", live.checks as f64);
    v.set("core.verifier.fastpath_share", ratio(live.fastpath_skips as f64, live.blocks as f64));
    v.set("core.verifier.engine_lock_waits", live.engine_lock_waits as f64);
    v.set("core.verifier.combined_checks", live.combined_checks as f64);
    v.set(
        "async.executor.wakes_per_wait",
        ratio(after_trials.waker_wakes as f64, after_trials.async_waits as f64),
    );
    v.set("async.frontend.round_p50_us", stats::percentile(&latencies_us, 50.0)?);
    v.set("async.frontend.round_p99_us", stats::percentile(&latencies_us, 99.0)?);
    for (name, ms) in &kernel_ms {
        let metric = metrics::PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("workloads.kernels.solve_ms.") == Some(name))
            .expect("every kernel has a solve_ms metric");
        v.set(metric.name, *ms);
    }
    v.set("workloads.kernels.blocks_per_solve", blocks_per_solve);
    v.set("attrib.added_ns_per_op", attribution.added_ns_per_op);
    v.set("attrib.explained_share", attribution.explained_share);
    v.set("attrib.wait_ns_per_op", attribution.wait_ns_per_op);
    v.set("trace.overhead_share", overhead_share);
    v.set("contended.unchecked_ops_per_s", ops as f64 / stats::median(&unchecked_s));
    v.set("contended.checked_ops_per_s", ops as f64 / stats::median(&checked_s));

    // Spans go to disk only now, after everything has been measured.
    let file = trace_file(opts.workload);
    let written = write_trace(&file, opts, &measured.sampled);
    out.notes.push(match written {
        Ok(()) => format!("trace: {} (sampled spans of every rung)", file.display()),
        Err(why) => format!("trace not written: {why}"),
    });
    out.notes.push(format!(
        "samples: {PAIRS} paired rounds of {ops} ops, {} traced rounds, {} op latencies, \
         {} replayed deltas, clock overhead {clock_ns:.0} ns/span, mean layer self times from \
         {} spans",
        traced_s.len(),
        latencies_us.len(),
        stream.len(),
        measured.spans.values().map(|t| t.count).sum::<u64>(),
    ));
    out.attempted = live_rounds * 2 * ops + TRIALS as u64;
    Ok(out)
}

fn write_trace(
    file: &std::path::Path,
    opts: &Options,
    rungs: &[(&'static str, Value)],
) -> Result<(), String> {
    let doc = Value::Map(vec![
        ("workload".into(), Value::Str(opts.workload.name().into())),
        ("seed".into(), Value::UInt(opts.seed)),
        (
            "rungs".into(),
            Value::Map(rungs.iter().map(|(name, spans)| ((*name).into(), spans.clone())).collect()),
        ),
    ]);
    let dir = file.parent().expect("trace file has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(file, text).map_err(|e| format!("{}: {e}", file.display()))
}
