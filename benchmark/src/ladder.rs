//! The replay ladder: per-layer costs measured from outside the product.
//!
//! A checked run of the workload is captured as its delta stream (every
//! block and unblock the program published, in journal order). The stream
//! is then replayed single-threaded, one layer deeper per rung, with a
//! span around every call into a layer:
//!
//! 1. `Registry::block` / `unblock` alone;
//! 2. the same plus `IncrementalEngine::sync` after every delta;
//! 3. the same plus `check_task` after every block, and every
//!    [`EVERY`] deltas `check_full` and the canonical `checker::check`;
//! 4. `Verifier::block` / `unblock` end to end, in the workload's mode;
//! 5. the unchecked poll seam and the executor with no verifier at all;
//! 6. the same deltas in batches through the v2 codec, `MemStore`,
//!    `IncrementalDistChecker`, `TcpStore` against a loopback
//!    `StoredServer`, and a whole `Site`.
//!
//! What a deeper rung costs beyond the rungs under it is that layer's self
//! time — the ladder arithmetic at the bottom of this file.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use serde::Value;

use crate::api::{
    canonical_check, encode_frame_v2_into, merge, scoped, Delta, DeltaAck, Executor, FrameBuffer,
    IncrementalDistChecker, IncrementalEngine, JournalRead, MemStore, ModelChoice, Phaser,
    Registry, RegistryConfig, Request, Runtime, Site, SiteConfig, SiteId, Snapshot, Store,
    StoredConfig, StoredServer, SyncError, TaskCtx, TcpStore, TenantId, Verifier, VerifierConfig,
    WaitStep, DEFAULT_JOURNAL_CAPACITY, DEFAULT_SG_THRESHOLD, DEFAULT_SHARDS,
};
use crate::rig::{Mode, DETECT_PERIOD, DIST_CHECK_PERIOD, DIST_PUBLISH_PERIOD};
use crate::stats;
use crate::trace::{self, Totals, Tracer};

/// Deltas between two of the whole-graph queries (`check_full`, the
/// canonical rebuild, a registry snapshot, a dist check round).
pub const EVERY: usize = 256;
/// Deltas per publish batch on the dist rungs.
pub const BATCH: usize = 32;
/// Deltas between two reads of a lagging journal follower (a publisher
/// that wakes every few milliseconds of a busy program).
const FOLLOWER_EVERY: usize = 4096;
/// Spans of each name kept in the trace file.
const SAMPLED_PER_NAME: usize = 200;

const MODEL: ModelChoice = ModelChoice::Auto;
const THRESHOLD: usize = DEFAULT_SG_THRESHOLD;

/// Everything the rungs measured: span totals by name, plus counters —
/// those that are a per-layer metric as they stand carry its name, the
/// rest (batch sizes, group size) are the divisors the spans need.
#[derive(Default)]
pub struct Measured {
    pub spans: BTreeMap<&'static str, Totals>,
    pub counters: BTreeMap<&'static str, f64>,
    /// Sampled spans per rung, for the trace file.
    pub sampled: Vec<(&'static str, Value)>,
}

impl Measured {
    fn absorb(&mut self, rung: &'static str, tracer: &Tracer) {
        for (name, totals) in trace::totals(tracer.spans()) {
            let slot = self.spans.entry(name).or_default();
            slot.count += totals.count;
            slot.total_ns += totals.total_ns;
            slot.self_ns += totals.self_ns;
        }
        self.sampled.push((rung, trace::sampled_json(tracer.spans(), SAMPLED_PER_NAME)));
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counters.insert(name, value);
    }

    /// Mean duration of the spans called `name`, less what reading the
    /// clock twice costs.
    pub fn mean_ns(&self, name: &str, clock_ns: f64) -> f64 {
        self.spans.get(name).map_or(0.0, |t| (t.mean_ns() - clock_ns).max(0.0))
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}

fn registry_for(mode: Mode) -> Registry {
    Registry::with_config(RegistryConfig {
        journal_capacity: DEFAULT_JOURNAL_CAPACITY,
        shards: DEFAULT_SHARDS,
        // As `Verifier::new` does: only avoidance tracks awaited counts.
        track_waited: mode == Mode::Avoidance,
    })
}

fn apply(
    registry: &Registry,
    delta: &Delta,
    tracer: &mut Tracer,
    op: u32,
    names: [&'static str; 2],
) {
    match delta {
        Delta::Block(info) => {
            let info = info.clone();
            tracer.span(names[0], op, || registry.block(info));
        }
        Delta::Unblock(task) => tracer.span(names[1], op, || registry.unblock(*task)),
    }
}

/// Rung 1: the registry alone, and a lagging follower of its journal.
fn rung_deps(stream: &[Delta], mode: Mode, out: &mut Measured) {
    let registry = registry_for(mode);
    let mut tracer = Tracer::new();
    let (mut cursor, mut behind) = (0u64, 0u64);
    for (i, delta) in stream.iter().enumerate() {
        let op = i as u32;
        apply(&registry, delta, &mut tracer, op, ["core.deps.block", "core.deps.unblock"]);
        if (i + 1) % EVERY == 0 {
            tracer.span("core.deps.snapshot", op, || registry.snapshot());
        }
        if (i + 1) % FOLLOWER_EVERY == 0 {
            match registry.deltas_since(cursor) {
                JournalRead::Deltas(_, next) => cursor = next,
                JournalRead::Behind => {
                    behind += 1;
                    cursor = registry.snapshot_with_cursor().1;
                }
            }
        }
    }
    out.count("core.deps.journal_behind", behind as f64);
    out.absorb("deps", &tracer);
}

/// Rung 2: registry + engine sync after every delta.
fn rung_sync(stream: &[Delta], mode: Mode, out: &mut Measured) {
    let registry = registry_for(mode);
    let mut engine = IncrementalEngine::new();
    let mut tracer = Tracer::new();
    let (mut applied, mut resyncs) = (0u64, 0u64);
    for (i, delta) in stream.iter().enumerate() {
        let op = i as u32;
        let whole = tracer.enter("rung.sync.op", op);
        apply(&registry, delta, &mut tracer, op, ["rung.sync.block", "rung.sync.unblock"]);
        let sync = tracer.span("core.engine.sync", op, || engine.sync(&registry));
        tracer.exit(whole);
        applied += sync.deltas_applied as u64;
        resyncs += u64::from(sync.resynced);
    }
    out.count("core.engine.deltas_applied", applied as f64);
    out.count("core.engine.resyncs", resyncs as f64);
    out.absorb("sync", &tracer);
}

/// Rung 3: registry + sync + the cycle queries.
fn rung_checks(stream: &[Delta], mode: Mode, out: &mut Measured) {
    let registry = registry_for(mode);
    let mut engine = IncrementalEngine::new();
    let mut tracer = Tracer::new();
    let (mut full_checks, mut incremental) = (0u64, 0u64);
    let (mut sg_edges, mut wfg_edges) = (Vec::new(), Vec::new());
    for (i, delta) in stream.iter().enumerate() {
        let op = i as u32;
        let whole = tracer.enter("rung.checks.op", op);
        apply(&registry, delta, &mut tracer, op, ["rung.checks.block", "rung.checks.unblock"]);
        tracer.span("rung.checks.sync", op, || engine.sync(&registry));
        if let Delta::Block(info) = delta {
            let task = info.task;
            tracer.span("core.engine.check_task", op, || engine.check_task(task, MODEL, THRESHOLD));
        }
        tracer.exit(whole);
        if (i + 1) % EVERY == 0 {
            let outcome =
                tracer.span("core.engine.check_full", op, || engine.check_full(MODEL, THRESHOLD));
            full_checks += 1;
            // `check_full` answers from the maintained order unless it hits.
            incremental += u64::from(outcome.report.is_none());
            let snapshot = registry.snapshot();
            tracer
                .span("core.checker.rebuild", op, || canonical_check(&snapshot, MODEL, THRESHOLD));
            sg_edges.push(engine.sg_edge_count() as f64);
            wfg_edges.push(engine.wfg_edge_count() as f64);
        }
    }
    // What a journal resync costs with the stream's final state standing.
    let standing = registry.snapshot();
    for rep in 0..5 {
        tracer.span("core.engine.reset", rep, || engine.reset_to(&standing));
    }
    out.count("core.engine.incremental_share", ratio(incremental as f64, full_checks as f64));
    out.count("core.engine.sg_edges", mean(&sg_edges));
    out.count("core.engine.wfg_edges", mean(&wfg_edges));
    out.absorb("checks", &tracer);
}

/// The verifier configuration of a mode, as the workload's rig builds it.
fn verifier_config(mode: Mode) -> VerifierConfig {
    match mode {
        Mode::Avoidance => VerifierConfig::avoidance(),
        Mode::Detection => VerifierConfig::detection_every(DETECT_PERIOD),
        Mode::Dist => VerifierConfig::publish_only(),
    }
}

/// Rung 4: the verifier end to end.
fn rung_verifier(stream: &[Delta], mode: Mode, out: &mut Measured) {
    let verifier = Verifier::new(verifier_config(mode));
    let mut tracer = Tracer::new();
    for (i, delta) in stream.iter().enumerate() {
        let op = i as u32;
        match delta {
            Delta::Block(info) => {
                let (task, waits, registered) =
                    (info.task, info.waits.clone(), info.registered.clone());
                let verdict = tracer
                    .span("core.verifier.block", op, || verifier.block(task, waits, registered));
                debug_assert!(verdict.is_ok(), "the captured program is deadlock-free");
            }
            Delta::Unblock(task) => {
                tracer.span("core.verifier.unblock", op, || verifier.unblock(*task))
            }
        }
    }
    verifier.shutdown();
    out.absorb("verifier", &tracer);
}

struct CountingWaker;

impl Wake for CountingWaker {
    fn wake(self: Arc<Self>) {}
}

/// A future that yields to the executor once.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Rung 5: the front-ends with verification disabled — the poll seam on
/// one phaser of the workload's typical group size, and the executor's
/// spawn and task-switch costs.
fn rung_frontend(group: usize, budget: Duration, out: &mut Measured) -> Result<(), String> {
    let rt = Runtime::unchecked();
    let mut tracer = Tracer::new();
    let waker = Waker::from(Arc::new(CountingWaker));
    let seam = |e: SyncError| format!("seam rung: {e}");
    let started = Instant::now();
    let mut op = 0u32;
    while op < 3 || started.elapsed() < budget / 2 {
        let phaser = Phaser::new_unregistered(&rt);
        let tasks: Vec<Arc<TaskCtx>> = (0..group).map(|_| TaskCtx::fresh()).collect();
        for task in &tasks {
            tracer
                .span("sync.phaser.register", op, || scoped(task, || phaser.register()))
                .map_err(seam)?;
        }
        for _ in 0..8 {
            let round = tracer.enter("sync.phaser.seam_round", op);
            for task in &tasks[..group - 1] {
                let step = scoped(task, || {
                    phaser.begin_arrive_and_await()?;
                    phaser.poll_await_with_waker(&waker)
                });
                if step.map_err(seam)? != WaitStep::Pending {
                    return Err("seam rung: a wait resolved before the last arrival".into());
                }
            }
            // The last arrival resolves every parked wait under the
            // phaser's state lock.
            let last = &tasks[group - 1];
            tracer
                .span("sync.phaser.resolve", op, || {
                    scoped(last, || phaser.begin_arrive_and_await())
                })
                .map_err(seam)?;
            for task in &tasks[..group - 1] {
                if scoped(task, || phaser.poll_await()).map_err(seam)? != WaitStep::Ready {
                    return Err("seam rung: a resolved wait still reads pending".into());
                }
            }
            tracer.exit(round);
        }
        for task in &tasks {
            task.deregister_all();
        }
        op += 1;
    }
    out.count("seam_group", group as f64);

    let executor = Executor::new(1);
    let mut batch = 0u32;
    while batch < 3 || started.elapsed() < budget {
        const TASKS: usize = 5_000;
        let spawning = tracer.enter("async.executor.spawn_batch", batch);
        let handles: Vec<_> = (0..TASKS).map(|_| executor.spawn(async {})).collect();
        tracer.exit(spawning);
        for handle in handles {
            handle.join().map_err(|_| "executor rung: an empty task panicked")?;
        }
        const YIELDS: usize = 20_000;
        let switching = tracer.enter("async.executor.switch_batch", batch);
        executor
            .spawn(async {
                for _ in 0..YIELDS {
                    YieldNow(false).await;
                }
            })
            .join()
            .map_err(|_| "executor rung: the yielding task panicked")?;
        tracer.exit(switching);
        out.count("spawn_batch", TASKS as f64);
        out.count("switch_batch", YIELDS as f64);
        batch += 1;
    }
    out.absorb("frontend", &tracer);
    Ok(())
}

fn loopback_server() -> Result<StoredServer, String> {
    StoredServer::bind(
        "127.0.0.1:0",
        StoredConfig { check_period: DIST_CHECK_PERIOD, ..StoredConfig::default() },
    )
    .map_err(|e| format!("bind loopback server: {e}"))
}

fn applied(ack: Result<DeltaAck, impl std::fmt::Display>, what: &str) -> Result<(), String> {
    match ack {
        Ok(DeltaAck::Applied) => Ok(()),
        Ok(DeltaAck::NeedSnapshot) => Err(format!("{what}: the store asked for a snapshot")),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Rung 6: the dist layers, fed the same deltas in batches.
fn rung_dist(stream: &[Delta], out: &mut Measured) -> Result<(), String> {
    let site = SiteId(0);
    fn store_err(e: impl std::fmt::Display) -> String {
        format!("dist rung: {e}")
    }
    let mut tracer = Tracer::new();

    // Codec and in-process store, with the incremental checker reading
    // the store every EVERY deltas.
    let mem = MemStore::new();
    mem.publish_full(site, Snapshot::empty(), 0).map_err(store_err)?;
    let mut checker = IncrementalDistChecker::new();
    let mut frames = FrameBuffer::new();
    let mut buf = Vec::new();
    let (mut bytes, mut base) = (0usize, 0u64);
    for (b, batch) in stream.chunks(BATCH).enumerate() {
        let op = b as u32;
        let next = base + batch.len() as u64;
        let request = Request::PublishDeltas {
            site,
            tenant: TenantId::DEFAULT,
            base,
            deltas: batch.to_vec(),
            next,
        };
        buf.clear();
        tracer
            .span("dist.wire.encode", op, || encode_frame_v2_into(&mut buf, op.into(), &request))
            .map_err(|e| format!("encode: {e}"))?;
        bytes += buf.len();
        let decoded = tracer.span("dist.wire.decode", op, || {
            frames.feed(&buf);
            frames.next_frame::<Request>()
        });
        if !matches!(decoded, Ok(Some(ref frame)) if frame.msg == request) {
            return Err("dist rung: a frame did not decode to what was encoded".into());
        }
        applied(
            tracer.span("dist.store.apply", op, || mem.publish_deltas(site, base, batch, next)),
            "MemStore::publish_deltas",
        )?;
        base = next;
        if (b + 1) % (EVERY / BATCH) == 0 {
            let round = tracer
                .span("dist.detector.round", op, || checker.check_round(&mem, MODEL, THRESHOLD));
            if round.map_err(store_err)?.report.is_some() {
                return Err("dist rung: the deadlock-free stream produced a report".into());
            }
            let view = mem.fetch_all().map_err(store_err)?;
            tracer.span("dist.detector.merge", op, || merge(&view));
        }
    }
    let standing = mem.fetch_all().map_err(store_err)?.into_iter().next().map(|(_, s)| s);
    let standing = standing.unwrap_or_else(Snapshot::empty);
    for rep in 0..20 {
        tracer.span("dist.store.fetch_all", rep, || mem.fetch_all()).map_err(store_err)?;
        let copy = standing.clone();
        tracer
            .span("dist.store.publish_full", rep, || mem.publish_full(SiteId(1), copy, 0))
            .map_err(store_err)?;
    }
    let checked = checker.stats();
    out.count("batch_deltas", stream.len() as f64);
    out.count("dist.wire.bytes_per_delta", ratio(bytes as f64, stream.len() as f64));
    out.count("dist.detector.confirm_fetches", checked.confirm_fetches as f64);
    out.count(
        "dist.detector.incremental_share",
        ratio(checked.incremental_detections as f64, checked.rounds as f64),
    );

    // The same batches over loopback TCP.
    let server = loopback_server()?;
    let tcp = Arc::new(TcpStore::new(server.local_addr().to_string()));
    tcp.publish_full(site, Snapshot::empty(), 0).map_err(store_err)?;
    let (mut publish_us, mut fetch_us) = (Vec::new(), Vec::new());
    let mut base = 0u64;
    // A p99 needs a thousand round trips; a short stream goes round again
    // (its deltas are per-task upserts, so a replay stays consistent).
    while publish_us.len() < 1_100 {
        for batch in stream.chunks(BATCH) {
            let next = base + batch.len() as u64;
            let op = publish_us.len() as u32;
            let t0 = Instant::now();
            let ack =
                tracer.span("dist.tcp.publish", op, || tcp.publish_deltas(site, base, batch, next));
            publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
            applied(ack, "TcpStore::publish_deltas")?;
            base = next;
        }
    }
    for rep in 0..200 {
        let t0 = Instant::now();
        tracer.span("dist.tcp.fetch_all", rep, || tcp.fetch_all()).map_err(store_err)?;
        fetch_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    tcp.remove(site).map_err(store_err)?;
    out.count("dist.tcp.publish_rtt_p50_us", stats::median(&publish_us));
    out.count("dist.tcp.publish_rtt_p99_us", stats::percentile(&publish_us, 99.0)?);
    out.count("dist.tcp.fetch_rtt_p50_us", stats::median(&fetch_us));

    // A whole site: the stream through its publish-only verifier, shipped
    // by its publisher and watched by its checker.
    let cfg = SiteConfig {
        publish_period: DIST_PUBLISH_PERIOD,
        check_period: DIST_CHECK_PERIOD,
        ..SiteConfig::default()
    };
    let whole = Site::start(SiteId(2), Arc::clone(&tcp) as Arc<dyn Store>, cfg);
    let verifier = Arc::clone(whole.runtime().verifier());
    for delta in stream {
        match delta {
            Delta::Block(info) => verifier
                .block(info.task, info.waits.clone(), info.registered.clone())
                .map_err(|e| format!("publish-only block refused: {e}"))?,
            Delta::Unblock(task) => verifier.unblock(*task),
        }
    }
    // Until the checker has looked twice at what the publisher shipped.
    let rounds = whole.checker_stats().rounds;
    let deadline = Instant::now() + Duration::from_secs(2);
    while whole.checker_stats().rounds < rounds + 2 && Instant::now() < deadline {
        std::thread::sleep(DIST_PUBLISH_PERIOD);
    }
    if whole.found_deadlock() {
        return Err("dist rung: the site reported on a deadlock-free stream".into());
    }
    out.count("dist.site.publish_resyncs", whole.publish_resyncs() as f64);
    whole.stop();
    out.count("dist.tcp.frames_per_flush", ratio(tcp.frames_sent() as f64, tcp.flushes() as f64));
    out.count("dist.tcp.failures", tcp.failures() as f64);
    out.count("dist.server.served", server.served() as f64);
    out.count("dist.server.protocol_errors", server.protocol_errors() as f64);
    out.count("dist.server.reply_queue_max", server.metrics().reply_queue_max as f64);
    drop(tcp);
    server.shutdown();
    out.absorb("dist", &tracer);
    Ok(())
}

/// Replays `stream` up every rung. `budget` bounds the rungs that repeat
/// until told to stop; the replay rungs each take one pass.
pub fn climb(
    stream: &[Delta],
    mode: Mode,
    group: usize,
    budget: Duration,
) -> Result<Measured, String> {
    let mut out = Measured::default();
    rung_deps(stream, mode, &mut out);
    rung_sync(stream, mode, &mut out);
    rung_checks(stream, mode, &mut out);
    rung_verifier(stream, mode, &mut out);
    rung_frontend(group, budget, &mut out)?;
    rung_dist(stream, &mut out)?;
    Ok(out)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Single-threaded cost of the layers one blocking operation crosses, as
/// the rungs measured them (clock overhead already removed).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerCosts {
    pub deps_block_ns: f64,
    pub deps_unblock_ns: f64,
    pub sync_ns_per_delta: f64,
    /// Deltas the stream holds per block: a block's check syncs its own
    /// delta and the unblocks journaled since the previous check.
    pub deltas_per_block: f64,
    pub check_task_ns: f64,
    pub verifier_block_ns: f64,
    pub verifier_unblock_ns: f64,
}

impl LayerCosts {
    /// What `Verifier::block` costs beyond the layers it calls: in
    /// avoidance it publishes, syncs the engine (its own delta and the
    /// unblocks since the last check) and checks the task; in the other
    /// modes the hot path only publishes.
    pub fn verifier_self_ns(&self, mode: Mode) -> f64 {
        let children = match mode {
            Mode::Avoidance => {
                self.deps_block_ns
                    + self.deltas_per_block * self.sync_ns_per_delta
                    + self.check_task_ns
            }
            Mode::Detection | Mode::Dist => self.deps_block_ns,
        };
        (self.verifier_block_ns - children).max(0.0)
    }

    /// Verifier time one operation of the program costs on one thread:
    /// the share of operations that block, times a block and its unblock.
    pub fn explained_ns_per_op(&self, blocks_per_op: f64) -> f64 {
        blocks_per_op * (self.verifier_block_ns + self.verifier_unblock_ns)
    }
}

/// The attribution of the checked-minus-unchecked time of one operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Attribution {
    pub added_ns_per_op: f64,
    pub explained_share: f64,
    /// What the single-threaded layer costs do not explain: waiting (for
    /// the engine lock, for a combiner, for a core) and unmeasured steps.
    pub wait_ns_per_op: f64,
}

pub fn attribute(
    checked_s: f64,
    unchecked_s: f64,
    ops: u64,
    costs: &LayerCosts,
    blocks_per_op: f64,
) -> Attribution {
    let added_ns_per_op = (checked_s - unchecked_s) * 1e9 / ops as f64;
    let explained = costs.explained_ns_per_op(blocks_per_op);
    Attribution {
        added_ns_per_op,
        explained_share: ratio(explained, added_ns_per_op),
        wait_ns_per_op: added_ns_per_op - explained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COSTS: LayerCosts = LayerCosts {
        deps_block_ns: 200.0,
        deps_unblock_ns: 150.0,
        sync_ns_per_delta: 450.0,
        deltas_per_block: 2.0,
        check_task_ns: 1_400.0,
        verifier_block_ns: 3_000.0,
        verifier_unblock_ns: 250.0,
    };

    #[test]
    fn verifier_self_time_is_the_rung_minus_the_rungs_under_it() {
        assert_eq!(COSTS.verifier_self_ns(Mode::Avoidance), 3_000.0 - 200.0 - 900.0 - 1_400.0);
        // Detection and publish-only hot paths only publish.
        assert_eq!(COSTS.verifier_self_ns(Mode::Detection), 2_800.0);
        assert_eq!(COSTS.verifier_self_ns(Mode::Dist), 2_800.0);
        // A rung can never cost less than nothing.
        let cheap = LayerCosts { verifier_block_ns: 100.0, ..COSTS };
        assert_eq!(cheap.verifier_self_ns(Mode::Avoidance), 0.0);
    }

    #[test]
    fn attribution_splits_the_added_time() {
        // 1 s checked, 0.2 s unchecked over 100k ops: 8 µs added per op;
        // 90 % of ops block, each paying a block and an unblock.
        let a = attribute(1.0, 0.2, 100_000, &COSTS, 0.9);
        assert!((a.added_ns_per_op - 8_000.0).abs() < 1e-6);
        let explained = 0.9 * 3_250.0;
        assert!((a.explained_share - explained / 8_000.0).abs() < 1e-12);
        assert!((a.wait_ns_per_op - (8_000.0 - explained)).abs() < 1e-6);
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn the_ladder_climbs_a_small_stream() {
        use crate::api::{BlockedInfo, PhaserId, Registration, Resource, TaskId};
        // Two tasks stepping one barrier: each blocks and is released.
        let (p, mut stream) = (PhaserId::fresh(), Vec::new());
        for phase in 1..=40u64 {
            let task = TaskId::fresh();
            let info = BlockedInfo::new(
                task,
                vec![Resource::new(p, phase)],
                vec![Registration::new(p, phase)],
            );
            stream.push(Delta::Block(info));
            stream.push(Delta::Unblock(task));
        }
        let mut out = Measured::default();
        rung_deps(&stream, Mode::Avoidance, &mut out);
        rung_sync(&stream, Mode::Avoidance, &mut out);
        rung_checks(&stream, Mode::Avoidance, &mut out);
        rung_verifier(&stream, Mode::Avoidance, &mut out);
        assert_eq!(out.spans["core.deps.block"].count, 40);
        assert_eq!(out.spans["core.deps.unblock"].count, 40);
        assert_eq!(out.spans["core.engine.sync"].count, 80);
        assert_eq!(out.counter("core.engine.deltas_applied"), 80.0);
        assert_eq!(out.spans["core.engine.check_task"].count, 40);
        assert_eq!(out.spans["core.verifier.block"].count, 40);
        // The per-op span covers its children.
        let op = out.spans["rung.sync.op"];
        assert!(op.total_ns >= out.spans["core.engine.sync"].total_ns);
        assert!(op.self_ns <= op.total_ns);
    }
}
