//! The Armus verification engine (paper §5.1): a blocked-task registry, a
//! deadlock checker, and the two verification modes.
//!
//! * **Avoidance**: each blocking operation first publishes its blocked
//!   status and runs a check; if the block would complete a cycle the
//!   operation is interrupted with a [`DeadlockError`] instead of blocking.
//! * **Detection**: blocking operations only publish their status; a
//!   dedicated monitor thread runs the check — at once for a block that
//!   finds it idle, once a period while the program keeps publishing, a
//!   quiet interval after it stops, not at all while nothing new was
//!   published (see [`VerifyMode::Detection`]) — and
//!   *confirms* any cycle against per-task blocking epochs before
//!   reporting (sampling is racy; a task may have unblocked since the
//!   check looked).
//!
//! Both modes check against the [`IncrementalEngine`]'s persistently
//! maintained graph: a check consumes only the registry's journal deltas
//! since the previous check instead of cloning the registry and rebuilding
//! from scratch, so its cost tracks the *churn* since the last check, not
//! the number of blocked tasks. The engine maintains only the structures
//! this verifier's checks read — the adjacency of the model the §5.1 rule
//! selects, plus (detection only) that model's topological order — so the
//! per-delta work under the engine lock is bounded by the selected model,
//! not by the larger one.
//!
//! A third mode, [`VerifyMode::PublishOnly`], publishes like detection and
//! checks nothing: a distributed site's checker (§5.2) merges what it
//! publishes, and a program proved deadlock-free before it ran (e.g. by
//! `armus_pl::analysis`) needs no check of its own. A proof buys that
//! mode; it is not a switch inside avoidance, so every avoidance block is
//! answered one of two ways: a check or a fast-path skip
//! (`checks + fastpath_skips == blocks`).
//!
//! The avoidance hot path scales across cores by the fast path plus a
//! plain lock:
//!
//! * **In-edge fast path.** A block can close a cycle only if some
//!   blocked task waits on an event the new status impedes — the new
//!   node's in-edge in the WFG (a self-impeding wait is its own). The
//!   registry answers that test in the same hold as the block's publish
//!   (`Registry::block_with_in_edge`, the ordering argument is there);
//!   a block with no in-edge is a source, so it takes no check. In a
//!   barrier program the task that just blocked almost never has anybody
//!   waiting behind it, so nearly every avoidance block is answered here.
//!   A skipped block still catches the engine up if the engine lock is
//!   free (`try_lock`), and otherwise leaves its delta to the next sync:
//!   the block that does close a cycle then pays for its own sync, not for
//!   the journal backlog and adjacency rebuild of every skip before it.
//! * **One engine lock, held for one check.** Every other blocker takes
//!   the engine lock for its own journal sync and cycle query and nothing
//!   more; one that finds the lock held counts the wait
//!   ([`StatsSnapshot::engine_lock_waits`]) and waits on the lock itself,
//!   woken by the holder's release — no queue, no spin, no clock. A flat
//!   combiner, in which the holder also served the checks queued behind
//!   it, measured no better on a 2-core host: at one worker no check
//!   found the lock held on any avoidance workload, and at two workers
//!   the benchmark's checked throughput with this plain lock was level
//!   with it (medians over ten alternating 12 s pairs: `stencil-avoid`
//!   161 k against 156 k op/s, `fanin-avoid` 99 k against 105 k; each
//!   gap smaller than the distance between the combiner's own quartiles,
//!   and neither side ahead in nine pairs of ten).
//!
//! Reports are retained for inspection and forwarded to subscribers (the
//! runtime layer uses a subscriber to implement deadlock *recovery*).
//! Subscriber callbacks run on a snapshot of the subscriber list, outside
//! the list lock, so a callback may itself subscribe, probe, or otherwise
//! re-enter the verifier without self-deadlocking.

use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::adaptive::{ModelChoice, DEFAULT_SG_THRESHOLD};
use crate::checker::{self, CheckOutcome, DeadlockReport, ReportDedup};
use crate::deps::{BlockedInfo, JournalRead, Registry, Snapshot};
use crate::engine::{IncrementalEngine, SyncOutcome};
use crate::error::DeadlockError;
use crate::ids::TaskId;
use crate::pace::{Pace, Pacer, Signal};
use crate::resource::{Registration, Resource};
use crate::stats::{StatsCollector, StatsSnapshot};
use crate::window::Window;

/// Verification mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// No verification: blocking operations pay nothing.
    Disabled,
    /// Check before every block; raise [`DeadlockError`] instead of
    /// deadlocking.
    Avoidance,
    /// Publish blocked status; a monitor thread checks. The monitor is
    /// paced by what is published, with the paper's sampling period as the
    /// bound: while blocks and unblocks keep flowing it checks once a
    /// `period`, so that is the longest a standing cycle waits for its
    /// report; once they stop — which is what a deadlock looks like — it
    /// checks one *quiet interval* (`period / 16`) after the last of them;
    /// a block that finds it idle — nothing new since its last check, a
    /// quiet interval or more ago — it checks at once, so the block that
    /// closes a cycle in a program gone still is reported as it lands; and
    /// while nothing new has been published it does not check at all.
    Detection {
        /// Sampling period of the monitor thread (paper: 100 ms locally,
        /// 200 ms distributed).
        period: Duration,
    },
    /// Maintain the blocked-status registry but run no checks: the
    /// distributed layer periodically pulls [`Verifier::local_snapshot`]
    /// as this site's partition of the global resource-dependency
    /// (paper §5.2) and checks the merged view itself.
    ///
    /// This is also the mode a whole-program proof of deadlock-freedom
    /// buys (`armus_pl::analysis`'s `ProvedSafe`): peers and distributed
    /// checkers still see every block, and no check runs. Nothing here
    /// second-guesses the proof; a wrong one is caught only by a follower
    /// — a distributed checker, or [`Verifier::check_now`]. A caller that
    /// wants nothing published picks [`VerifyMode::Disabled`].
    PublishOnly,
}

/// Most deadlock reports a verifier, a site, or a watched tenant retains.
pub const REPORT_CAPACITY: usize = 256;

/// Verifier configuration.
#[derive(Clone, Copy, Debug)]
pub struct VerifierConfig {
    /// Verification mode.
    pub mode: VerifyMode,
    /// Graph-model selection.
    pub model: ModelChoice,
    /// Journal window of the underlying registry. Small values force the
    /// engine's `Behind`/resync branch deterministically (testkit hook).
    pub journal_capacity: usize,
    /// Whether avoidance uses the in-edge fast path. Off, a block with no
    /// in-edge runs a full engine check like any other — used by the
    /// differential testkit to exercise both code paths.
    pub fastpath: bool,
}

impl VerifierConfig {
    fn with_mode(mode: VerifyMode) -> Self {
        VerifierConfig {
            mode,
            model: ModelChoice::Auto,
            journal_capacity: crate::deps::DEFAULT_JOURNAL_CAPACITY,
            fastpath: true,
        }
    }

    /// Disabled verification.
    pub fn disabled() -> Self {
        Self::with_mode(VerifyMode::Disabled)
    }

    /// Avoidance with the adaptive model.
    pub fn avoidance() -> Self {
        Self::with_mode(VerifyMode::Avoidance)
    }

    /// Detection with the paper's local default period (100 ms).
    pub fn detection() -> Self {
        Self::detection_every(Duration::from_millis(100))
    }

    /// Detection with an explicit period: the longest a standing cycle
    /// waits for its report while the program keeps publishing. A cycle
    /// that leaves the program quiescent is reported `period / 16` after
    /// its last block, and an idle program is not checked (see
    /// [`VerifyMode::Detection`]).
    pub fn detection_every(period: Duration) -> Self {
        Self::with_mode(VerifyMode::Detection { period })
    }

    /// Publish-only: maintain the registry for an external (distributed)
    /// checker.
    pub fn publish_only() -> Self {
        Self::with_mode(VerifyMode::PublishOnly)
    }

    /// Overrides the graph model.
    pub fn with_model(mut self, model: ModelChoice) -> Self {
        self.model = model;
        self
    }

    /// Overrides the registry's journal window (deterministic-resync hook).
    pub fn with_journal_capacity(mut self, capacity: usize) -> Self {
        self.journal_capacity = capacity;
        self
    }

    /// Enables or disables the avoidance in-edge fast path.
    pub fn with_fastpath(mut self, fastpath: bool) -> Self {
        self.fastpath = fastpath;
        self
    }
}

type Subscriber = Arc<dyn Fn(&DeadlockReport) + Send + Sync>;

/// The verification engine. Cheap to share (`Arc`); one per runtime or per
/// distributed site.
pub struct Verifier {
    cfg: VerifierConfig,
    registry: Registry,
    engine: Mutex<IncrementalEngine>,
    stats: StatsCollector,
    reports: Mutex<Window<DeadlockReport>>,
    reported: Mutex<ReportDedup>,
    subscribers: Mutex<Vec<Subscriber>>,
    signal: Arc<Signal>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Verifier {
    /// Creates a verifier; in detection mode this spawns the monitor
    /// thread, which stops when the last user `Arc` is dropped or
    /// [`Verifier::shutdown`] is called.
    pub fn new(cfg: VerifierConfig) -> Arc<Verifier> {
        let quiet = match cfg.mode {
            VerifyMode::Detection { period } => period / Pacer::QUIET_SHARE,
            _ => Duration::ZERO,
        };
        Verifier::with_quiet_interval(cfg, quiet)
    }

    /// [`Verifier::new`] with the monitor's quiet interval given instead
    /// of derived from the period: the handshake stress test parks the
    /// monitor for an hour and cannot wait minutes for each verdict.
    fn with_quiet_interval(cfg: VerifierConfig, quiet: Duration) -> Arc<Verifier> {
        // Only the avoidance fast path reads the waiter index; other modes
        // skip that bookkeeping on every block/unblock.
        let track_waited = cfg.mode == VerifyMode::Avoidance && cfg.fastpath;
        let v = Arc::new(Verifier {
            cfg,
            registry: Registry::with_config(crate::deps::RegistryConfig {
                journal_capacity: cfg.journal_capacity,
                track_waited,
                ..Default::default()
            }),
            engine: Mutex::new(IncrementalEngine::new()),
            stats: StatsCollector::new(),
            reports: Mutex::new(Window::new(REPORT_CAPACITY)),
            reported: Mutex::new(ReportDedup::new()),
            subscribers: Mutex::new(Vec::new()),
            signal: Arc::default(),
            monitor: Mutex::new(None),
        });
        if let VerifyMode::Detection { period } = cfg.mode {
            let weak: Weak<Verifier> = Arc::downgrade(&v);
            let signal = Arc::clone(&v.signal);
            let pacer = Pacer::new(period, quiet, Instant::now());
            let handle = std::thread::Builder::new()
                .name("armus-monitor".into())
                .spawn(move || monitor_loop(weak, signal, pacer))
                .expect("spawn armus monitor");
            *v.monitor.lock() = Some(handle);
        }
        v
    }

    /// The configuration this verifier runs with.
    pub fn config(&self) -> &VerifierConfig {
        &self.cfg
    }

    /// Is verification enabled at all?
    pub fn is_enabled(&self) -> bool {
        self.cfg.mode != VerifyMode::Disabled
    }

    /// Publishes the blocked status of a task that is about to block on
    /// `waits`, being registered at the given local phases.
    ///
    /// In avoidance mode this runs the pre-block check: on a deadlock the
    /// status is withdrawn and `Err` returned — the caller must *not*
    /// block and should deregister the task from the phaser it targeted.
    pub fn block(
        &self,
        task: TaskId,
        waits: Vec<Resource>,
        registered: Vec<Registration>,
    ) -> Result<(), DeadlockError> {
        match self.cfg.mode {
            VerifyMode::Disabled => Ok(()),
            VerifyMode::Detection { .. } | VerifyMode::PublishOnly => {
                self.stats.record_block();
                self.registry.block(BlockedInfo::new(task, waits, registered));
                // Only a block can close a cycle, so only a block wakes an
                // idle follower: the monitor, or whoever parked on a
                // publish-only verifier's [`Verifier::signal`].
                self.signal.wake_if_parked();
                Ok(())
            }
            VerifyMode::Avoidance => {
                self.stats.record_block();
                let info = BlockedInfo::new(task, waits, registered);
                // In-edge fast path (module docs). Without the fast path the
                // registry keeps no index and every block reads "in-edge".
                let (_, in_edge) = self.registry.block_with_in_edge(info);
                if !in_edge {
                    self.stats.record_fastpath_skip();
                    if let Some(mut engine) = self.engine.try_lock() {
                        self.sync_engine(&mut engine);
                        self.stats.mirror_engine(engine.counters());
                    }
                    return Ok(());
                }
                // Slow path: check through the maintained graph — no
                // registry clone, no from-scratch rebuild.
                let outcome = self.locked_check(task);
                self.stats.record_check(&outcome.stats);
                if outcome.report.is_some() {
                    self.stats.record_full_rebuild();
                }
                match outcome.report {
                    None => Ok(()),
                    Some(report) => {
                        self.registry.unblock(task);
                        self.deliver(report.clone());
                        Err(DeadlockError { report })
                    }
                }
            }
        }
    }

    /// Runs the avoidance check for `task` under the engine lock: one
    /// journal sync, one cycle query through `task`. A blocker that finds
    /// the lock held counts the wait and queues on the lock itself; the
    /// holder's release is what wakes it.
    fn locked_check(&self, task: TaskId) -> CheckOutcome {
        let mut engine = self.engine.try_lock().unwrap_or_else(|| {
            self.stats.record_engine_lock_wait();
            self.engine.lock()
        });
        self.sync_engine(&mut engine);
        let outcome = engine.check_task(task, self.cfg.model, DEFAULT_SG_THRESHOLD);
        self.stats.mirror_engine(engine.counters());
        outcome
    }

    /// Syncs the engine with the registry, recording the delta/resync
    /// stats.
    fn sync_engine(&self, engine: &mut IncrementalEngine) {
        let sync = engine.sync(&self.registry);
        self.stats.record_sync(sync.deltas_applied, sync.resynced);
    }

    /// Withdraws the blocked status of `task` (it resumed or aborted).
    pub fn unblock(&self, task: TaskId) {
        if self.cfg.mode != VerifyMode::Disabled {
            self.stats.record_unblock();
            self.registry.unblock(task);
        }
    }

    /// Runs a detection check right now (also used by the monitor thread).
    /// Returns the confirmed report, if any. The check consumes only the
    /// journal deltas since the previous one.
    pub fn check_now(&self) -> Option<DeadlockReport> {
        let outcome = {
            let mut engine = self.engine.lock();
            // Synced even when nothing is blocked: the engine's cursor
            // keeps moving, so a burst after a long idle stretch does not
            // force a resync.
            self.sync_engine(&mut engine);
            // "Nothing blocked" by the engine's own, just-synced count:
            // the registry's trails a publisher's journal append, and the
            // monitor does not look again until something new is published.
            let outcome = (engine.blocked() > 0).then(|| {
                let det = engine.check_full_detailed(self.cfg.model, DEFAULT_SG_THRESHOLD);
                if det.incremental {
                    self.stats.record_incremental_detection();
                }
                det.outcome
            });
            // Publish what the section's sync and check built, retired
            // and rebuilt (`model_builds` / `model_retires` /
            // `order_rebuilds`).
            self.stats.mirror_engine(engine.counters());
            outcome
        }?;
        self.stats.record_check(&outcome.stats);
        let report = outcome.report?;
        self.stats.record_full_rebuild();
        // Confirmation pass: every task in the cycle must still be in the
        // blocking operation (same epoch) we observed. Tasks in a real
        // deadlock can never unblock, so re-reading is conclusive.
        let confirmed =
            report.task_epochs.iter().all(|&(task, epoch)| self.registry.confirm(task, epoch));
        if !confirmed {
            return None;
        }
        if self.mark_reported(&report.tasks) {
            self.deliver(report.clone());
            Some(report)
        } else {
            None
        }
    }

    /// Runs a full (non-avoidance) check over the current state regardless
    /// of mode; does not record or deliver reports. Useful for tests and
    /// for final "post-mortem" checks.
    pub fn probe(&self) -> Option<DeadlockReport> {
        let snapshot = self.registry.snapshot();
        checker::check(&snapshot, self.cfg.model, DEFAULT_SG_THRESHOLD).report
    }

    /// A copy of the current blocked-task snapshot (used by distributed
    /// sites to publish their partition).
    pub fn local_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Syncs an *external* engine against this verifier's registry — the
    /// differential testkit keeps a follower engine in per-step lockstep
    /// this way, without touching the verifier's own engine, lock, or
    /// stats (so the verifier's journal/resync behaviour under test is
    /// not perturbed by being observed).
    pub fn sync_follower(&self, engine: &mut IncrementalEngine) -> SyncOutcome {
        engine.sync(&self.registry)
    }

    /// The journal head: the cursor a consumer that has read every delta
    /// would hold. With [`Verifier::signal`], what a follower of a
    /// publish-only verifier paces itself by (a distributed site's
    /// publisher does).
    pub fn journal_head(&self) -> u64 {
        self.registry.journal_cursor()
    }

    /// The signal every [`Verifier::block`] wakes (when someone is parked
    /// on it) and [`Verifier::shutdown`] — or dropping the verifier —
    /// stops. It carries one follower: in detection mode that is the
    /// monitor; a publish-only verifier has none of its own, and the one
    /// thread that follows it parks here between looks at
    /// [`Verifier::journal_head`].
    pub fn signal(&self) -> &Arc<Signal> {
        &self.signal
    }

    /// The registry's journal deltas since `cursor` (used by distributed
    /// sites to publish their partition incrementally).
    pub fn deltas_since(&self, cursor: u64) -> JournalRead {
        self.registry.deltas_since(cursor)
    }

    /// The registry's journal deltas since `cursor`, netted to each task's
    /// last (see [`Registry::net_deltas_since`]): what a distributed
    /// site's publisher ships.
    pub fn net_deltas_since(&self, cursor: u64) -> JournalRead {
        self.registry.net_deltas_since(cursor)
    }

    /// A full snapshot paired with a journal cursor, for delta consumers
    /// joining or recovering (see [`Registry::snapshot_with_cursor`]).
    pub fn snapshot_with_cursor(&self) -> (Snapshot, u64) {
        self.registry.snapshot_with_cursor()
    }

    /// The current blocked status of one task (`O(1)`; no registry copy).
    pub fn blocked_info(&self, task: TaskId) -> Option<BlockedInfo> {
        self.registry.get(task)
    }

    /// Registers a subscriber invoked on every delivered report.
    pub fn subscribe(&self, f: impl Fn(&DeadlockReport) + Send + Sync + 'static) {
        self.subscribers.lock().push(Arc::new(f));
    }

    /// Drains the reports since the last `take_reports`: the newest
    /// [`REPORT_CAPACITY`] at most (all count in [`StatsSnapshot::deadlocks`]).
    pub fn take_reports(&self) -> Vec<DeadlockReport> {
        std::mem::replace(&mut *self.reports.lock(), Window::new(REPORT_CAPACITY)).into_vec()
    }

    /// Has a deadlock been reported since the last `take_reports`?
    pub fn found_deadlock(&self) -> bool {
        !self.reports.lock().is_empty()
    }

    /// Verification statistics so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Records a wait parking a waker with a phaser's wait machine — a
    /// future's or a blocked thread's. Counted by the phaser, not by
    /// `block`, so disabled verifiers still observe parked waits.
    pub fn note_async_wait(&self) {
        self.stats.record_async_wait();
    }

    /// Records `n` parked waits woken by a fate-resolving event.
    pub fn note_waker_wakes(&self, n: u64) {
        self.stats.record_waker_wakes(n);
    }

    /// Stops the monitor thread — or whoever follows a publish-only
    /// verifier through [`Verifier::signal`] (idempotent). Dropping every
    /// user `Arc` has the same effect.
    pub fn shutdown(&self) {
        self.signal.stop();
        if let Some(handle) = self.monitor.lock().take() {
            if std::thread::current().id() != handle.thread().id() {
                let _ = handle.join();
            }
        }
    }

    fn deliver(&self, report: DeadlockReport) {
        self.stats.record_deadlock();
        // Retain before notifying: subscribers wake interrupted victims,
        // which may immediately call `take_reports` and must see this one.
        self.reports.lock().push(report.clone());
        // Snapshot the subscriber list before invoking: a callback that
        // re-enters the verifier (subscribes, probes, reads reports) must
        // not find the subscriber lock already held by its own thread.
        let subscribers: Vec<Subscriber> = self.subscribers.lock().clone();
        for sub in subscribers {
            sub(&report);
        }
    }

    /// Deduplicates detection reports by participating task set (bounded
    /// LRU — see [`ReportDedup`]). Returns true when this task set has
    /// not been reported recently.
    fn mark_reported(&self, tasks: &[TaskId]) -> bool {
        self.reported.lock().is_new_set(tasks)
    }
}

impl Drop for Verifier {
    fn drop(&mut self) {
        self.signal.stop();
    }
}

fn monitor_loop(weak: Weak<Verifier>, signal: Arc<Signal>, mut pacer: Pacer) {
    // The verifier is held only to look and to check, never across a wait:
    // dropping the last user `Arc` must be able to wake and stop the monitor.
    let journal_head = || weak.upgrade().map(|v| v.journal_head());
    while let Some(head) = journal_head() {
        let stop = match pacer.decide(head, Instant::now()) {
            Pace::Check => {
                if let Some(v) = weak.upgrade() {
                    let _ = v.check_now();
                }
                pacer.checked(head, Instant::now());
                signal.wait(Duration::ZERO)
            }
            Pace::Nap(left) => signal.wait(left),
            // The period bounds the wait: an unblock does not wake the
            // monitor, but the engine should not fall a journal window
            // behind while the program only unblocks.
            Pace::Park => signal.park(|| journal_head() == Some(head), pacer.period()),
        };
        if stop {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PhaserId;
    use std::sync::atomic::Ordering;

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }
    fn r(ph: u64, n: u64) -> Resource {
        Resource::new(p(ph), n)
    }

    /// The paper's running-example dependency shape, published by hand:
    /// three workers stuck on pc@1 (impeded by the driver), driver stuck on
    /// pb@1 (impeded by the workers).
    fn publish_example_deadlock(v: &Verifier) {
        for i in 1..=3 {
            v.block(
                t(i),
                vec![r(1, 1)],
                vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
            )
            .unwrap();
        }
        // Driver: this one closes the cycle.
        let _ = v.block(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        );
    }

    #[test]
    fn disabled_mode_costs_and_stores_nothing() {
        let v = Verifier::new(VerifierConfig::disabled());
        publish_example_deadlock(&v);
        assert_eq!(v.local_snapshot().len(), 0);
        assert!(v.check_now().is_none());
        assert_eq!(v.stats().blocks, 0);
    }

    #[test]
    fn avoidance_raises_on_the_closing_block() {
        let v = Verifier::new(VerifierConfig::avoidance());
        for i in 1..=3 {
            v.block(
                t(i),
                vec![r(1, 1)],
                vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
            )
            .expect("workers alone do not deadlock");
        }
        let err = v
            .block(
                t(4),
                vec![r(2, 1)],
                vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
            )
            .expect_err("the driver's block completes the cycle");
        assert!(err.report.tasks.contains(&t(4)));
        // The failed block was withdrawn from the registry.
        assert_eq!(v.local_snapshot().len(), 3);
        assert!(v.found_deadlock());
    }

    #[test]
    fn refused_blocks_retain_at_most_the_report_capacity_newest_last() {
        const REFUSED: u64 = REPORT_CAPACITY as u64 + 1_000;
        let v = Verifier::new(VerifierConfig::avoidance());
        v.block(t(1), vec![r(1, 1)], vec![Registration::new(p(1), 1), Registration::new(p(2), 0)])
            .expect("one task alone does not deadlock");
        // A program that handles every `DeadlockError` and carries on: the
        // same two-task cycle, refused to a fresh task each time.
        for i in 0..REFUSED {
            v.block(
                t(2 + i),
                vec![r(2, 1)],
                vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
            )
            .expect_err("the crossed wait closes the cycle");
        }
        assert_eq!(v.stats().deadlocks, REFUSED, "every refusal is counted");
        let reports = v.take_reports();
        assert!(reports.len() <= REPORT_CAPACITY, "{} reports retained", reports.len());
        assert_eq!(reports.last().expect("the newest is kept").tasks, vec![t(1), t(1 + REFUSED)]);
        assert!(!v.found_deadlock(), "nothing since the take");
    }

    #[test]
    fn detection_finds_and_confirms() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_millis(5)));
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        v.subscribe(move |_| {
            let _ = tx.lock().send(());
        });
        publish_example_deadlock(&v);
        rx.recv_timeout(Duration::from_secs(5)).expect("the monitor never reported");
        let reports = v.take_reports();
        assert_eq!(reports.len(), 1, "deduplicated to one report");
        assert_eq!(reports[0].tasks, vec![t(1), t(2), t(3), t(4)]);
        v.shutdown();
    }

    // The tables of the pacing rule and the plays of the park/wake
    // handshake, written against the monitor and kept beside it: the rule
    // and the signal live in `crate::pace`, where the other loops that use
    // them find them.
    const PERIOD: Duration = Duration::from_millis(160);
    const QUIET: Duration = Duration::from_millis(10);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn pacer_parks_while_nothing_is_new() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(PERIOD, QUIET, t0);
        assert_eq!(pacer.decide(0, t0), Pace::Park);
        assert_eq!(pacer.decide(0, t0 + 10 * PERIOD), Pace::Park, "an idle program is not checked");
        // Nor is one whose every event has been checked, however long ago.
        pacer.checked(7, t0 + ms(1));
        assert_eq!(pacer.decide(7, t0 + ms(2)), Pace::Park);
        assert_eq!(pacer.decide(7, t0 + 100 * PERIOD), Pace::Park);
    }

    #[test]
    fn pacer_checks_once_a_quiet_interval_after_a_burst_ends() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(PERIOD, QUIET, t0);
        // The burst begins before the pacer has been idle a quiet interval.
        assert_eq!(pacer.decide(3, t0 + ms(5)), Pace::Nap(QUIET));
        // A wake-up before the nap is over changes nothing.
        assert_eq!(pacer.decide(3, t0 + ms(8)), Pace::Nap(ms(7)));
        // The burst went on: the head has to stand still anew.
        assert_eq!(pacer.decide(5, t0 + ms(15)), Pace::Nap(QUIET));
        assert_eq!(pacer.decide(5, t0 + ms(25)), Pace::Check);
        pacer.checked(5, t0 + ms(26));
        assert_eq!(pacer.decide(5, t0 + ms(26)), Pace::Park, "exactly one check");
        assert_eq!(pacer.decide(5, t0 + ms(26) + PERIOD), Pace::Park);
    }

    #[test]
    fn pacer_checks_the_block_that_finds_it_idle_at_once() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(PERIOD, QUIET, t0);
        assert_eq!(pacer.decide(0, t0 + ms(3)), Pace::Park);
        // Idle for a quiet interval: the block that wakes it is checked at
        // once — the leading edge.
        assert_eq!(pacer.decide(1, t0 + QUIET), Pace::Check);
        pacer.checked(1, t0 + ms(11));
        // The rest of the burst is the trailing edge: it waits for the head
        // to stand still, as ever.
        assert_eq!(pacer.decide(3, t0 + ms(12)), Pace::Nap(QUIET));
        assert_eq!(pacer.decide(3, t0 + ms(22)), Pace::Check);
        pacer.checked(3, t0 + ms(23));
        assert_eq!(pacer.decide(3, t0 + ms(24)), Pace::Park);
        // Not yet idle a quiet interval since that check: a trailing wait.
        assert_eq!(pacer.decide(4, t0 + ms(32)), Pace::Nap(QUIET));
        assert_eq!(pacer.decide(4, t0 + ms(42)), Pace::Check);
        pacer.checked(4, t0 + ms(42));
        // However long the pacer has been parked, one block is one check.
        assert_eq!(pacer.decide(4, t0 + ms(42) + 10 * PERIOD), Pace::Park);
        assert_eq!(pacer.decide(5, t0 + ms(43) + 10 * PERIOD), Pace::Check);
    }

    #[test]
    fn pacer_leads_at_most_once_a_quiet_interval() {
        // Blocks a little further apart than a quiet interval each find
        // the pacer idle and are checked as they come; a little closer and
        // none does, and they are checked once a period (the program does
        // not pause). The pacer looks at each block, as a parked monitor
        // woken by it would.
        for (gap, checks) in [(QUIET + ms(2), 25), (QUIET - ms(2), 1)] {
            let t0 = Instant::now();
            let mut pacer = Pacer::new(PERIOD, QUIET, t0);
            let (mut checked, mut last) = (0, None);
            for head in 1..=25u64 {
                let now = t0 + gap * head as u32;
                if pacer.decide(head, now) == Pace::Check {
                    if let Some(last) = last {
                        assert!(now - last >= QUIET, "checked {:?} apart", now - last);
                    }
                    pacer.checked(head, now);
                    (checked, last) = (checked + 1, Some(now));
                }
            }
            assert_eq!(checked, checks, "blocks {gap:?} apart");
        }
    }

    #[test]
    fn pacer_checks_a_program_that_never_pauses_once_a_period() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(PERIOD, QUIET, t0);
        // Something new at every look, each look as late as the pacer asks.
        let (mut now, mut last_check, mut checks) = (t0, t0, 0);
        for head in 1.. {
            match pacer.decide(head, now) {
                Pace::Nap(left) => {
                    assert!(left <= QUIET, "{left:?}");
                    now += left;
                }
                Pace::Check => {
                    assert_eq!(now - last_check, PERIOD, "check {checks}");
                    pacer.checked(head, now);
                    (last_check, checks) = (now, checks + 1);
                    if checks == 10 {
                        break;
                    }
                }
                Pace::Park => panic!("parked with head {head} unchecked"),
            }
        }
        assert_eq!(now - t0, 10 * PERIOD);
    }

    #[test]
    fn pacer_takes_what_arrives_during_a_check_for_new() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(PERIOD, QUIET, t0);
        assert_eq!(pacer.decide(4, t0), Pace::Nap(QUIET));
        assert_eq!(pacer.decide(4, t0 + QUIET), Pace::Check);
        // The check was decided on head 4 and the head is 6 when it ends.
        pacer.checked(4, t0 + ms(12));
        assert_eq!(pacer.decide(6, t0 + ms(12)), Pace::Nap(QUIET));
        assert_eq!(pacer.decide(6, t0 + ms(22)), Pace::Check);
    }

    #[test]
    fn pacer_never_lets_a_quiet_wait_outlast_the_period() {
        let t0 = Instant::now();
        let mut pacer = Pacer::new(PERIOD, QUIET, t0);
        // A burst under way since just after the last act, its head still
        // moving 5 ms before the period is out.
        assert_eq!(pacer.decide(1, t0 + ms(5)), Pace::Nap(QUIET));
        assert_eq!(pacer.decide(2, t0 + ms(155)), Pace::Nap(ms(5)));
        assert_eq!(pacer.decide(3, t0 + ms(160)), Pace::Check);
    }

    #[test]
    fn pacer_with_an_hour_long_period_checks_within_no_tests_lifetime() {
        let t0 = Instant::now();
        let hour = Duration::from_secs(3600);
        let mut pacer = Pacer::new(hour, hour / Pacer::QUIET_SHARE, t0);
        assert_eq!(pacer.decide(1, t0), Pace::Nap(Duration::from_secs(225)));
        assert_eq!(
            pacer.decide(1, t0 + Duration::from_secs(60)),
            Pace::Nap(Duration::from_secs(165))
        );
    }

    #[test]
    fn a_quiescent_deadlock_is_reported_long_before_the_period_ends() {
        // A quiet interval is 625 ms of this period; the margin is for a
        // loaded host, not for the mechanism.
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(10)));
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        v.subscribe(move |report| drop(tx.lock().send(report.tasks.clone())));
        publish_example_deadlock(&v);
        let tasks = rx.recv_timeout(Duration::from_secs(3)).expect("no report within 3 s");
        assert_eq!(tasks, vec![t(1), t(2), t(3), t(4)]);
        v.shutdown();
    }

    /// The leading edge, end to end. The monitor's quiet interval is as
    /// long as the report is given, so a closing block that waited for the
    /// head to stand still would miss it: only a check of the block at the
    /// moment it wakes the idle monitor delivers the report in time.
    #[test]
    fn an_idle_monitor_checks_the_block_that_wakes_it() {
        const QUIET: Duration = Duration::from_millis(500);
        let v = Verifier::with_quiet_interval(
            VerifierConfig::detection_every(Duration::from_secs(3600)),
            QUIET,
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        v.subscribe(move |report| drop(tx.lock().send(report.tasks.clone())));
        // The workers block, the monitor checks them (no cycle yet) a
        // quiet interval later and parks.
        for i in 1..=3 {
            let regs = vec![Registration::new(p(1), 1), Registration::new(p(2), 0)];
            v.block(t(i), vec![r(1, 1)], regs).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while v.stats().checks < 1 || !v.signal.parked.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "the monitor never checked the workers");
            std::thread::yield_now();
        }
        // Idle for a quiet interval since that check: nothing to wait for
        // but the clock.
        std::thread::sleep(QUIET);
        let regs = vec![Registration::new(p(1), 0), Registration::new(p(2), 1)];
        v.block(t(4), vec![r(2, 1)], regs).unwrap();
        let tasks = rx
            .recv_timeout(QUIET)
            .expect("the closing block waited for the head to stand still a quiet interval");
        assert_eq!(tasks, vec![t(1), t(2), t(3), t(4)]);
        assert_eq!(v.stats().checks, 2, "the closing block is checked once");
        v.shutdown();
    }

    #[test]
    fn monitor_handshake_keeps_a_wakeup_sent_inside_either_window_of_the_park() {
        let hour = Duration::from_secs(3600);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let signal = Signal::default();
            // A block lands between the announcement and the second look:
            // the look finds it (and the publisher's wake-up is spare).
            let stop = signal.park(
                || {
                    signal.wake_if_parked();
                    false
                },
                hour,
            );
            assert!(!stop && !signal.state.lock().woken);
            // A block lands after the second look, before the wait: the
            // publisher found the flag, and its wake-up waits for the wait.
            let stop = signal.park(
                || {
                    signal.wake_if_parked();
                    true
                },
                hour,
            );
            assert!(!stop && !signal.parked.load(Ordering::SeqCst));
            // A publisher that finds no flag takes no lock and leaves nothing.
            signal.wake_if_parked();
            assert!(!signal.state.lock().woken);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(30)).expect("the park waited: a wake-up was lost");
    }

    /// The parked-flag handshake between `Verifier::block` and the monitor,
    /// under stress: the period is an hour, so a wake-up lost between the
    /// monitor's last look at the journal and its wait shows as a time-out.
    /// Each round publishes as soon as it sees the monitor park — when it
    /// can, inside that very window.
    #[test]
    fn monitor_handshake_loses_no_wakeup() {
        let hour = Duration::from_secs(3600);
        let v = Verifier::with_quiet_interval(
            VerifierConfig::detection_every(hour),
            Duration::from_micros(100),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        v.subscribe(move |report| drop(tx.lock().send(report.tasks.clone())));
        let limit = Duration::from_secs(2);
        for round in 0..2000u64 {
            let (a, b) = (2 * round + 1, 2 * round + 2);
            let parking = Instant::now();
            while !v.signal.parked.load(Ordering::SeqCst) {
                assert!(parking.elapsed() < limit, "round {round}: the monitor never parked");
                std::thread::yield_now();
            }
            // A crossed wait: each has arrived at its own barrier and is
            // the member the other's barrier is missing.
            for (me, other) in [(a, b), (b, a)] {
                let regs = vec![Registration::new(p(me), 1), Registration::new(p(other), 0)];
                v.block(t(me), vec![r(me, 1)], regs).unwrap();
            }
            let tasks = rx
                .recv_timeout(limit)
                .unwrap_or_else(|_| panic!("round {round}: no report, a wake-up was lost"));
            assert_eq!(tasks, vec![t(a), t(b)], "round {round}");
            v.unblock(t(a));
            v.unblock(t(b));
        }
        assert_eq!(v.stats().deadlocks, 2000);
        v.shutdown();
    }

    #[test]
    fn detection_deduplicates_reports() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        publish_example_deadlock(&v);
        assert!(v.check_now().is_some());
        assert!(v.check_now().is_none(), "same task set must not re-report");
        assert_eq!(v.take_reports().len(), 1);
        v.shutdown();
    }

    #[test]
    fn confirmation_rejects_stale_cycles() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        publish_example_deadlock(&v);
        // Simulate the race: a participant unblocks between snapshot and
        // confirmation by unblocking *after* the snapshot inside check_now
        // cannot be interleaved from a test, so emulate with a manual
        // sequence: snapshot happens inside check_now; we instead unblock
        // first and re-block with a new epoch — any cycle found against old
        // epochs must be discarded. Here we unblock t4 entirely: no cycle.
        v.unblock(t(4));
        assert!(v.check_now().is_none());
        // Re-publish the driver: cycle is real again and epochs fresh.
        let _ = v.block(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        );
        assert!(v.check_now().is_some());
        v.shutdown();
    }

    #[test]
    fn subscribers_receive_reports() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        v.subscribe(move |_| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        publish_example_deadlock(&v);
        v.check_now();
        assert_eq!(count.load(Ordering::SeqCst), 1);
        v.shutdown();
    }

    /// Blocks member `i` of a chain over phasers `p(i + 1)`: it awaits
    /// its own phaser, at which it arrived, and is one phase behind on the
    /// next, which member `i + 1` awaits. So member `i` waits behind
    /// member `i + 1`, and nothing closes.
    fn block_chain_member(v: &Verifier, i: u64) {
        let regs = vec![Registration::new(p(i + 1), 1), Registration::new(p(i + 2), 0)];
        v.block(t(i), vec![r(i + 1, 1)], regs).expect("a chain closes no cycle");
    }

    #[test]
    fn avoidance_accounts_every_block_as_check_or_fastpath_skip() {
        // All five tasks arrived at and awaiting the same barrier event:
        // nobody waits on an event another impedes, so every block is
        // answered by the in-edge fast path.
        let v = Verifier::new(VerifierConfig::avoidance());
        for i in 0..5 {
            v.block(t(i), vec![r(1, 1)], vec![Registration::new(p(1), 1)]).unwrap();
        }
        let s = v.stats();
        assert_eq!(s.blocks, 5);
        assert_eq!(s.fastpath_skips, 5, "blocks nobody waits behind take no check");
        assert_eq!(s.checks, 0);
        // A chain blocked from its head: every member after the first
        // finds its successor waiting on an event it impedes, and is
        // checked.
        let v = Verifier::new(VerifierConfig::avoidance());
        (0..5).rev().for_each(|i| block_chain_member(&v, i));
        let s = v.stats();
        assert_eq!(s.blocks, 5);
        assert_eq!(s.fastpath_skips, 1);
        assert_eq!(s.checks, 4);
        assert_eq!(s.checks + s.fastpath_skips, s.blocks, "every block is accounted");
        v.shutdown();
    }

    /// Every order of a 2-cycle and of a 3-cycle: the closing block is
    /// checked and refused, and an earlier block is checked exactly when
    /// the member waiting on what it impedes is already blocked — a skip
    /// otherwise. So in a 2-cycle only the closing block is checked.
    #[test]
    fn only_a_block_with_a_waiter_behind_it_is_checked_in_every_order_of_a_cycle() {
        let twos: [[u64; 2]; 2] = [[0, 1], [1, 0]];
        let threes: [[u64; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for order in twos.iter().map(|o| &o[..]).chain(threes.iter().map(|o| &o[..])) {
            let len = order.len() as u64;
            let v = Verifier::new(VerifierConfig::avoidance());
            for (at, &i) in order.iter().enumerate() {
                // Member i arrived at its own phaser and is one phase
                // behind on the next, which member i + 1 awaits.
                let next = (i + 1) % len;
                let regs = vec![Registration::new(p(i), 1), Registration::new(p(next), 0)];
                let before = v.stats();
                let verdict = v.block(t(i), vec![r(i, 1)], regs);
                let after = v.stats();
                let checked = after.checks - before.checks;
                assert_eq!(checked + after.fastpath_skips - before.fastpath_skips, 1);
                if at + 1 == order.len() {
                    let err = verdict.expect_err("the closing block is refused");
                    assert_eq!(err.report.tasks.len() as u64, len, "{order:?}");
                    assert_eq!(checked, 1, "{order:?}: the closing block is checked");
                } else {
                    verdict.expect("an open chain is admitted");
                    let behind = order[..at].contains(&next);
                    assert_eq!(checked == 1, behind, "{order:?}: member {i}");
                }
            }
            let s = v.stats();
            if len == 2 {
                assert_eq!((s.checks, s.fastpath_skips), (1, 1), "{order:?}");
            }
            assert_eq!(s.checks + s.fastpath_skips, s.blocks);
        }
    }

    #[test]
    fn proved_safe_hint_skips_every_avoidance_check() {
        // Each task blocked on a phaser of its own: the program was
        // statically proved safe, so it runs in the mode a proof buys,
        // publish-only, which checks no block and counts no skip either.
        let v = Verifier::new(VerifierConfig::publish_only());
        for i in 0..5 {
            v.block(t(i), vec![r(i + 1, 1)], vec![Registration::new(p(i + 1), 1)]).unwrap();
        }
        let s = v.stats();
        assert_eq!(s.blocks, 5);
        assert_eq!(s.checks, 0);
        assert_eq!(s.fastpath_skips, 0);
        // The blocks are still published: peers see the full registry.
        assert_eq!(v.local_snapshot().len(), 5);
        v.shutdown();
    }

    #[test]
    fn detection_mode_blocks_do_not_check_inline() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        for i in 0..5 {
            v.block(t(i), vec![r(1, 1)], vec![Registration::new(p(1), 1)]).unwrap();
        }
        let s = v.stats();
        assert_eq!(s.blocks, 5);
        assert_eq!(s.checks, 0, "checks only happen on the monitor");
        v.shutdown();
    }

    #[test]
    fn unblock_clears_status() {
        let v = Verifier::new(VerifierConfig::avoidance());
        v.block(t(1), vec![r(1, 1)], vec![Registration::new(p(1), 1)]).unwrap();
        assert_eq!(v.local_snapshot().len(), 1);
        v.unblock(t(1));
        assert_eq!(v.local_snapshot().len(), 0);
    }

    #[test]
    fn monitor_stops_when_verifier_dropped() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_millis(1)));
        let handle = v.monitor.lock().take().expect("monitor running");
        drop(v);
        // The loop must observe the dead Weak and exit promptly.
        let start = std::time::Instant::now();
        handle.join().unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn avoidance_checks_consume_deltas_not_snapshots() {
        let v = Verifier::new(VerifierConfig::avoidance());
        (0..5).rev().for_each(|i| block_chain_member(&v, i));
        let s = v.stats();
        // The first block skips the check and, finding the engine lock
        // free, catches the engine up; each of the four checks then
        // applies exactly the one delta its block journaled: 1+1+1+1+1.
        assert_eq!((s.checks, s.fastpath_skips), (4, 1));
        assert_eq!(s.deltas_applied, 5);
        assert_eq!(s.resyncs, 0);
        assert_eq!(s.full_rebuilds, 0, "no deadlock, so no canonical rebuild");
        assert_eq!(s.engine_lock_waits, 0, "single-threaded: try_lock always wins");
    }

    #[test]
    fn fastpath_never_skips_a_self_impeding_wait() {
        // A task waiting on an event it impedes is a self-deadlock on ONE
        // resource: its wait is its own in-edge, so it is checked.
        let v = Verifier::new(VerifierConfig::avoidance());
        let err = v
            .block(t(1), vec![r(1, 5)], vec![Registration::new(p(1), 2)])
            .expect_err("self-wait must raise though nobody else is blocked");
        assert_eq!(err.report.tasks, vec![t(1)]);
        let s = v.stats();
        assert_eq!(s.fastpath_skips, 0);
        assert_eq!(s.checks, 1);
    }

    #[test]
    fn fastpath_engine_backlog_is_applied_by_the_next_slow_check() {
        let v = Verifier::new(VerifierConfig::avoidance());
        // Three workers nobody waits behind skip their checks; finding
        // the engine lock held, they leave their deltas as backlog...
        {
            let _held = v.engine.lock();
            for i in 1..=3 {
                v.block(
                    t(i),
                    vec![r(1, 1)],
                    vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
                )
                .unwrap();
            }
        }
        assert_eq!(v.stats().fastpath_skips, 3);
        assert_eq!(v.stats().deltas_applied, 0, "a skip that finds the lock held does not sync");
        // ...and t4, whom the workers wait behind, is checked: its
        // sync consumes the whole backlog and it catches the cycle it closes.
        let err = v
            .block(
                t(4),
                vec![r(2, 1)],
                vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
            )
            .expect_err("the closing block has the workers behind it and is checked");
        assert!(err.report.tasks.contains(&t(4)));
        assert_eq!(v.stats().deltas_applied, 4, "backlog of 3 + the driver's own block");
    }

    #[test]
    fn subscribers_may_reenter_the_verifier() {
        // A subscriber that probes, reads stats, and subscribes again —
        // all verifier re-entries — must not self-deadlock on the
        // subscriber list lock.
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        let v2 = Arc::clone(&v);
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        v.subscribe(move |_| {
            let _ = v2.probe();
            let _ = v2.stats();
            v2.subscribe(|_| {});
            f2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        publish_example_deadlock(&v);
        assert!(v.check_now().is_some());
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
        v.shutdown();
    }

    #[test]
    fn concurrent_crossed_blocks_raise_for_at_least_one_loser() {
        // Two threads repeatedly publish the two halves of a crossed wait
        // (a 2-cycle). Whatever the interleaving, they must never BOTH be
        // told "no deadlock": the member whose block is published last
        // finds the other waiting behind it and runs a check that sees
        // both blocks.
        for round in 0..64 {
            let v = Verifier::new(VerifierConfig::avoidance());
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let results = std::thread::scope(|s| {
                let spawn_half = |flip: bool| {
                    let v = Arc::clone(&v);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        let (mine, other) = if flip { (1, 2) } else { (2, 1) };
                        barrier.wait();
                        v.block(
                            t(mine),
                            vec![r(mine, 1)],
                            vec![Registration::new(p(mine), 1), Registration::new(p(other), 0)],
                        )
                    })
                };
                let a = spawn_half(true);
                let b = spawn_half(false);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(
                results.0.is_err() || results.1.is_err(),
                "round {round}: both halves of a crossed wait were admitted"
            );
        }
    }

    #[test]
    fn avoidance_deadlock_counts_one_full_rebuild() {
        let v = Verifier::new(VerifierConfig::avoidance());
        publish_example_deadlock(&v);
        let s = v.stats();
        assert_eq!(s.full_rebuilds, 1, "only the hit rebuilt a canonical graph");
        assert!(s.deltas_applied >= 4);
    }

    #[test]
    fn detection_checks_track_journal_deltas() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        publish_example_deadlock(&v);
        assert!(v.check_now().is_some());
        let s = v.stats();
        assert_eq!(s.deltas_applied, 4);
        assert_eq!(s.full_rebuilds, 1);
        // A quiescent follow-up consumes nothing further.
        assert!(v.check_now().is_none());
        assert_eq!(v.stats().deltas_applied, 4);
        v.shutdown();
    }

    #[test]
    fn detection_counts_incremental_checks_and_order_rebuilds() {
        // Journal window of 2: three blocks truncate past the engine's
        // cursor, so the first check_now resyncs. Nothing is live yet, so
        // the resync rebuilds no order; the check then demands the SG
        // adjacency and its order (two builds).
        let v = Verifier::new(
            VerifierConfig::detection_every(Duration::from_secs(3600)).with_journal_capacity(2),
        );
        for i in 0..3 {
            v.block(t(10 + i), vec![r(20 + i, 1)], vec![Registration::new(p(20 + i), 1)]).unwrap();
        }
        assert!(v.check_now().is_none(), "bystanders only: no cycle");
        let s = v.stats();
        assert_eq!(s.resyncs, 1, "journal window 2 forces a resync");
        assert_eq!(s.order_rebuilds, 0, "no order was live to rebuild");
        assert_eq!(s.model_builds, 2, "the check demanded the SG adjacency and its order");
        assert_eq!(s.incremental_detections, 1, "no cycle ⇒ answered from the order");

        // The four example blocks overrun the window again: this resync
        // finds the SG order live and rebuilds it — and the check still
        // answers the cycle canonically.
        publish_example_deadlock(&v);
        assert!(v.check_now().is_some());
        let s = v.stats();
        assert_eq!(s.resyncs, 2);
        assert_eq!(s.order_rebuilds, 1, "the resync rebuilt the one live order");
        assert_eq!((s.model_builds, s.model_retires), (2, 0), "nothing demanded anew or dropped");
        assert_eq!(s.incremental_detections, 1, "the hit fell back to the canonical rebuild");
        assert_eq!(s.full_rebuilds, 1);
        v.shutdown();
    }

    #[test]
    fn avoidance_never_builds_an_order_and_its_resyncs_rebuild_none() {
        // Three skipped blocks that find the engine lock held overrun a
        // window of 2, so t4's closing check resyncs — with an engine that
        // only ever answers `check_task`: one adjacency build, no order,
        // nothing to rebuild.
        let v = Verifier::new(VerifierConfig::avoidance().with_journal_capacity(2));
        let held = v.engine.lock();
        for i in 1..=3 {
            let regs = vec![Registration::new(p(1), 1), Registration::new(p(2), 0)];
            v.block(t(i), vec![r(1, 1)], regs).unwrap();
        }
        drop(held);
        let regs = vec![Registration::new(p(1), 0), Registration::new(p(2), 1)];
        v.block(t(4), vec![r(2, 1)], regs).expect_err("t4 closes the cycle");
        let s = v.stats();
        assert_eq!(s.deadlocks, 1, "the driver's block was refused");
        assert_eq!(s.resyncs, 1);
        assert_eq!(s.order_rebuilds, 0);
        assert_eq!((s.model_builds, s.model_retires), (1, 0), "the SG adjacency, once");
        assert!(!v.engine.lock().order_is_live(crate::GraphModel::Sg));
    }

    #[test]
    fn sync_follower_tracks_the_registry_without_touching_stats() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        publish_example_deadlock(&v);
        let mut follower = IncrementalEngine::new();
        let sync = v.sync_follower(&mut follower);
        assert_eq!(sync.deltas_applied, 4);
        assert_eq!(follower.blocked(), 4);
        assert!(follower.check_full(v.cfg.model, DEFAULT_SG_THRESHOLD).report.is_some());
        let s = v.stats();
        assert_eq!(s.deltas_applied, 0, "follower syncs must not count as verifier syncs");
        assert_eq!(s.checks, 0);
        v.shutdown();
    }

    #[test]
    fn blocked_info_reads_without_a_snapshot() {
        let v = Verifier::new(VerifierConfig::avoidance());
        v.block(t(1), vec![r(1, 1)], vec![Registration::new(p(1), 1)]).unwrap();
        let info = v.blocked_info(t(1)).expect("t1 is blocked");
        assert_eq!(info.waits, vec![r(1, 1)]);
        assert!(v.blocked_info(t(2)).is_none());
    }

    #[test]
    fn probe_reports_without_recording() {
        let v = Verifier::new(VerifierConfig::detection_every(Duration::from_secs(3600)));
        publish_example_deadlock(&v);
        assert!(v.probe().is_some());
        assert!(!v.found_deadlock(), "probe must not record");
        v.shutdown();
    }
}
