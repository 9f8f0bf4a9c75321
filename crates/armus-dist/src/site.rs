//! A site: one place of the distributed system, with its own runtime, a
//! publisher thread, and an independent checker thread (paper §5.2: "all
//! sites check for deadlocks"; "the deadlock checker executes at each site
//! and does not depend on the cooperation of other sites").
//!
//! The publisher speaks the store's delta protocol: it tracks a journal
//! cursor into its runtime's registry and normally ships only the deltas
//! since its previous round — an empty interval when nothing changed,
//! which doubles as a partition heartbeat. It falls back to a
//! **full-snapshot resync** when it joins, when the bounded journal
//! truncated past its cursor, or when the store NACKs the delta interval
//! (partition lost, version mismatch, or a store without delta support) —
//! so recovery never depends on delta continuity, and a lost partition is
//! repaired within one round even from a fully quiescent site.
//!
//! Sites take the store as `Arc<dyn Store>` and never assume exclusive
//! ownership, so the intended networked deployment is **many sites
//! sharing one [`crate::tcp::TcpStore`]**: its pipelined connection
//! multiplexes every site's publisher and checker traffic (correlation
//! ids demultiplex the responses), one socket and one demux thread per
//! process instead of per site. `tests/net.rs` proves the multiplexed
//! path produces reports byte-identical to connection-per-site and to
//! the in-process [`crate::store::MemStore`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use armus_core::{
    DeadlockReport, JournalRead, ModelChoice, Verifier, VerifierConfig, DEFAULT_SG_THRESHOLD,
};
use armus_sync::{Runtime, RuntimeConfig};
use parking_lot::{Condvar, Mutex};

use crate::detector::{DistCheckerStats, IncrementalDistChecker, ReportDedup};
use crate::store::{DeltaAck, SiteId, SiteStats, Store};

/// An interruptible stop flag: loop threads park on it between rounds
/// instead of `thread::sleep`ing, so [`Site::stop`] latency is bounded by
/// the wake-up cost, not by the sum of the publish/check periods.
pub(crate) struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    pub(crate) fn new() -> StopSignal {
        StopSignal { stopped: Mutex::new(false), cv: Condvar::new() }
    }

    /// Sets the flag and wakes every parked thread.
    pub(crate) fn stop(&self) {
        *self.stopped.lock() = true;
        self.cv.notify_all();
    }

    pub(crate) fn is_stopped(&self) -> bool {
        *self.stopped.lock()
    }

    /// Parks for up to `period` or until [`StopSignal::stop`]; returns
    /// true when stopped. Loops on an absolute deadline: a spurious
    /// condvar wakeup re-parks for the residual time instead of cutting
    /// the round short (the publish cadence is a lease heartbeat — a
    /// shortened round skews the timing leases are tuned against; a
    /// lengthened one could let a lease lapse).
    pub(crate) fn wait(&self, period: Duration) -> bool {
        let deadline = Instant::now() + period;
        let mut stopped = self.stopped.lock();
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.cv.wait_for(&mut stopped, deadline - now);
        }
        true
    }

    /// Test hook: a condvar notify *without* setting the flag — exactly
    /// the spurious wakeup [`StopSignal::wait`] must absorb.
    #[cfg(test)]
    pub(crate) fn poke(&self) {
        self.cv.notify_all();
    }
}

/// The bounded store of a site's deadlock reports. The checker pushes
/// behind a [`crate::detector::ReportDedup`], so entries are distinct
/// deadlocks — but a long-lived site in a deadlock-heavy workload still
/// accretes them forever; the ring keeps the newest
/// [`SiteConfig::report_capacity`] and counts evictions instead of
/// growing without bound.
pub(crate) struct ReportRing {
    buf: VecDeque<DeadlockReport>,
    cap: usize,
    dropped: u64,
}

impl ReportRing {
    pub(crate) fn new(cap: usize) -> ReportRing {
        ReportRing { buf: VecDeque::with_capacity(cap.min(64)), cap, dropped: 0 }
    }

    /// Appends, evicting the oldest entry when full. A zero-capacity ring
    /// drops everything (reports still reach subscribers and logs via the
    /// server; only the local backlog is bounded away).
    pub(crate) fn push(&mut self, report: DeadlockReport) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(report);
    }

    pub(crate) fn to_vec(&self) -> Vec<DeadlockReport> {
        self.buf.iter().cloned().collect()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-site verification configuration.
#[derive(Clone, Copy, Debug)]
pub struct SiteConfig {
    /// How often the local blocked set is pushed to the store.
    pub publish_period: Duration,
    /// How often this site checks the global view (paper: 200 ms).
    pub check_period: Duration,
    /// Graph-model selection for the distributed check.
    pub model: ModelChoice,
    /// Most deadlock reports retained locally; older ones are evicted
    /// (counted by [`Site::reports_dropped`]). Distinct reports only — a
    /// dedup filter runs in front of the ring.
    pub report_capacity: usize,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            publish_period: Duration::from_millis(50),
            check_period: Duration::from_millis(200),
            model: ModelChoice::Auto,
            report_capacity: 256,
        }
    }
}

/// A running site.
pub struct Site {
    id: SiteId,
    runtime: Arc<Runtime>,
    stop: Arc<StopSignal>,
    checker_stop: Arc<StopSignal>,
    cleanup_abort: Arc<StopSignal>,
    reports: Arc<Mutex<ReportRing>>,
    resyncs: Arc<AtomicU64>,
    checker_stats: Arc<Mutex<DistCheckerStats>>,
    publisher: Option<JoinHandle<()>>,
    checker: Option<JoinHandle<()>>,
}

/// Total wall-clock budget for the partition remove on site stop. Retries
/// with doubling backoff run inside this deadline, so a transiently
/// unavailable store still gets the remove (no ghost partition confirming
/// false deadlocks), while a permanently dead one delays [`Site::stop`]
/// by at most the budget — comfortably inside the sub-100 ms shutdown
/// contract; past that, the partition lease is the backstop.
const REMOVE_BUDGET: Duration = Duration::from_millis(50);

/// Initial backoff between remove retries.
const REMOVE_BACKOFF: Duration = Duration::from_millis(5);

/// Best-effort partition cleanup on stop: deadline-bounded retry with
/// doubling backoff, interruptible through `abort` (fired when the owning
/// [`Site`] is dropped without `stop`, so an abandoned site never sleeps
/// out the backoff). Returns whether the remove landed.
fn remove_with_retry(store: &dyn Store, id: SiteId, abort: &StopSignal) -> bool {
    let deadline = Instant::now() + REMOVE_BUDGET;
    let mut backoff = REMOVE_BACKOFF;
    loop {
        if store.remove(id).is_ok() {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        if abort.wait(backoff.min(deadline - now)) {
            return false;
        }
        backoff *= 2;
    }
}

/// One publisher round: ship the deltas since `cursor`, or a full
/// versioned snapshot when not (or no longer) in sync. Returns the updated
/// `(cursor, synced)` pair; store failures leave both untouched so the
/// next round retries. Bumps `resyncs` per full-snapshot publish.
fn publish_round(
    store: &dyn Store,
    verifier: &Verifier,
    id: SiteId,
    mut cursor: u64,
    mut synced: bool,
    resyncs: &AtomicU64,
) -> (u64, bool) {
    if synced {
        match verifier.deltas_since(cursor) {
            JournalRead::Deltas(deltas, next) => {
                // Publish even when the interval is empty: it doubles as a
                // partition heartbeat. A store that lost the partition
                // NACKs it, triggering the resync below — crucial because
                // a site whose tasks are all deadlocked is exactly
                // quiescent, and its partition matters most then.
                match store.publish_deltas(id, cursor, &deltas, next) {
                    Ok(DeltaAck::Applied) => cursor = next,
                    Ok(DeltaAck::NeedSnapshot) => synced = false,
                    Err(_) => return (cursor, synced), // outage: retry later
                }
            }
            JournalRead::Behind => synced = false,
        }
    }
    if !synced {
        let (snapshot, head) = verifier.snapshot_with_cursor();
        if store.publish_full(id, snapshot, head).is_ok() {
            cursor = head;
            synced = true;
            resyncs.fetch_add(1, Ordering::Relaxed);
        }
    }
    (cursor, synced)
}

/// Assembles the site's current [`SiteStats`] record from its verifier
/// snapshot, publisher counter, checker counters, and report ring.
fn gather_stats(
    verifier: &Verifier,
    resyncs: &AtomicU64,
    checker_stats: &Mutex<DistCheckerStats>,
    reports: &Mutex<ReportRing>,
) -> SiteStats {
    let v = verifier.stats();
    let c = *checker_stats.lock();
    SiteStats {
        blocks: v.blocks,
        unblocks: v.unblocks,
        fastpath_skips: v.fastpath_skips,
        publish_resyncs: resyncs.load(Ordering::Relaxed),
        async_waits: v.async_waits,
        waker_wakes: v.waker_wakes,
        checker_rounds: c.rounds,
        incremental_detections: c.incremental_detections,
        reports_dropped: reports.lock().dropped(),
    }
}

impl Site {
    /// Starts a site against the shared store: spawns its publisher and
    /// checker threads. Workloads run on [`Site::runtime`].
    pub fn start(id: SiteId, store: Arc<dyn Store>, cfg: SiteConfig) -> Site {
        let runtime =
            Runtime::new(RuntimeConfig::unchecked().with_verifier(VerifierConfig::publish_only()));
        let stop = Arc::new(StopSignal::new());
        let checker_stop = Arc::new(StopSignal::new());
        let cleanup_abort = Arc::new(StopSignal::new());
        let reports = Arc::new(Mutex::new(ReportRing::new(cfg.report_capacity)));
        let resyncs = Arc::new(AtomicU64::new(0));
        let checker_stats = Arc::new(Mutex::new(DistCheckerStats::default()));

        let publisher = {
            let runtime = Arc::clone(&runtime);
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let cleanup_abort = Arc::clone(&cleanup_abort);
            let resyncs = Arc::clone(&resyncs);
            let checker_stats = Arc::clone(&checker_stats);
            let reports = Arc::clone(&reports);
            std::thread::Builder::new()
                .name(format!("{id}-publisher"))
                .spawn(move || {
                    let mut cursor = 0u64;
                    let mut synced = false; // first round publishes the join snapshot
                    while !stop.is_stopped() {
                        (cursor, synced) = publish_round(
                            store.as_ref(),
                            runtime.verifier(),
                            id,
                            cursor,
                            synced,
                            &resyncs,
                        );
                        // Piggyback the observability counters on the
                        // publish cadence (best-effort: a store without a
                        // metrics surface discards them, an outage skips
                        // the round).
                        let _ = store.publish_stats(
                            id,
                            gather_stats(runtime.verifier(), &resyncs, &checker_stats, &reports),
                        );
                        // Interruptible: stop() wakes us immediately
                        // instead of eating a whole publish period.
                        if stop.wait(cfg.publish_period) {
                            break;
                        }
                    }
                    // Retire the partition so other sites stop merging it.
                    // A transient outage is retried within the bounded
                    // budget; if the store stays down the lease expiry is
                    // the backstop.
                    remove_with_retry(store.as_ref(), id, &cleanup_abort);
                })
                .expect("spawn publisher")
        };

        let checker = {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let checker_stop = Arc::clone(&checker_stop);
            let reports = Arc::clone(&reports);
            let checker_stats = Arc::clone(&checker_stats);
            std::thread::Builder::new()
                .name(format!("{id}-checker"))
                .spawn(move || {
                    let mut dedup = ReportDedup::new();
                    // The checker engine persists across rounds: each round
                    // diffs the merged view against the previous one and
                    // answers cycle existence from the maintained order —
                    // O(churn between rounds), not O(cluster blocked set).
                    let mut checker = IncrementalDistChecker::new();
                    while !stop.is_stopped() && !checker_stop.is_stopped() {
                        if checker_stop.wait(cfg.check_period) || stop.is_stopped() {
                            break;
                        }
                        // Fetch failures are tolerated: skip the round.
                        match checker.check_round(store.as_ref(), cfg.model, DEFAULT_SG_THRESHOLD) {
                            Ok(out) => {
                                if let Some(report) = out.report {
                                    if dedup.is_new(&report) {
                                        reports.lock().push(report);
                                    }
                                }
                            }
                            // Conservative: after a store outage, rebuild
                            // from the next successful fetch rather than
                            // trust the diff path — delta continuity must
                            // never be load-bearing for correctness.
                            Err(_) => checker.resync(),
                        }
                        *checker_stats.lock() = checker.stats();
                    }
                })
                .expect("spawn checker")
        };

        Site {
            id,
            runtime,
            stop,
            checker_stop,
            cleanup_abort,
            reports,
            resyncs,
            checker_stats,
            publisher: Some(publisher),
            checker: Some(checker),
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Full-snapshot publishes performed so far (the join counts as one;
    /// anything beyond it is a recovery resync).
    pub fn publish_resyncs(&self) -> u64 {
        self.resyncs.load(Ordering::Relaxed)
    }

    /// Counters of this site's checker thread as of its latest round:
    /// rounds run, confirmation re-fetches, deltas diffed in, and how
    /// often detection stayed on the incremental path — the observability
    /// needed to see that a multiplexed store still serves every site's
    /// check cadence.
    pub fn checker_stats(&self) -> DistCheckerStats {
        *self.checker_stats.lock()
    }

    /// The runtime workloads should use on this site.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// This site's local verifier counters (blocks, fast-path skips,
    /// `async_waits`/`waker_wakes`, …) — the front-end-side observability
    /// twin of [`Site::checker_stats`].
    pub fn verifier_stats(&self) -> armus_core::StatsSnapshot {
        self.runtime.verifier().stats()
    }

    /// Deadlocks this site's checker has reported, newest last (the
    /// retained window of the bounded report ring).
    pub fn reports(&self) -> Vec<DeadlockReport> {
        self.reports.lock().to_vec()
    }

    /// Distinct reports evicted from the bounded report ring so far.
    pub fn reports_dropped(&self) -> u64 {
        self.reports.lock().dropped()
    }

    /// The site's current observability record — exactly what its
    /// publisher pushes to the store's metrics surface every round.
    pub fn stats(&self) -> SiteStats {
        gather_stats(self.runtime.verifier(), &self.resyncs, &self.checker_stats, &self.reports)
    }

    /// Has this site reported any deadlock?
    pub fn found_deadlock(&self) -> bool {
        !self.reports.lock().is_empty()
    }

    /// Kills this site's *checker* thread only (the publisher keeps
    /// running) — the fault-injection used to show detection survives site
    /// checker failures: there is no designated control site, so the
    /// remaining sites still find the deadlock.
    pub fn kill_checker(&mut self) {
        self.checker_stop.stop();
        if let Some(h) = self.checker.take() {
            let _ = h.join();
        }
    }

    /// Stops the site's threads and removes its partition.
    pub fn stop(mut self) {
        self.shutdown();
        if let Some(h) = self.publisher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.checker.take() {
            let _ = h.join();
        }
    }

    fn shutdown(&self) {
        // Wake both loops out of their parked waits: stop latency is
        // bounded by the wake-up (and the bounded remove retry), not by
        // the publish/check periods.
        self.stop.stop();
        self.checker_stop.stop();
        self.runtime.shutdown();
    }
}

impl Drop for Site {
    fn drop(&mut self) {
        self.shutdown();
        // Dropped without `stop` (nobody will join the publisher): also
        // abort the cleanup backoff so the abandoned thread exits promptly
        // instead of sleeping out the remove budget against a dead store.
        // After a normal `stop` the publisher is already joined and this
        // is a no-op.
        self.cleanup_abort.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreError;
    use armus_core::{CycleWitness, GraphModel, PhaserId, Resource, Snapshot, TaskId};

    fn report(n: u64) -> DeadlockReport {
        DeadlockReport {
            tasks: vec![TaskId(n), TaskId(n + 1)],
            resources: vec![Resource::new(PhaserId(n), 1)],
            model: GraphModel::Wfg,
            witness: CycleWitness::Tasks(vec![TaskId(n), TaskId(n + 1), TaskId(n)]),
            task_epochs: vec![(TaskId(n), 0), (TaskId(n + 1), 0)],
        }
    }

    #[test]
    fn report_ring_evicts_oldest_first_and_counts_drops() {
        let mut ring = ReportRing::new(2);
        ring.push(report(1));
        ring.push(report(2));
        assert_eq!(ring.dropped(), 0);
        ring.push(report(3));
        let kept: Vec<u64> = ring.to_vec().iter().map(|r| r.tasks[0].0).collect();
        assert_eq!(kept, vec![2, 3], "oldest report evicted, newest kept in order");
        assert_eq!(ring.dropped(), 1);
        ring.push(report(4));
        assert_eq!(ring.dropped(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = ReportRing::new(0);
        ring.push(report(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn wait_absorbs_spurious_wakeups() {
        let signal = Arc::new(StopSignal::new());
        let period = Duration::from_millis(60);
        // A poker that fires condvar notifies throughout the wait without
        // ever setting the flag — forced spurious wakeups.
        let poker = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                for _ in 0..30 {
                    signal.poke();
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        let begin = Instant::now();
        let stopped = signal.wait(period);
        let elapsed = begin.elapsed();
        poker.join().unwrap();
        assert!(!stopped, "no stop was requested");
        assert!(
            elapsed >= period,
            "wait returned after {elapsed:?}, before the {period:?} deadline — \
             a spurious wakeup cut the round short"
        );
    }

    #[test]
    fn wait_still_interrupts_immediately_on_stop() {
        let signal = Arc::new(StopSignal::new());
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                let begin = Instant::now();
                assert!(signal.wait(Duration::from_secs(30)), "stop must be observed");
                begin.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        signal.stop();
        let elapsed = waiter.join().unwrap();
        assert!(elapsed < Duration::from_secs(5), "stop must interrupt the park promptly");
    }

    /// A store that is permanently down.
    struct DeadStore;
    impl Store for DeadStore {
        fn publish_full(&self, _: SiteId, _: Snapshot, _: u64) -> Result<(), StoreError> {
            Err(StoreError::Unavailable)
        }
        fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
            Err(StoreError::Unavailable)
        }
        fn remove(&self, _: SiteId) -> Result<(), StoreError> {
            Err(StoreError::Unavailable)
        }
    }

    #[test]
    fn remove_retry_is_deadline_bounded_against_a_dead_store() {
        let abort = StopSignal::new();
        let begin = Instant::now();
        assert!(!remove_with_retry(&DeadStore, SiteId(0), &abort));
        let elapsed = begin.elapsed();
        assert!(
            elapsed < REMOVE_BUDGET + Duration::from_millis(30),
            "remove retries ran {elapsed:?}, past the {REMOVE_BUDGET:?} budget"
        );
        assert!(elapsed >= REMOVE_BACKOFF, "at least one backoff round was attempted");
    }

    #[test]
    fn remove_retry_aborts_immediately_when_signalled() {
        let abort = StopSignal::new();
        abort.stop();
        let begin = Instant::now();
        assert!(!remove_with_retry(&DeadStore, SiteId(0), &abort));
        assert!(
            begin.elapsed() < REMOVE_BUDGET,
            "an aborted cleanup must not sleep out the budget"
        );
    }
}
