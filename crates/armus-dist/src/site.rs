//! A site: one place of the distributed system, with its own runtime, a
//! publisher thread, and an independent checker thread (paper §5.2: "all
//! sites check for deadlocks"; "the deadlock checker executes at each site
//! and does not depend on the cooperation of other sites").
//!
//! The publisher ([`Publisher`], stepped by the site's thread and by the
//! tests alike) speaks the store's delta protocol: it tracks a journal
//! cursor into its runtime's registry and normally ships only the deltas
//! since its previous round. It falls back to a **full-snapshot resync**
//! when it joins, when the bounded journal truncated past its cursor, or
//! when the store NACKs the delta interval (partition lost, version
//! mismatch, or a store without delta support) — so recovery never depends
//! on delta continuity, and a lost partition is repaired within one round
//! even from a fully quiescent site.
//!
//! It has two duties, paced apart. The **delta flush** follows the
//! journal, by the one rule of [`armus_core::pace`]: a block that finds the
//! publisher idle is shipped at once, the rest of a burst one quiet
//! interval after it ends ([`SiteConfig::publish_period`]` / 16`), a
//! program that never pauses once a period. The **lease heartbeat** is
//! an empty interval once a period while nothing changes — except that the
//! *first* one follows at once when the publisher finds nothing new after
//! a flush. That empty interval has two readers: it refreshes the
//! partition's lease, and it tells the store that *this site's journal
//! stood still* — the store's checker runs when every site that wrote has
//! said so ([`crate::server`]). The marker is a hint: a store that NACKs
//! it (one without delta support NACKs every interval) is from then on
//! sent one snapshot a round, as ever, and no marker after it.
//!
//! The checker reads what changed in the global view once a
//! [`SiteConfig::check_period`], unconditionally: it cannot see what other
//! sites write. A read costs what changed since the one before
//! ([`crate::store::Store::changes_since`]), not what stands blocked.
//!
//! Sites take the store as `Arc<dyn Store>` and never assume exclusive
//! ownership, so the intended networked deployment is **many sites
//! sharing one [`crate::tcp::TcpStore`]**: its pipelined connection
//! multiplexes every site's publisher and checker traffic (correlation
//! ids demultiplex the responses), one socket and one demux thread per
//! process instead of per site. `tests/net.rs` proves the multiplexed
//! path produces reports byte-identical to connection-per-site and to
//! the in-process [`crate::store::MemStore`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use armus_core::{
    DeadlockReport, JournalRead, ModelChoice, Pace, Pacer, ReportDedup, Signal, Verifier,
    VerifierConfig, Window, DEFAULT_SG_THRESHOLD, REPORT_CAPACITY,
};
use armus_sync::{Runtime, RuntimeConfig};
use parking_lot::Mutex;

use crate::detector::{DistCheckerStats, IncrementalDistChecker};
use crate::store::{DeltaAck, SiteId, SiteStats, Store};

/// Per-site verification configuration.
#[derive(Clone, Copy, Debug)]
pub struct SiteConfig {
    /// The longest a change of the local blocked set waits to be pushed to
    /// the store — an upper bound, not a cadence: a burst of blocks that
    /// ends is shipped `publish_period / 16` after its last one, a program
    /// that never pauses once a period. Also the period of the lease
    /// heartbeat (an empty interval) while nothing changes.
    pub publish_period: Duration,
    /// The longest this site goes without checking the global view (paper:
    /// 200 ms) — an upper bound on how long a deadlock stands unseen by
    /// it. Every site checks and none is the control site (§5.2), so the
    /// checker keeps this period unconditionally, clean view or not: it
    /// cannot see what other sites write. Each check reads only what
    /// changed since the one before. (A verdict at the closing event
    /// is what the store's checker and a subscription to it are for —
    /// [`crate::server`].)
    pub check_period: Duration,
    /// Graph-model selection for the distributed check.
    pub model: ModelChoice,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            publish_period: Duration::from_millis(50),
            check_period: Duration::from_millis(200),
            model: ModelChoice::Auto,
        }
    }
}

/// A running site.
pub struct Site {
    id: SiteId,
    runtime: Arc<Runtime>,
    /// Stops the checker. (The publisher parks on — and is stopped
    /// through — its verifier's [`Verifier::signal`].)
    checker_stop: Arc<Signal>,
    cleanup_abort: Arc<Signal>,
    reports: Arc<Mutex<Window<DeadlockReport>>>,
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
fn remove_with_retry(store: &dyn Store, id: SiteId, abort: &Signal) -> bool {
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

/// What one [`Publisher::publish`] put on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shipped {
    /// Nothing the store acknowledged: cursor and sync state are as they
    /// were, and the round is tried again a period later.
    Nothing,
    /// The journal deltas since the cursor, netted to each task's last
    /// (this many net deltas).
    Deltas(usize),
    /// A full versioned snapshot: the join, or a recovery resync.
    Snapshot,
    /// The first empty interval after [`Shipped::Deltas`] or
    /// [`Shipped::Snapshot`]: the site telling the store that its journal
    /// stood still.
    Settled,
    /// An empty interval with nothing shipped before it either: the lease
    /// heartbeat.
    Heartbeat,
}

/// A site's publisher, as a step machine without a thread or a clock of its
/// own: *when* to run a round ([`Publisher::pace`], from the journal head
/// and the time), the round's wire protocol ([`Publisher::publish`]), and
/// the time it ended ([`Publisher::record`]). [`Site::start`] steps it from
/// the site's publisher thread; tests step it by hand.
pub struct Publisher {
    site: SiteId,
    cursor: u64,
    synced: bool,
    resyncs: u64,
    /// A publish that changed the partition has not been followed by an
    /// empty interval yet.
    unsettled: bool,
    /// The store NACKed such an empty interval: it holds no version to
    /// apply intervals to (a store without delta support answers every one
    /// that way), so the snapshots it is sent are not followed by another
    /// — until it applies an interval.
    markers_refused: bool,
    /// Paces the delta flush by the journal head, and (stamped at every
    /// acknowledged publish) the heartbeat by the clock.
    pacer: Pacer,
    /// After a failed round: no round before this.
    retry_at: Option<Instant>,
}

impl Publisher {
    /// A publisher for `site` that has shipped nothing yet: its first round
    /// publishes the join snapshot.
    pub fn new(site: SiteId, publish_period: Duration, now: Instant) -> Publisher {
        Publisher {
            site,
            cursor: 0,
            synced: false,
            resyncs: 0,
            unsettled: false,
            markers_refused: false,
            pacer: Pacer::new(publish_period, publish_period / Pacer::QUIET_SHARE, now),
            retry_at: None,
        }
    }

    /// The journal cursor the store's copy of the partition stands at.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Whether the store holds a versioned copy deltas can resume from.
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// Full-snapshot publishes so far (the join counts as one).
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// What to do with the journal head at `head` and the clock at `now`:
    /// [`Pace::Check`] is "run a round now" — a flush, at once for a block
    /// that found the publisher idle, one quiet interval after a burst
    /// ended or a period after the last one; the empty
    /// interval owed right after a flush; a heartbeat, a period after the
    /// last acknowledged publish; a retry, a period after a failure.
    /// [`Pace::Park`] may last [`Publisher::park_for`].
    pub fn pace(&mut self, head: u64, now: Instant) -> Pace {
        match self.retry_at {
            Some(at) if now < at => Pace::Nap(at - now),
            // The join, a resync, or nothing new after a flush: no wait.
            _ if !self.synced || (self.unsettled && head == self.cursor) => Pace::Check,
            _ => self.pacer.decide_or_due(head, now),
        }
    }

    /// How long a parked publisher may stay parked: until the heartbeat.
    pub fn park_for(&self, now: Instant) -> Duration {
        self.pacer.due_in(now)
    }

    /// One round of the wire protocol: ship each task's last delta since
    /// the cursor ([`Verifier::net_deltas_since`]; the store applies a
    /// batch as per-task upserts, so the earlier ones change nothing it
    /// holds) — an empty interval when there are none — or a full
    /// versioned snapshot when not (or no longer) in sync. A store failure
    /// leaves cursor and sync state untouched, so the next round retries
    /// the same interval.
    pub fn publish(&mut self, store: &dyn Store, verifier: &Verifier) -> Shipped {
        let mut shipped = Shipped::Nothing;
        if self.synced {
            match verifier.net_deltas_since(self.cursor) {
                JournalRead::Deltas(deltas, next) => {
                    // Published even when the interval is empty: it is the
                    // lease heartbeat, and a store that lost the partition
                    // NACKs it, triggering the resync below — crucial
                    // because a site whose tasks are all deadlocked is
                    // exactly quiescent, and its partition matters most
                    // then.
                    match store.publish_deltas(self.site, self.cursor, &deltas, next) {
                        Ok(DeltaAck::Applied) => {
                            self.cursor = next;
                            self.markers_refused = false;
                            shipped = match deltas.len() {
                                0 if self.unsettled => Shipped::Settled,
                                0 => Shipped::Heartbeat,
                                n => Shipped::Deltas(n),
                            };
                        }
                        Ok(DeltaAck::NeedSnapshot) => {
                            self.synced = false;
                            self.markers_refused |= self.unsettled && deltas.is_empty();
                        }
                        Err(_) => return Shipped::Nothing, // outage: retry later
                    }
                }
                JournalRead::Behind => self.synced = false,
            }
        }
        if !self.synced {
            let (snapshot, head) = verifier.snapshot_with_cursor();
            if store.publish_full(self.site, snapshot, head).is_ok() {
                self.cursor = head;
                self.synced = true;
                self.resyncs += 1;
                shipped = Shipped::Snapshot;
            }
        }
        self.unsettled = match shipped {
            Shipped::Nothing => self.unsettled,
            Shipped::Deltas(_) => true,
            // One marker attempt a snapshot, not a snapshot a marker
            // attempt: against a store that NACKs them all that would be
            // full snapshots back to back.
            Shipped::Snapshot => !self.markers_refused,
            Shipped::Settled | Shipped::Heartbeat => false,
        };
        shipped
    }

    /// Records that the round which `shipped` ended at `now`: an
    /// acknowledged publish restarts both the flush period and the
    /// heartbeat clock (every publish refreshes the lease); a failed one
    /// is retried a period later.
    pub fn record(&mut self, shipped: Shipped, now: Instant) {
        self.retry_at = match shipped {
            Shipped::Nothing => Some(now + self.pacer.period()),
            _ => {
                self.pacer.checked(self.cursor, now);
                None
            }
        };
    }
}

/// The second look of a publisher about to park ([`Signal::park`]): has
/// nothing been journaled since it read `head`?
fn nothing_published(verifier: &Verifier, head: u64) -> bool {
    verifier.journal_head() == head
}

/// Assembles the site's current [`SiteStats`] record from its verifier
/// snapshot, publisher counter, checker counters, and report window.
fn gather_stats(
    verifier: &Verifier,
    resyncs: &AtomicU64,
    checker_stats: &Mutex<DistCheckerStats>,
    reports: &Mutex<Window<DeadlockReport>>,
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
        reports_dropped: reports.lock().base(),
    }
}

impl Site {
    /// Starts a site against the shared store: spawns its publisher and
    /// checker threads. Workloads run on [`Site::runtime`].
    pub fn start(id: SiteId, store: Arc<dyn Store>, cfg: SiteConfig) -> Site {
        let runtime =
            Runtime::new(RuntimeConfig::unchecked().with_verifier(VerifierConfig::publish_only()));
        let checker_stop = Arc::new(Signal::new());
        let cleanup_abort = Arc::new(Signal::new());
        let reports = Arc::new(Mutex::new(Window::new(REPORT_CAPACITY)));
        let resyncs = Arc::new(AtomicU64::new(0));
        let checker_stats = Arc::new(Mutex::new(DistCheckerStats::default()));

        let publisher = {
            let runtime = Arc::clone(&runtime);
            let store = Arc::clone(&store);
            let cleanup_abort = Arc::clone(&cleanup_abort);
            let resyncs = Arc::clone(&resyncs);
            let checker_stats = Arc::clone(&checker_stats);
            let reports = Arc::clone(&reports);
            std::thread::Builder::new()
                .name(format!("{id}-publisher"))
                .spawn(move || {
                    let verifier = runtime.verifier();
                    // Woken by every block while parked, stopped by the
                    // runtime's shutdown: stop latency is the wake-up, not
                    // a publish period.
                    let signal = verifier.signal();
                    let mut publisher = Publisher::new(id, cfg.publish_period, Instant::now());
                    loop {
                        let head = verifier.journal_head();
                        let now = Instant::now();
                        let stop = match publisher.pace(head, now) {
                            Pace::Check => {
                                let shipped = publisher.publish(store.as_ref(), verifier);
                                publisher.record(shipped, Instant::now());
                                resyncs.store(publisher.resyncs(), Ordering::Relaxed);
                                if matches!(shipped, Shipped::Settled | Shipped::Heartbeat) {
                                    // The observability counters ride the
                                    // heartbeat (best-effort: a store
                                    // without a metrics surface discards
                                    // them, an outage skips them).
                                    let _ = store.publish_stats(
                                        id,
                                        gather_stats(verifier, &resyncs, &checker_stats, &reports),
                                    );
                                }
                                signal.wait(Duration::ZERO)
                            }
                            Pace::Nap(left) => signal.wait(left),
                            Pace::Park => signal.park(
                                || nothing_published(verifier, head),
                                publisher.park_for(now),
                            ),
                        };
                        if stop {
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
            let stop = Arc::clone(&checker_stop);
            let reports = Arc::clone(&reports);
            let checker_stats = Arc::clone(&checker_stats);
            std::thread::Builder::new()
                .name(format!("{id}-checker"))
                .spawn(move || {
                    let mut dedup = ReportDedup::new();
                    // The checker engine persists across rounds: each round
                    // reads the store's change log from its cursor and
                    // answers cycle existence from the maintained order —
                    // O(churn between rounds), not O(cluster blocked set).
                    let mut checker = IncrementalDistChecker::new();
                    while !stop.wait(cfg.check_period) {
                        // A failed read skips the round and leaves the
                        // cursor where it was.
                        let round =
                            checker.check_round(store.as_ref(), cfg.model, DEFAULT_SG_THRESHOLD);
                        if let Some(report) = round.ok().and_then(|out| out.report) {
                            if dedup.is_new(&report) {
                                reports.lock().push(report);
                            }
                        }
                        *checker_stats.lock() = checker.stats();
                    }
                })
                .expect("spawn checker")
        };

        Site {
            id,
            runtime,
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
    /// rounds run, joins, confirmation reads, deltas applied, and how
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

    /// The distinct deadlocks this site's checker has reported, newest
    /// last: the newest [`REPORT_CAPACITY`] (older ones are counted by
    /// [`Site::reports_dropped`]).
    pub fn reports(&self) -> Vec<DeadlockReport> {
        self.reports.lock().iter().cloned().collect()
    }

    /// Distinct reports that have left [`Site::reports`] so far.
    pub fn reports_dropped(&self) -> u64 {
        self.reports.lock().base()
    }

    /// The site's current observability record — exactly what its
    /// publisher pushes to the store's metrics surface with every
    /// heartbeat.
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
        // Wake both loops out of their parked waits — the publisher's is
        // on its verifier's signal, which the runtime's shutdown stops:
        // stop latency is bounded by the wake-up (and the bounded remove
        // retry), not by the publish/check periods.
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
    use crate::store::{MemStore, StoreError};
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
        let mut ring: Window<DeadlockReport> = Window::new(2);
        ring.push(report(1));
        ring.push(report(2));
        assert_eq!(ring.base(), 0);
        ring.push(report(3));
        let kept: Vec<u64> = ring.iter().map(|r| r.tasks[0].0).collect();
        assert_eq!(kept, vec![2, 3], "oldest report evicted, newest kept in order");
        assert_eq!(ring.base(), 1);
        ring.push(report(4));
        assert_eq!(ring.base(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring: Window<DeadlockReport> = Window::new(0);
        ring.push(report(1));
        assert!(ring.is_empty());
        assert_eq!(ring.base(), 1);
    }

    #[test]
    fn wait_still_interrupts_immediately_on_stop() {
        let signal = Arc::new(Signal::new());
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
        fn publish_deltas(
            &self,
            _: SiteId,
            _: u64,
            _: &[armus_core::Delta],
            _: u64,
        ) -> Result<DeltaAck, StoreError> {
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
        let abort = Signal::new();
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
        let abort = Signal::new();
        abort.stop();
        let begin = Instant::now();
        assert!(!remove_with_retry(&DeadStore, SiteId(0), &abort));
        assert!(
            begin.elapsed() < REMOVE_BUDGET,
            "an aborted cleanup must not sleep out the budget"
        );
    }

    const PERIOD: Duration = Duration::from_millis(160);
    const QUIET: Duration = Duration::from_millis(10);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn block(v: &Verifier, task: u64) {
        let phaser = PhaserId(task);
        v.block(
            TaskId(task),
            vec![Resource::new(phaser, 1)],
            vec![armus_core::Registration::new(phaser, 1)],
        )
        .expect("publish-only blocks are never refused");
    }

    /// A publisher that has joined `store` and sent the empty interval the
    /// join owes, at `t0`.
    fn joined(store: &dyn Store, v: &Verifier, t0: Instant) -> Publisher {
        let mut publisher = Publisher::new(SiteId(0), PERIOD, t0);
        assert_eq!(publisher.pace(v.journal_head(), t0), Pace::Check, "the join does not wait");
        assert_eq!(publisher.publish(store, v), Shipped::Snapshot);
        publisher.record(Shipped::Snapshot, t0);
        assert_eq!(publisher.pace(v.journal_head(), t0), Pace::Check, "nor does its marker");
        assert_eq!(publisher.publish(store, v), Shipped::Settled);
        publisher.record(Shipped::Settled, t0);
        publisher
    }

    #[test]
    fn publisher_ships_a_burst_that_ends_one_quiet_interval_later_then_says_so_at_once() {
        let (store, v, t0) =
            (MemStore::new(), Verifier::new(VerifierConfig::publish_only()), Instant::now());
        let mut publisher = joined(&store, &v, t0);
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(20)), Pace::Park);
        assert_eq!(publisher.park_for(t0 + ms(20)), ms(140), "parked until the heartbeat");
        // The block that finds the publisher idle is shipped at once, and
        // the empty interval follows it at once too.
        block(&v, 1);
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(30)), Pace::Check);
        assert_eq!(publisher.publish(&store, &v), Shipped::Deltas(1));
        publisher.record(Shipped::Deltas(1), t0 + ms(30));
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(30)), Pace::Check);
        assert_eq!(publisher.publish(&store, &v), Shipped::Settled);
        publisher.record(Shipped::Settled, t0 + ms(31));
        // The rest of its burst: the journal has to stand still for a
        // quiet interval.
        block(&v, 2);
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(32)), Pace::Nap(QUIET));
        block(&v, 3);
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(35)), Pace::Nap(QUIET));
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(45)), Pace::Check);
        assert_eq!(publisher.publish(&store, &v), Shipped::Deltas(2));
        publisher.record(Shipped::Deltas(2), t0 + ms(46));
        // Nothing new after the flush: one empty interval, immediately.
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(46)), Pace::Check);
        assert_eq!(publisher.publish(&store, &v), Shipped::Settled);
        publisher.record(Shipped::Settled, t0 + ms(47));
        // And from there heartbeats, a period apart.
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(47)), Pace::Park);
        assert_eq!(publisher.park_for(t0 + ms(47)), PERIOD, "the heartbeat clock restarted");
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(47) + PERIOD), Pace::Check);
        assert_eq!(publisher.publish(&store, &v), Shipped::Heartbeat);
        publisher.record(Shipped::Heartbeat, t0 + ms(48) + PERIOD);
        assert_eq!(publisher.pace(v.journal_head(), t0 + ms(48) + PERIOD), Pace::Park);
        assert_eq!(store.fetch_all().unwrap()[0].1, v.local_snapshot());
    }

    #[test]
    fn publisher_ships_each_tasks_last_delta_of_the_interval() {
        let (store, v, t0) =
            (MemStore::new(), Verifier::new(VerifierConfig::publish_only()), Instant::now());
        let mut publisher = joined(&store, &v, t0);
        // Five journal entries in one interval, for two tasks.
        block(&v, 1);
        v.unblock(TaskId(1));
        block(&v, 1);
        block(&v, 2);
        v.unblock(TaskId(2));
        // Task 1's last block and task 2's unblock.
        assert_eq!(publisher.publish(&store, &v), Shipped::Deltas(2));
        publisher.record(Shipped::Deltas(2), t0 + ms(1));
        assert_eq!(store.fetch_all().unwrap()[0].1, v.local_snapshot());
        assert_eq!(publisher.publish(&store, &v), Shipped::Settled);
    }

    #[test]
    fn publisher_ships_a_journal_that_never_stands_still_once_a_period_and_no_empty_interval() {
        let (store, v, t0) =
            (MemStore::new(), Verifier::new(VerifierConfig::publish_only()), Instant::now());
        let mut publisher = joined(&store, &v, t0);
        // Something new at every look, each look as late as the pacer asks.
        let (mut now, mut last_flush, mut flushes) = (t0, t0, 0);
        for task in 1.. {
            block(&v, task);
            match publisher.pace(v.journal_head(), now) {
                Pace::Nap(left) => {
                    assert!(left <= QUIET, "{left:?}");
                    now += left;
                }
                Pace::Check => {
                    assert_eq!(now - last_flush, PERIOD, "flush {flushes}");
                    let shipped = publisher.publish(&store, &v);
                    assert!(matches!(shipped, Shipped::Deltas(_)), "flush {flushes}: {shipped:?}");
                    publisher.record(shipped, now);
                    (last_flush, flushes) = (now, flushes + 1);
                    if flushes == 5 {
                        break;
                    }
                }
                Pace::Park => panic!("parked with task {task} unshipped"),
            }
        }
        assert_eq!(now - t0, 5 * PERIOD);
    }

    #[test]
    fn publisher_with_nothing_to_publish_sends_heartbeats_only() {
        let (store, v, t0) =
            (MemStore::new(), Verifier::new(VerifierConfig::publish_only()), Instant::now());
        let mut publisher = joined(&store, &v, t0);
        let mut now = t0;
        for beat in 0..5 {
            assert_eq!(publisher.pace(v.journal_head(), now), Pace::Park, "beat {beat}");
            now += publisher.park_for(now);
            assert_eq!(publisher.pace(v.journal_head(), now), Pace::Check, "beat {beat}");
            assert_eq!(publisher.publish(&store, &v), Shipped::Heartbeat, "beat {beat}");
            publisher.record(Shipped::Heartbeat, now);
        }
        assert_eq!(now - t0, 5 * PERIOD);
        assert_eq!(publisher.resyncs(), 1, "the join, and nothing since");
    }

    #[test]
    fn publisher_marks_nothing_shipped_on_a_store_error_and_retries_a_period_later() {
        let (v, t0) = (Verifier::new(VerifierConfig::publish_only()), Instant::now());
        let store = MemStore::new();
        let mut publisher = joined(&store, &v, t0);
        // A block within a quiet interval of the join's marker.
        block(&v, 1);
        let head = v.journal_head();
        assert_eq!(publisher.pace(head, t0 + ms(5)), Pace::Nap(QUIET));
        assert_eq!(publisher.pace(head, t0 + ms(15)), Pace::Check);
        let before = (publisher.cursor(), publisher.synced(), publisher.resyncs());
        assert_eq!(publisher.publish(&DeadStore, &v), Shipped::Nothing);
        publisher.record(Shipped::Nothing, t0 + ms(15));
        assert_eq!((publisher.cursor(), publisher.synced(), publisher.resyncs()), before);
        // Not a hot loop against a dead store: one try a period.
        assert_eq!(publisher.pace(head, t0 + ms(15)), Pace::Nap(PERIOD));
        assert_eq!(publisher.pace(head, t0 + ms(15) + PERIOD), Pace::Check);
        // The same interval goes out once the store is back, and is then
        // said to have settled.
        assert_eq!(publisher.publish(&store, &v), Shipped::Deltas(1));
        publisher.record(Shipped::Deltas(1), t0 + ms(16) + PERIOD);
        assert_eq!(publisher.publish(&store, &v), Shipped::Settled);
        // A store that lost the partition NACKs even a heartbeat: a full
        // snapshot goes out instead, and it too is followed by a marker.
        store.remove(SiteId(0)).unwrap();
        assert_eq!(publisher.publish(&store, &v), Shipped::Snapshot);
        assert_eq!(publisher.resyncs(), 2);
        assert_eq!(publisher.publish(&store, &v), Shipped::Settled);
    }

    /// A store without delta support: `publish_deltas` is the trait's
    /// default, which NACKs every interval.
    struct SnapshotOnly(MemStore);
    impl Store for SnapshotOnly {
        fn publish_full(&self, s: SiteId, p: Snapshot, v: u64) -> Result<(), StoreError> {
            self.0.publish_full(s, p, v)
        }
        fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
            self.0.fetch_all()
        }
        fn remove(&self, s: SiteId) -> Result<(), StoreError> {
            self.0.remove(s)
        }
    }

    #[test]
    fn publisher_sends_a_store_without_delta_support_one_snapshot_a_period() {
        let (v, t0) = (Verifier::new(VerifierConfig::publish_only()), Instant::now());
        let store = SnapshotOnly(MemStore::new());
        let mut publisher = Publisher::new(SiteId(0), PERIOD, t0);
        // The join, and the one marker attempt it is owed: NACKed, so a
        // second snapshot goes out — and the publisher has learnt.
        for snapshot in 1..=2 {
            assert_eq!(publisher.pace(v.journal_head(), t0), Pace::Check);
            assert_eq!(publisher.publish(&store, &v), Shipped::Snapshot);
            publisher.record(Shipped::Snapshot, t0);
            assert_eq!(publisher.resyncs(), snapshot);
        }
        // From here on: a snapshot where a store with delta support gets
        // an interval, and nothing after it. Idle, that is one a period.
        let mut now = t0;
        for beat in 0..3 {
            assert_eq!(publisher.pace(v.journal_head(), now), Pace::Park, "beat {beat}");
            now += publisher.park_for(now);
            assert_eq!(publisher.pace(v.journal_head(), now), Pace::Check, "beat {beat}");
            assert_eq!(publisher.publish(&store, &v), Shipped::Snapshot, "beat {beat}");
            publisher.record(Shipped::Snapshot, now);
        }
        assert_eq!((now - t0, publisher.resyncs()), (3 * PERIOD, 5));
        // A burst: one snapshot a quiet interval after it ends, then parked.
        block(&v, 1);
        assert_eq!(publisher.pace(v.journal_head(), now), Pace::Nap(QUIET));
        assert_eq!(publisher.pace(v.journal_head(), now + QUIET), Pace::Check);
        assert_eq!(publisher.publish(&store, &v), Shipped::Snapshot);
        publisher.record(Shipped::Snapshot, now + QUIET);
        assert_eq!(publisher.pace(v.journal_head(), now + QUIET), Pace::Park);
        assert_eq!(publisher.resyncs(), 6);
        assert_eq!(store.fetch_all().unwrap()[0].1, v.local_snapshot());
    }

    /// The handshake between `Verifier::block` and a publisher parked on
    /// the verifier's signal, played by hand: the program's step is the
    /// block, the publisher's steps are the head it read before deciding
    /// to park and the second look `Signal::park` takes. A block is placed
    /// in each window in turn; with an hour-long wait, a block lost in any
    /// of them shows as a time-out.
    #[test]
    fn publisher_handshake_keeps_a_block_published_in_any_window_of_the_park() {
        let hour = Duration::from_secs(3600);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let v = Verifier::new(VerifierConfig::publish_only());
            let signal = Arc::clone(v.signal());
            let second_look = |head: u64| nothing_published(&v, head);
            // After the publisher read the head, before it announces the
            // wait: nobody is parked, so the block leaves no wake-up — the
            // second look finds it.
            let head = v.journal_head();
            block(&v, 1);
            assert!(!signal.park(|| second_look(head), hour));
            // Between the announcement and the second look: the look finds
            // it (and the block's wake-up is spare).
            let head = v.journal_head();
            let stop = signal.park(
                || {
                    block(&v, 2);
                    second_look(head)
                },
                hour,
            );
            assert!(!stop);
            // After the second look, before the wait: the block found the
            // flag, and its wake-up waits for the wait.
            let head = v.journal_head();
            let stop = signal.park(
                || {
                    let nothing_new = second_look(head);
                    block(&v, 3);
                    nothing_new
                },
                hour,
            );
            assert!(!stop);
            // And a stop is never mistaken for a wake-up.
            v.shutdown();
            assert!(signal.park(|| second_look(v.journal_head()), hour));
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(30)).expect("the park waited: a block was lost");
    }
}
