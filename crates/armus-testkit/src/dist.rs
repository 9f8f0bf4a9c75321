//! Fault injection and process glue for the distributed layer
//! (`armus-dist`): what its fault-tolerance tests — and, next, this
//! crate's scheduler (the differential oracle across the process
//! boundary) — put *underneath* a [`Site`](armus_dist::Site) or a
//! [`Cluster`](armus_dist::Cluster). None of it ships in the product
//! crate.
//!
//! [`ChaosStore`] is the one [`Store`] wrapper: seeded drop, duplicate and
//! reorder (delay) of delta publishes — the message-level failure modes
//! the versioned delta protocol must tolerate — plus a whole-store
//! **outage**, an explicit [`ChaosStore::set_available`] switch rather
//! than a fourth probability, because the §5.2 tests need the window's
//! edges exactly where they put them. [`StoredProcess`] spawns and drains
//! an `armus-stored` child for the multi-process tests.
//!
//! The chaos is **deterministic**: every decision comes from a seeded
//! generator, so a failing interaction replays from its seed. The
//! protocol's safety argument under chaos is simple and is what the tests
//! pin down:
//!
//! * an operation attempted during an **outage** fails with
//!   [`StoreError::Unavailable`] and touches nothing: rounds are skipped,
//!   and what the store held before the window it still holds after;
//! * a **dropped** publish surfaces to the site as a transport error
//!   ([`StoreError::Unavailable`]), so the site retries — nothing was
//!   applied;
//! * a **duplicated** delta interval can never double-apply: a non-empty
//!   interval advanced the partition version, so the second application's
//!   base no longer matches and the store NACKs it
//!   ([`DeltaAck::NeedSnapshot`]); an *empty* interval (a heartbeat,
//!   `base == next`) re-applies as a no-op — either way the partition is
//!   unchanged;
//! * a **delayed** (reordered) interval is delivered *after* later
//!   traffic; its stale base version is NACKed on arrival, and the error
//!   returned at send time already pushed the site towards a
//!   full-snapshot resync. An outage in between keeps it queued: a delay
//!   never silently becomes a drop.
//!
//! Net effect: chaos can only cost resyncs, never partition corruption —
//! the store's partitions always converge to some publisher-consistent
//! state, which is exactly what the simulation testkit's differential
//! oracle needs from the distributed layer.

use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use armus_core::{Delta, Snapshot};
use armus_dist::{DeltaAck, Feed, SiteId, SiteStats, Store, StoreError, TcpStore};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fault probabilities of a [`ChaosStore`].
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Probability a delta publish is dropped (site sees `Unavailable`).
    pub drop_prob: f64,
    /// Probability a delta publish is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a delta publish is delayed and delivered out of order
    /// (site sees `Unavailable`; the stale interval arrives later).
    pub delay_prob: f64,
}

impl ChaosConfig {
    /// No message chaos at all: the wrapper only injects the outages its
    /// [`ChaosStore::set_available`] switch is told to.
    pub const NONE: ChaosConfig =
        ChaosConfig { drop_prob: 0.0, duplicate_prob: 0.0, delay_prob: 0.0 };
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { drop_prob: 0.15, duplicate_prob: 0.15, delay_prob: 0.15 }
    }
}

/// A delayed delta publish, waiting to be (re)delivered out of order.
struct Delayed {
    site: SiteId,
    base: u64,
    deltas: Vec<Delta>,
    next: u64,
}

/// A store wrapper injecting seeded drop/duplicate/reorder faults on the
/// delta-publish path, and outage windows on every data-path operation.
/// Outside an outage, full publishes and reads pass through: they are
/// the recovery mechanism under test, not the fault surface.
pub struct ChaosStore<S> {
    inner: S,
    cfg: ChaosConfig,
    rng: Mutex<SmallRng>,
    delayed: Mutex<Vec<Delayed>>,
    available: AtomicBool,
    rejected: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed_count: AtomicU64,
    stale_nacks: AtomicU64,
}

impl<S: Store> ChaosStore<S> {
    /// Wraps `inner`, initially available, with the given fault profile;
    /// all chaos decisions derive from `seed`.
    pub fn new(inner: S, cfg: ChaosConfig, seed: u64) -> ChaosStore<S> {
        ChaosStore {
            inner,
            cfg,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            delayed: Mutex::new(Vec::new()),
            available: AtomicBool::new(true),
            rejected: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed_count: AtomicU64::new(0),
            stale_nacks: AtomicU64::new(0),
        }
    }

    /// The wrapped store, bypassing every fault — to read transport
    /// counters when chaos is layered over [`TcpStore`], or to seed state
    /// "written before the outage began".
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Starts (`false`) or ends (`true`) an outage window: while it lasts
    /// every publish, fetch and remove fails with
    /// [`StoreError::Unavailable`] without reaching the wrapped store.
    pub fn set_available(&self, available: bool) {
        self.available.store(available, Ordering::SeqCst);
    }

    /// Operations rejected by outage windows so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    fn gate(&self) -> Result<(), StoreError> {
        if self.available.load(Ordering::SeqCst) {
            Ok(())
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            Err(StoreError::Unavailable)
        }
    }

    /// Publishes dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publishes duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Publishes delayed (reordered) so far.
    pub fn delayed(&self) -> u64 {
        self.delayed_count.load(Ordering::Relaxed)
    }

    /// Late or duplicated intervals the inner store refused to apply —
    /// the protocol working as designed.
    pub fn stale_nacks(&self) -> u64 {
        self.stale_nacks.load(Ordering::Relaxed)
    }

    /// Delivers every delayed interval now (out of order by
    /// construction). Stale bases are NACKed by the inner store; that is
    /// the point. An outage rejects the flush with the queue untouched;
    /// if the inner store errors mid-flush (a [`TcpStore`] whose server
    /// is restarting), the undelivered intervals — the failed one
    /// included — are re-queued. Either way a delay never silently
    /// becomes a drop.
    pub fn flush_delayed(&self) -> Result<(), StoreError> {
        self.gate()?;
        let mut pending: Vec<Delayed> = std::mem::take(&mut *self.delayed.lock());
        while !pending.is_empty() {
            let d = pending.remove(0);
            match self.inner.publish_deltas(d.site, d.base, &d.deltas, d.next) {
                Ok(DeltaAck::NeedSnapshot) => {
                    self.stale_nacks.fetch_add(1, Ordering::Relaxed);
                }
                Ok(DeltaAck::Applied) => {}
                Err(e) => {
                    let mut queue = self.delayed.lock();
                    let mut rest = vec![d];
                    rest.extend(pending);
                    rest.extend(queue.drain(..));
                    *queue = rest;
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

impl<S: Store> Store for ChaosStore<S> {
    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        self.gate()?;
        self.inner.publish_full(site, partition, version)
    }

    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        // Deliver earlier-delayed traffic first: by now it interleaves
        // behind newer publishes, i.e. arrives reordered. This is also
        // where an outage rejects the publish.
        self.flush_delayed()?;
        let roll: f64 = {
            let mut rng = self.rng.lock();
            rng.gen_range(0..1_000_000u64) as f64 / 1_000_000.0
        };
        if roll < self.cfg.drop_prob {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Unavailable);
        }
        if roll < self.cfg.drop_prob + self.cfg.delay_prob {
            self.delayed_count.fetch_add(1, Ordering::Relaxed);
            self.delayed.lock().push(Delayed { site, base, deltas: deltas.to_vec(), next });
            return Err(StoreError::Unavailable);
        }
        let ack = self.inner.publish_deltas(site, base, deltas, next)?;
        if roll < self.cfg.drop_prob + self.cfg.delay_prob + self.cfg.duplicate_prob {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            if self.inner.publish_deltas(site, base, deltas, next)? == DeltaAck::NeedSnapshot {
                self.stale_nacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(ack)
    }

    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        // Observability traffic is not part of the chaos model, outages
        // included: stats are a best-effort side channel, and counting
        // their rejections would skew the data-path count the
        // fault-tolerance tests assert on.
        self.inner.publish_stats(site, stats)
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        self.gate()?;
        self.inner.fetch_all()
    }

    fn changes_since(&self, cursor: Option<u64>) -> Result<(u64, Feed), StoreError> {
        self.gate()?;
        self.inner.changes_since(cursor)
    }

    fn remove(&self, site: SiteId) -> Result<(), StoreError> {
        self.gate()?;
        self.inner.remove(site)
    }
}

/// A child `armus-stored` process: spawn, address scraping, drain — the
/// server half of a multi-process test (the site halves are the caller's
/// own [`Command`]s, given [`StoredProcess::addr`]).
pub struct StoredProcess {
    child: Child,
    addr: String,
}

impl StoredProcess {
    /// Spawns `binary` listening on an ephemeral loopback port, waits for
    /// its `listening on <addr>` banner, and redirects its stderr log to
    /// `log` (when given) for post-mortem upload.
    pub fn spawn(
        binary: &Path,
        lease: Option<Duration>,
        log: Option<&Path>,
    ) -> io::Result<StoredProcess> {
        let mut cmd = Command::new(binary);
        cmd.arg("--listen").arg("127.0.0.1:0").stdout(Stdio::piped());
        if let Some(ttl) = lease {
            cmd.arg("--lease-ms").arg(ttl.as_millis().to_string());
        }
        match log {
            Some(path) => {
                cmd.stderr(std::fs::File::create(path)?);
            }
            None => {
                cmd.stderr(Stdio::inherit());
            }
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut banner = String::new();
        io::BufRead::read_line(&mut io::BufReader::new(stdout), &mut banner)?;
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .filter(|a| a.contains(':'))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("no listen address in armus-stored banner {banner:?}"),
                )
            })?
            .to_string();
        Ok(StoredProcess { child, addr })
    }

    /// The child's listen address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends the in-band drain command, waits for the server's ack (so
    /// the request is known delivered before the socket closes), then
    /// waits for the child to exit; falls back to killing it when the
    /// drain cannot be delivered.
    pub fn stop(mut self) -> io::Result<()> {
        let drained = TcpStore::new(self.addr.clone()).shutdown_server();
        if drained.is_err() {
            let _ = self.child.kill();
        }
        self.child.wait().map(|_| ())
    }
}

impl Drop for StoredProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(all(test, not(feature = "verifier-mutation")))]
mod tests {
    use super::*;
    use armus_core::{
        BlockedInfo, PhaserId, Registration, Resource, TaskId, Verifier, VerifierConfig,
    };
    use armus_dist::{Cluster, MemStore, Publisher, Shipped, SiteConfig};
    use std::sync::Arc;
    use std::time::Instant;

    fn info(task: u64) -> BlockedInfo {
        BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )
    }

    #[test]
    fn chaos_costs_resyncs_never_corruption() {
        for seed in 0..20u64 {
            let store = ChaosStore::new(MemStore::new(), ChaosConfig::default(), seed);
            let v = Verifier::new(VerifierConfig::publish_only().with_journal_capacity(8));
            // The product's publisher, stepped by hand: its protocol
            // without its thread or its clock.
            let mut publisher = Publisher::new(SiteId(0), Duration::from_millis(5), Instant::now());
            // Deterministic churn interleaved with publisher rounds.
            for i in 0..200u64 {
                let b = info(i % 16);
                v.block(b.task, b.waits, b.registered).unwrap();
                if i % 5 == 0 {
                    v.unblock(TaskId(i % 16));
                }
                if i % 3 == 0 {
                    publisher.publish(&store, &v);
                }
            }
            // Quiesce: flush delayed traffic, then run rounds until one
            // fully succeeds (drop/delay faults can reject a round; the
            // protocol retries — bounded here for determinism).
            store.flush_delayed().unwrap();
            for _ in 0..100 {
                // An acknowledged empty interval: in sync, nothing left.
                if matches!(publisher.publish(&store, &v), Shipped::Settled | Shipped::Heartbeat) {
                    break;
                }
            }
            store.flush_delayed().unwrap();
            // The partition equals the publisher's truth, entry for entry.
            let all = store.fetch_all().unwrap();
            let partition = &all.iter().find(|(s, _)| *s == SiteId(0)).unwrap().1;
            assert_eq!(
                partition,
                &v.local_snapshot(),
                "seed {seed}: chaos must never corrupt the partition \
                 (dropped {} duplicated {} delayed {} stale-NACKs {}, {} resyncs)",
                store.dropped(),
                store.duplicated(),
                store.delayed(),
                store.stale_nacks(),
                publisher.resyncs(),
            );
        }
    }

    #[test]
    fn duplicates_and_late_intervals_are_nacked_not_applied() {
        let store = ChaosStore::new(
            MemStore::new(),
            // Duplicate every delta publish, never drop or delay.
            ChaosConfig { drop_prob: 0.0, duplicate_prob: 1.0, delay_prob: 0.0 },
            7,
        );
        let block = |task: u64| Delta::Block(info(task));
        store.publish_full(SiteId(0), Snapshot::empty(), 0).unwrap();
        assert_eq!(store.publish_deltas(SiteId(0), 0, &[block(1)], 1).unwrap(), DeltaAck::Applied);
        assert_eq!(store.duplicated(), 1);
        assert_eq!(store.stale_nacks(), 1, "the duplicate was NACKed, not double-applied");
        let all = store.fetch_all().unwrap();
        assert_eq!(all[0].1.len(), 1, "exactly one task despite the duplicate");
    }

    fn snap(task: u64) -> Snapshot {
        Snapshot::from_tasks(vec![info(task)])
    }

    #[test]
    fn an_outage_rejects_and_counts_every_data_path_operation() {
        let store = ChaosStore::new(MemStore::new(), ChaosConfig::NONE, 0);
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        store.set_available(false);
        assert_eq!(store.publish_full(SiteId(0), snap(2), 2), Err(StoreError::Unavailable));
        assert_eq!(store.publish_deltas(SiteId(0), 1, &[], 1), Err(StoreError::Unavailable));
        assert_eq!(store.fetch_all().unwrap_err(), StoreError::Unavailable);
        assert_eq!(store.remove(SiteId(0)), Err(StoreError::Unavailable));
        assert_eq!(store.rejected(), 4);
        store.set_available(true);
        // Data from before the outage survives it untouched (the paper's
        // assumption: the store itself is fault-tolerant).
        let all = store.fetch_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.tasks[0].task, TaskId(1));
        assert_eq!(store.publish_deltas(SiteId(0), 1, &[], 1), Ok(DeltaAck::Applied));
        assert_eq!(store.rejected(), 4, "nothing is rejected outside the window");
    }

    #[test]
    fn stats_publishes_bypass_the_outage() {
        let store = ChaosStore::new(MemStore::new(), ChaosConfig::NONE, 0);
        store.set_available(false);
        store.publish_stats(SiteId(0), SiteStats { blocks: 7, ..SiteStats::default() }).unwrap();
        assert_eq!(store.rejected(), 0, "observability must not skew the outage count");
        assert_eq!(store.inner().site_stats().len(), 1, "and it reached the store");
    }

    #[test]
    fn inner_writes_through_an_outage() {
        let store = ChaosStore::new(MemStore::new(), ChaosConfig::NONE, 0);
        store.set_available(false);
        store.inner().publish_full(SiteId(9), snap(1), 1).unwrap();
        assert_eq!(store.rejected(), 0);
        assert_eq!(store.fetch_all().unwrap_err(), StoreError::Unavailable);
        store.set_available(true);
        assert_eq!(store.fetch_all().unwrap()[0].0, SiteId(9), "written before the outage began");
    }

    /// The case `flush_delayed` exists for: an interval the chaos delayed
    /// *before* an outage began must outlive the window and arrive — stale
    /// — behind the first publish after it.
    #[test]
    fn an_interval_delayed_before_an_outage_is_delivered_after_it() {
        // (dropped, duplicated, delayed, stale NACKs, rejected)
        let run = |seed: u64| -> (u64, u64, u64, u64, u64) {
            let cfg = ChaosConfig { drop_prob: 0.0, duplicate_prob: 0.0, delay_prob: 0.5 };
            let store = ChaosStore::new(MemStore::new(), cfg, seed);
            let block = |task: u64| Delta::Block(info(task));
            store.publish_full(SiteId(0), Snapshot::empty(), 0).unwrap();
            // Publish one task an interval until the chaos delays one.
            let mut version = 0;
            while store.delayed() == 0 {
                if store.publish_deltas(SiteId(0), version, &[block(version)], version + 1).is_ok()
                {
                    version += 1;
                }
            }
            // The site saw `Unavailable` and resyncs past the queued
            // interval, which is stale from here on.
            store.publish_full(SiteId(0), snap(100), version + 1).unwrap();
            store.set_available(false);
            let heartbeat = || store.publish_deltas(SiteId(0), version + 1, &[], version + 1);
            assert_eq!(heartbeat(), Err(StoreError::Unavailable));
            assert_eq!(store.flush_delayed(), Err(StoreError::Unavailable));
            assert_eq!(store.rejected(), 2);
            assert_eq!(store.stale_nacks(), 0, "nothing is delivered during the outage");
            store.set_available(true);
            // The first publish after the window flushes the queue ahead
            // of itself (its own fate is the seed's business).
            let _ = heartbeat();
            assert_eq!(store.stale_nacks(), 1, "seed {seed}: delivered late, and NACKed");
            assert_eq!(store.rejected(), 2);
            store.flush_delayed().unwrap();
            let all = store.fetch_all().unwrap();
            assert_eq!(all[0].1, snap(100), "seed {seed}: the late interval applied nothing");
            (
                store.dropped(),
                store.duplicated(),
                store.delayed(),
                store.stale_nacks(),
                store.rejected(),
            )
        };
        for seed in 0..20u64 {
            assert_eq!(run(seed), run(seed), "seed {seed} must replay");
        }
    }

    fn fast_cfg() -> SiteConfig {
        SiteConfig {
            publish_period: Duration::from_millis(5),
            check_period: Duration::from_millis(10),
            ..Default::default()
        }
    }

    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn a_cluster_runs_on_the_very_store_it_is_given() {
        let chaos = Arc::new(ChaosStore::new(MemStore::new(), ChaosConfig::NONE, 0));
        // An outage from before the first site starts: whatever reaches
        // the wrapped store got there around our handle.
        chaos.set_available(false);
        let store: Arc<dyn Store> = chaos.clone();
        let cluster = Cluster::start_on(Arc::clone(&store), 3, fast_cfg());
        assert!(Arc::ptr_eq(&store, cluster.store()), "the cluster wraps nothing around it");
        assert!(eventually(|| chaos.rejected() >= 3), "the sites' rounds hit our switch");
        assert!(chaos.inner().fetch_all().unwrap().is_empty(), "no site has another way in");
        chaos.set_available(true);
        assert!(
            eventually(|| chaos.inner().fetch_all().unwrap().len() == 3),
            "every site joins through the same handle once it serves"
        );
        cluster.stop();
    }

    #[test]
    fn a_started_cluster_sits_on_a_bare_memstore() {
        let cluster = Cluster::start(2, fast_cfg());
        let verifier = cluster.sites()[1].runtime().verifier();
        let b = info(7);
        verifier.block(b.task, b.waits, b.registered).unwrap();
        // What the site published is what the cluster's store returns:
        // nothing sits in between to reject, count or reorder it.
        assert!(eventually(|| {
            let all = cluster.store().fetch_all().unwrap();
            all.len() == 2 && all[1] == (SiteId(1), verifier.local_snapshot())
        }));
        cluster.stop();
    }
}
