//! Seeded fault injection for the site↔store transport: drop, duplicate,
//! and reorder (delay) delta publishes — the message-level failure modes
//! the versioned delta protocol must tolerate, on top of the whole-store
//! outages [`crate::store::FaultyStore`] injects.
//!
//! The chaos is **deterministic**: every decision comes from a seeded
//! generator, so a failing interaction replays from its seed. The
//! protocol's safety argument under chaos is simple and is what the tests
//! pin down:
//!
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
//!   full-snapshot resync.
//!
//! Net effect: chaos can only cost resyncs, never partition corruption —
//! the store's partitions always converge to some publisher-consistent
//! state, which is exactly what the simulation testkit's differential
//! oracle needs from the distributed layer.

use std::sync::atomic::{AtomicU64, Ordering};

use armus_core::{Delta, Snapshot};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::store::{DeltaAck, SiteId, Store, StoreError};

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
/// delta-publish path. Full publishes and fetches pass through: they are
/// the recovery mechanism under test, not the fault surface.
pub struct ChaosStore<S> {
    inner: S,
    cfg: ChaosConfig,
    rng: Mutex<SmallRng>,
    delayed: Mutex<Vec<Delayed>>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed_count: AtomicU64,
    stale_nacks: AtomicU64,
}

impl<S: Store> ChaosStore<S> {
    /// Wraps `inner` with the given fault profile; all chaos decisions
    /// derive from `seed`.
    pub fn new(inner: S, cfg: ChaosConfig, seed: u64) -> ChaosStore<S> {
        ChaosStore {
            inner,
            cfg,
            rng: Mutex::new(SmallRng::seed_from_u64(seed)),
            delayed: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed_count: AtomicU64::new(0),
            stale_nacks: AtomicU64::new(0),
        }
    }

    /// The wrapped store, e.g. to read transport counters when chaos is
    /// layered over [`crate::tcp::TcpStore`].
    pub fn inner(&self) -> &S {
        &self.inner
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
    /// the point. If the inner store errors mid-flush (e.g. a layered
    /// outage window), the undelivered intervals — the failed one
    /// included — are re-queued so a delay never silently becomes a drop.
    pub fn flush_delayed(&self) -> Result<(), StoreError> {
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
        // behind newer publishes, i.e. arrives reordered.
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

    fn publish_stats(
        &self,
        site: SiteId,
        stats: crate::store::SiteStats,
    ) -> Result<(), StoreError> {
        // Observability traffic is not part of the chaos model: forward.
        self.inner.publish_stats(site, stats)
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        self.inner.fetch_all()
    }

    fn remove(&self, site: SiteId) -> Result<(), StoreError> {
        self.inner.remove(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use armus_core::{
        BlockedInfo, JournalRead, PhaserId, Registration, Resource, TaskId, Verifier,
        VerifierConfig,
    };

    fn info(task: u64) -> BlockedInfo {
        BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )
    }

    /// One site publisher round against an arbitrary store, mirroring
    /// `site::publish_round`'s protocol: deltas while synced, full
    /// snapshot to (re)join.
    fn round(
        store: &dyn Store,
        v: &Verifier,
        cursor: &mut u64,
        synced: &mut bool,
        resyncs: &mut u64,
    ) {
        if *synced {
            match v.deltas_since(*cursor) {
                JournalRead::Deltas(deltas, next) => {
                    match store.publish_deltas(SiteId(0), *cursor, &deltas, next) {
                        Ok(DeltaAck::Applied) => *cursor = next,
                        Ok(DeltaAck::NeedSnapshot) => *synced = false,
                        Err(_) => return,
                    }
                }
                JournalRead::Behind => *synced = false,
            }
        }
        if !*synced {
            let (snapshot, head) = v.snapshot_with_cursor();
            if store.publish_full(SiteId(0), snapshot, head).is_ok() {
                *cursor = head;
                *synced = true;
                *resyncs += 1;
            }
        }
    }

    #[test]
    fn chaos_costs_resyncs_never_corruption() {
        for seed in 0..20u64 {
            let store = ChaosStore::new(MemStore::new(), ChaosConfig::default(), seed);
            let v = Verifier::new(VerifierConfig::publish_only().with_journal_capacity(8));
            let (mut cursor, mut synced, mut resyncs) = (0u64, false, 0u64);
            // Deterministic churn interleaved with publisher rounds.
            for i in 0..200u64 {
                let b = info(i % 16);
                v.block(b.task, b.waits, b.registered).unwrap();
                if i % 5 == 0 {
                    v.unblock(TaskId(i % 16));
                }
                if i % 3 == 0 {
                    round(&store, &v, &mut cursor, &mut synced, &mut resyncs);
                }
            }
            // Quiesce: flush delayed traffic, then run rounds until one
            // fully succeeds (drop/delay faults can reject a round; the
            // protocol retries — bounded here for determinism).
            store.flush_delayed().unwrap();
            for _ in 0..100 {
                round(&store, &v, &mut cursor, &mut synced, &mut resyncs);
                let caught_up = synced
                    && matches!(v.deltas_since(cursor), JournalRead::Deltas(ref d, _) if d.is_empty());
                if caught_up {
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
                 (dropped {} duplicated {} delayed {} stale-NACKs {}, {resyncs} resyncs)",
                store.dropped(),
                store.duplicated(),
                store.delayed(),
                store.stale_nacks(),
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
}
