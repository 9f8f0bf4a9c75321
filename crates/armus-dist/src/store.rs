//! The global resource-dependency store (paper §5.2).
//!
//! The paper keeps the global blocked status in a dedicated Redis server;
//! each Armus instance periodically updates a disjoint portion of the
//! global resource-dependency with the contents of its local
//! resource-dependencies (§5.2). [`MemStore`] reproduces that interaction
//! surface in-process: per-site partitions, whole-view fetch. Any call
//! may fail with [`StoreError::Unavailable`] — "the algorithm resists (ii)
//! because Redis itself is fault-tolerant"; here tolerance is *tested*
//! instead, by `armus_testkit::dist::ChaosStore` making a store
//! unavailable for windows of time.
//!
//! The paper's store is passive and must be polled. A [`MemStore`] also
//! keeps one **change log** a tenant, a bounded [`Window`]: every write
//! appends — under the partitions lock it holds anyway — the
//! site-namespaced ids of the tasks whose stored status it may have
//! changed, whoever reads them. Every checker, a site's and the
//! `armus-stored` one, follows that log by cursor
//! ([`Store::changes_since`]): a read answers the tasks written since the
//! reader's cursor as block/unblock deltas, work proportional to what
//! changed, not to what is stored. A reader without a cursor this store
//! instance issued, or one the log's window has passed, gets the whole
//! view instead — the local journal's `Behind` → snapshot resync, one
//! level up. The log keeps no per-reader state.
//!
//! Partitions are updated **incrementally**: a site normally publishes only
//! each task's last journal [`Delta`] over the interval since its previous
//! publish ([`Store::publish_deltas`]; a batch is applied as per-task
//! upserts, so the earlier deltas would change nothing), tagged with the
//! journal interval they cover; the store applies them only when its
//! recorded version matches the interval's base, and answers
//! [`DeltaAck::NeedSnapshot`] otherwise. The full-snapshot path
//! ([`Store::publish_full`]) remains for joins and recovery — a fresh
//! site, a store that lost the partition, or a publisher whose journal
//! truncated past its cursor.
//!
//! A long-lived shared store serves many independent *applications*, not
//! just many sites of one: partitions are keyed `(tenant, site)` — a
//! [`TenantId`] generalising the site-namespacing of task ids one level
//! up — and fetches are tenant-scoped, so two applications using the same
//! `SiteId`s never see (or confirm deadlocks against) each other's
//! blocked sets. The [`Store`] trait itself stays tenant-agnostic: a
//! handle is bound to one tenant (the networked
//! [`crate::tcp::TcpStore`] stamps its tenant on every request; the plain
//! [`MemStore`] methods operate on [`TenantId::DEFAULT`]).
//!
//! Implementations are `Send + Sync` and are routinely **shared** across
//! sites and threads behind one `Arc` — the networked
//! [`crate::tcp::TcpStore`] multiplexes every sharer over a single
//! pipelined connection, so concurrent calls from many sites batch into
//! shared flushes rather than serialising on a socket each.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::time::{Duration, Instant};

use armus_core::{BlockedInfo, Delta, Snapshot, TaskId, Window};
use parking_lot::Mutex;

/// A site (place) identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A tenant (application namespace) identifier: the isolation tag that
/// lets many independent applications share one store server. Partitions
/// are keyed `(tenant, site)`, and fetches/subscriptions are scoped to one
/// tenant, so colliding `SiteId`s across applications never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The namespace used by handles that never picked one — single-tenant
    /// deployments and the in-process [`Store`] impls.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl Default for TenantId {
    fn default() -> TenantId {
        TenantId::DEFAULT
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Store failures surfaced to publishers/checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The store is (temporarily) unreachable.
    Unavailable,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global store unavailable")
    }
}

impl std::error::Error for StoreError {}

/// The store's answer to a delta publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaAck {
    /// The deltas were applied; the partition is now at the new version.
    Applied,
    /// The store cannot apply the interval (unknown partition, version
    /// mismatch, or no delta support): the site must resync with a full
    /// snapshot via [`Store::publish_full`].
    NeedSnapshot,
}

/// A site's front-end/checker counters as published to the store — the
/// fixed-width observability record behind the server's metrics endpoint
/// (`fastpath_skips`, `resyncs`, `async_waits`, `waker_wakes` and friends,
/// aggregated per `(tenant, site)` by `armus-stored`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Blocked-status publications on the site's local verifier.
    pub blocks: u64,
    /// Unblocks on the site's local verifier.
    pub unblocks: u64,
    /// Avoidance checks answered by the resource-cardinality fast path.
    pub fastpath_skips: u64,
    /// Full-snapshot publishes by the site's publisher (join + recovery).
    pub publish_resyncs: u64,
    /// Waits parked on the site's phasers, from either front-end.
    pub async_waits: u64,
    /// Parked waits woken, each by an event that resolved it.
    pub waker_wakes: u64,
    /// Check rounds completed by the site's distributed checker.
    pub checker_rounds: u64,
    /// Rounds answered entirely from the maintained topological order.
    pub incremental_detections: u64,
    /// Deadlock reports evicted from the site's bounded report ring.
    pub reports_dropped: u64,
}

/// The store interface used by sites: publish-partition (full or
/// delta-based), fetch-all and the change-log read. Tenant-agnostic by
/// design — a handle is bound to one tenant namespace (see the module
/// docs).
pub trait Store: Send + Sync {
    /// Replaces `site`'s partition of the global resource-dependency and
    /// records `version` (the publisher's journal cursor) so that
    /// subsequent [`Store::publish_deltas`] calls can resume from it. A
    /// store without delta support may discard the version.
    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError>;

    /// Applies the journal deltas covering versions `[base, next)` to
    /// `site`'s partition, provided the stored version equals `base`. The
    /// default declines ([`DeltaAck::NeedSnapshot`]), which makes every
    /// site fall back to full publishes against delta-unaware stores.
    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        let _ = (site, base, deltas, next);
        Ok(DeltaAck::NeedSnapshot)
    }

    /// Publishes the site's observability counters ([`SiteStats`]) so the
    /// store's metrics surface can aggregate them. Best-effort and
    /// side-channel: the default discards (a store without a metrics
    /// surface has nowhere to put them), and publishers ignore failures.
    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        let _ = (site, stats);
        Ok(())
    }

    /// Fetches every partition (the checker's global view).
    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError>;

    /// What changed since `cursor`, a cursor an earlier read returned, and
    /// the cursor to read from next. A read changes nothing, so a lost
    /// answer is read again. The default, for a passive store that keeps
    /// no log, answers the whole view and cursor 0, which it never honours.
    fn changes_since(&self, cursor: Option<u64>) -> Result<(u64, Feed), StoreError> {
        let _ = cursor;
        Ok((0, Feed::Join(self.fetch_all()?)))
    }

    /// Drops `site`'s partition (site shutdown or failure cleanup).
    fn remove(&self, site: SiteId) -> Result<(), StoreError>;
}

/// One site's stored partition: the blocked map, the journal version it is
/// at, and the instant of the last publish that touched it (the lease
/// refresh time).
struct Partition {
    version: u64,
    tasks: HashMap<TaskId, BlockedInfo>,
    refreshed: Instant,
}

impl Partition {
    fn from_snapshot(snapshot: Snapshot, version: u64) -> Partition {
        Partition {
            version,
            tasks: snapshot.tasks.into_iter().map(|b| (b.task, b)).collect(),
            refreshed: Instant::now(),
        }
    }

    fn materialize(&self) -> Snapshot {
        Snapshot::from_tasks(self.tasks.values().cloned().collect())
    }
}

/// Entries a tenant's change log keeps — 8 B each, so 0.5 MB a tenant at
/// most. A reader further behind than this joins afresh.
pub(crate) const LOG_CAPACITY: usize = 1 << 16;

/// Logs `site`'s ids of `tasks` in `tenant`'s change log, one entry a
/// write and task: a write pays a push and a read sorts out the repeats (a
/// set costs the connection threads ≈ 45 ns a delta). An id that cannot be
/// namespaced is logged for nobody: a merged view never holds it either
/// ([`crate::merge`]), and `armus-stored` refuses it at the boundary.
fn note(logs: &mut Logs, tenant: TenantId, site: SiteId, tasks: impl Iterator<Item = TaskId>) {
    let log = logs.entry(tenant).or_insert_with(|| Window::new(LOG_CAPACITY));
    tasks.filter_map(|task| task.checked_with_site(site.0)).for_each(|task| log.push(task));
}

/// Each tenant's change log, from its first write on.
type Logs = BTreeMap<TenantId, Window<TaskId>>;

/// Everything the partitions lock guards: the partitions, and the log of
/// what their writers changed.
#[derive(Default)]
struct Stored {
    partitions: BTreeMap<(TenantId, SiteId), Partition>,
    logs: Logs,
}

/// The task a delta is about.
pub(crate) fn delta_task(delta: &Delta) -> TaskId {
    match delta {
        Delta::Block(info) => info.task,
        Delta::Unblock(task) => *task,
    }
}

/// The stored status of the site-namespaced `task`, in its partition.
fn stored_status(
    partitions: &BTreeMap<(TenantId, SiteId), Partition>,
    tenant: TenantId,
    task: TaskId,
) -> Option<&BlockedInfo> {
    let site = SiteId(task.site_tag()?);
    partitions.get(&(tenant, site))?.tasks.get(&task.local())
}

fn sites_of(tenant: TenantId) -> std::ops::RangeInclusive<(TenantId, SiteId)> {
    (tenant, SiteId(0))..=(tenant, SiteId(u32::MAX))
}

/// `tenant`'s partitions, each materialised.
fn view_of(
    partitions: &BTreeMap<(TenantId, SiteId), Partition>,
    tenant: TenantId,
) -> Vec<(SiteId, Snapshot)> {
    partitions.range(sites_of(tenant)).map(|(&(_, site), p)| (site, p.materialize())).collect()
}

/// What a read of the change log answers ([`Store::changes_since`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Feed {
    /// The tenant's whole view: the reader begins here.
    Join(Vec<(SiteId, Snapshot)>),
    /// The tasks written since the cursor, each as the site-namespaced
    /// delta that leads to its stored status: a `Block` with it, or an
    /// `Unblock` if it has none. Applying them is an idempotent per-task
    /// upsert, so a task written many times between two reads costs one
    /// delta.
    Deltas(Vec<Delta>),
}

/// In-process store: the Redis stand-in.
///
/// Optionally lease-based ([`MemStore::with_lease`]): every publish —
/// full or delta (empty heartbeat intervals included) — refreshes
/// the publishing site's lease, and [`Store::fetch_all`] drops partitions
/// whose lease has lapsed. A site that crashes (or is partitioned away)
/// without removing its partition therefore stops contributing to the
/// merged view after one TTL, instead of its last blocked statuses
/// lingering forever and confirming deadlocks that no longer exist.
///
/// Partitions are keyed `(tenant, site)`. The plain [`Store`] impl
/// operates on [`TenantId::DEFAULT`]; the `*_in` methods take an explicit
/// tenant — that is what `armus-stored` dispatches per-request tenants
/// through.
pub struct MemStore {
    stored: Mutex<Stored>,
    /// Latest published observability counters per `(tenant, site)`.
    stats: Mutex<BTreeMap<(TenantId, SiteId), SiteStats>>,
    /// Partitions dropped by lease expiry, per tenant.
    expiries: Mutex<BTreeMap<TenantId, u64>>,
    lease: Option<Duration>,
    /// What a cursor this instance issues adds to a log position: random,
    /// so another instance's cursor falls in no log window of this one's
    /// but by a 2⁻⁴⁸ chance.
    origin: u64,
}

impl Default for MemStore {
    fn default() -> MemStore {
        MemStore::new()
    }
}

impl MemStore {
    /// An empty store without lease expiry (partitions live until removed).
    pub fn new() -> MemStore {
        MemStore::with_optional_lease(None)
    }

    /// An empty store whose partitions expire `ttl` after their last
    /// publish. The TTL must comfortably exceed the sites' publish period
    /// (every publisher round — even an empty heartbeat — refreshes).
    pub fn with_lease(ttl: Duration) -> MemStore {
        MemStore::with_optional_lease(Some(ttl))
    }

    fn with_optional_lease(lease: Option<Duration>) -> MemStore {
        MemStore {
            stored: Mutex::default(),
            stats: Mutex::new(BTreeMap::new()),
            expiries: Mutex::new(BTreeMap::new()),
            lease,
            // A hash keyed by the process's random seed and a per-instance
            // counter.
            origin: RandomState::new().hash_one(Instant::now()),
        }
    }

    /// The configured lease TTL, if any.
    pub fn lease(&self) -> Option<Duration> {
        self.lease
    }

    /// Purges partitions whose lease has lapsed (no-op without a lease),
    /// counting the drops per tenant, and drops the stale stats records of
    /// the expired sites.
    fn expire(&self, stored: &mut Stored) {
        let Some(ttl) = self.lease else { return };
        let Stored { partitions, logs } = stored;
        let mut expired: Vec<(TenantId, SiteId)> = Vec::new();
        partitions.retain(|&(tenant, site), p| {
            let live = p.refreshed.elapsed() <= ttl;
            if !live {
                note(logs, tenant, site, p.tasks.keys().copied());
                expired.push((tenant, site));
            }
            live
        });
        if expired.is_empty() {
            return;
        }
        let mut expiries = self.expiries.lock();
        let mut stats = self.stats.lock();
        for key in expired {
            *expiries.entry(key.0).or_insert(0) += 1;
            stats.remove(&key);
        }
    }

    /// Installs `new` — or nothing — as `site`'s partition, logging every
    /// id of the partition that goes and of the one that comes. The lock is
    /// held for the swap and the log: the caller built `new` before it, and
    /// the partition that goes is dropped after it.
    fn replace(&self, tenant: TenantId, site: SiteId, new: Option<Partition>) {
        let _old = {
            let mut stored = self.stored.lock();
            let Stored { partitions, logs } = &mut *stored;
            let old = match new {
                Some(new) => {
                    note(logs, tenant, site, new.tasks.keys().copied());
                    partitions.insert((tenant, site), new)
                }
                None => partitions.remove(&(tenant, site)),
            };
            if let Some(old) = &old {
                note(logs, tenant, site, old.tasks.keys().copied());
            }
            old
        };
    }

    /// Tenant-scoped [`Store::publish_full`].
    pub fn publish_full_in(
        &self,
        tenant: TenantId,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        self.replace(tenant, site, Some(Partition::from_snapshot(partition, version)));
        Ok(())
    }

    /// Tenant-scoped [`Store::publish_deltas`].
    pub fn publish_deltas_in(
        &self,
        tenant: TenantId,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        let mut stored = self.stored.lock();
        let Stored { partitions, logs } = &mut *stored;
        let Some(partition) = partitions.get_mut(&(tenant, site)) else {
            return Ok(DeltaAck::NeedSnapshot);
        };
        if partition.version != base {
            return Ok(DeltaAck::NeedSnapshot);
        }
        for delta in deltas {
            match delta {
                Delta::Block(info) => {
                    partition.tasks.insert(info.task, info.clone());
                }
                Delta::Unblock(task) => {
                    partition.tasks.remove(task);
                }
            }
        }
        partition.version = next;
        partition.refreshed = Instant::now();
        note(logs, tenant, site, deltas.iter().map(delta_task));
        Ok(DeltaAck::Applied)
    }

    /// Tenant-scoped [`Store::publish_stats`].
    pub fn publish_stats_in(
        &self,
        tenant: TenantId,
        site: SiteId,
        stats: SiteStats,
    ) -> Result<(), StoreError> {
        self.stats.lock().insert((tenant, site), stats);
        Ok(())
    }

    /// Tenant-scoped [`Store::fetch_all`]: only `tenant`'s live partitions.
    pub fn fetch_all_in(&self, tenant: TenantId) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        let mut stored = self.stored.lock();
        self.expire(&mut stored);
        Ok(view_of(&stored.partitions, tenant))
    }

    /// Tenant-scoped [`Store::remove`].
    pub fn remove_in(&self, tenant: TenantId, site: SiteId) -> Result<(), StoreError> {
        self.replace(tenant, site, None);
        self.stats.lock().remove(&(tenant, site));
        Ok(())
    }

    /// Tenant-scoped [`Store::changes_since`] (after an expiry sweep): the
    /// tasks logged since `cursor`, or — for a cursor this store did not
    /// issue, or one its log has dropped — the whole view, taken under the
    /// same hold of the partitions lock as the head cursor returned with it.
    pub(crate) fn changes_since_in(
        &self,
        tenant: TenantId,
        cursor: Option<u64>,
    ) -> Result<(u64, Feed), StoreError> {
        let mut stored = self.stored.lock();
        self.expire(&mut stored);
        let Stored { partitions, logs } = &*stored;
        // A read creates nothing: a tenant nobody wrote reads as empty.
        let unwritten = Window::new(0);
        let log = logs.get(&tenant).unwrap_or(&unwritten);
        let feed = match cursor.map(|cursor| log.since(cursor.wrapping_sub(self.origin))) {
            Some(Ok(ids)) => {
                // Sorted, so the read is deterministic and walks one
                // partition after the other.
                let mut ids: Vec<TaskId> = ids.copied().collect();
                ids.sort_unstable();
                ids.dedup();
                Feed::Deltas(
                    ids.into_iter()
                        .map(|task| match stored_status(partitions, tenant, task) {
                            Some(info) => Delta::Block(BlockedInfo { task, ..info.clone() }),
                            None => Delta::Unblock(task),
                        })
                        .collect(),
                )
            }
            _ => Feed::Join(view_of(partitions, tenant)),
        };
        Ok((log.head().wrapping_add(self.origin), feed))
    }

    /// The sites whose partitions of `tenant` are live (after an expiry
    /// sweep).
    pub(crate) fn sites_in(&self, tenant: TenantId) -> Vec<SiteId> {
        let mut stored = self.stored.lock();
        self.expire(&mut stored);
        stored.partitions.range(sites_of(tenant)).map(|(&(_, site), _)| site).collect()
    }

    /// Live partition counts per tenant (after an expiry sweep) — the
    /// per-tenant gauge of the metrics endpoint.
    pub fn tenant_partitions(&self) -> Vec<(TenantId, u64)> {
        let mut stored = self.stored.lock();
        self.expire(&mut stored);
        let mut counts: BTreeMap<TenantId, u64> = BTreeMap::new();
        for &(tenant, _) in stored.partitions.keys() {
            *counts.entry(tenant).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Lease expiries so far, per tenant.
    pub fn tenant_expiries(&self) -> Vec<(TenantId, u64)> {
        self.expiries.lock().iter().map(|(&t, &n)| (t, n)).collect()
    }

    /// Total lease expiries so far (across all tenants).
    pub fn lease_expiries(&self) -> u64 {
        self.expiries.lock().values().sum()
    }

    /// The latest observability counters each site published, per tenant.
    pub fn site_stats(&self) -> Vec<(TenantId, SiteId, SiteStats)> {
        self.stats.lock().iter().map(|(&(t, s), &stats)| (t, s, stats)).collect()
    }
}

#[cfg(test)]
impl MemStore {
    /// `site`'s lease has lapsed: its partition goes with the next sweep.
    pub(crate) fn lapse_in(&self, tenant: TenantId, site: SiteId) {
        let past = self.lease.expect("a leased store") + Duration::from_millis(1);
        if let Some(partition) = self.stored.lock().partitions.get_mut(&(tenant, site)) {
            partition.refreshed =
                Instant::now().checked_sub(past).expect("a lease shorter than the uptime");
        }
    }

    /// How many entries `tenant`'s change log holds.
    pub(crate) fn log_len_in(&self, tenant: TenantId) -> usize {
        self.stored.lock().logs.get(&tenant).map_or(0, |log| log.iter().len())
    }
}

impl Store for MemStore {
    fn publish_full(
        &self,
        site: SiteId,
        partition: Snapshot,
        version: u64,
    ) -> Result<(), StoreError> {
        self.publish_full_in(TenantId::DEFAULT, site, partition, version)
    }

    fn publish_deltas(
        &self,
        site: SiteId,
        base: u64,
        deltas: &[Delta],
        next: u64,
    ) -> Result<DeltaAck, StoreError> {
        self.publish_deltas_in(TenantId::DEFAULT, site, base, deltas, next)
    }

    fn publish_stats(&self, site: SiteId, stats: SiteStats) -> Result<(), StoreError> {
        self.publish_stats_in(TenantId::DEFAULT, site, stats)
    }

    fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
        self.fetch_all_in(TenantId::DEFAULT)
    }

    fn changes_since(&self, cursor: Option<u64>) -> Result<(u64, Feed), StoreError> {
        self.changes_since_in(TenantId::DEFAULT, cursor)
    }

    fn remove(&self, site: SiteId) -> Result<(), StoreError> {
        self.remove_in(TenantId::DEFAULT, site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armus_core::{BlockedInfo, PhaserId, Registration, Resource, TaskId};

    fn snap(task: u64) -> Snapshot {
        Snapshot::from_tasks(vec![BlockedInfo::new(
            TaskId(task),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1)],
        )])
    }

    #[test]
    fn publish_replaces_partition() {
        let store = MemStore::new();
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        store.publish_full(SiteId(1), snap(2), 1).unwrap();
        store.publish_full(SiteId(0), snap(3), 2).unwrap();
        let all = store.fetch_all().unwrap();
        assert_eq!(all.len(), 2);
        let s0 = &all.iter().find(|(s, _)| *s == SiteId(0)).unwrap().1;
        assert_eq!(s0.tasks[0].task, TaskId(3), "second publish replaced the first");
    }

    #[test]
    fn remove_drops_partition() {
        let store = MemStore::new();
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        store.remove(SiteId(0)).unwrap();
        assert!(store.fetch_all().unwrap().is_empty());
    }

    #[test]
    fn tenants_are_disjoint_namespaces() {
        let store = MemStore::new();
        let (a, b) = (TenantId(1), TenantId(2));
        // The same SiteId in two tenants: no aliasing in either direction.
        store.publish_full_in(a, SiteId(0), snap(1), 1).unwrap();
        store.publish_full_in(b, SiteId(0), snap(2), 1).unwrap();
        let view_a = store.fetch_all_in(a).unwrap();
        let view_b = store.fetch_all_in(b).unwrap();
        assert_eq!(view_a.len(), 1);
        assert_eq!(view_b.len(), 1);
        assert_eq!(view_a[0].1.tasks[0].task, TaskId(1));
        assert_eq!(view_b[0].1.tasks[0].task, TaskId(2));
        // The delta stream is tenant-scoped too.
        assert_eq!(
            store.publish_deltas_in(a, SiteId(0), 1, &[Delta::Unblock(TaskId(1))], 2).unwrap(),
            DeltaAck::Applied
        );
        assert_eq!(store.fetch_all_in(b).unwrap()[0].1.len(), 1, "tenant b untouched");
        // Removing in one tenant leaves the other's partition alone.
        store.remove_in(a, SiteId(0)).unwrap();
        assert!(store.fetch_all_in(a).unwrap().is_empty());
        assert_eq!(store.fetch_all_in(b).unwrap().len(), 1);
        // The default-tenant Store impl never saw any of it.
        assert!(store.fetch_all().unwrap().is_empty());
    }

    #[test]
    fn tenant_partition_counts_and_expiries() {
        let store = MemStore::with_lease(Duration::from_millis(40));
        store.publish_full_in(TenantId(1), SiteId(0), snap(1), 1).unwrap();
        store.publish_full_in(TenantId(1), SiteId(1), snap(2), 1).unwrap();
        store.publish_full_in(TenantId(2), SiteId(0), snap(3), 1).unwrap();
        assert_eq!(store.tenant_partitions(), vec![(TenantId(1), 2), (TenantId(2), 1)]);
        std::thread::sleep(Duration::from_millis(80));
        // Keep tenant 2 alive across the TTL; tenant 1 lapses.
        store.publish_full_in(TenantId(2), SiteId(0), snap(3), 2).unwrap();
        assert_eq!(store.tenant_partitions(), vec![(TenantId(2), 1)]);
        assert_eq!(store.tenant_expiries(), vec![(TenantId(1), 2)]);
        assert_eq!(store.lease_expiries(), 2);
    }

    #[test]
    fn site_stats_are_recorded_and_dropped_with_the_site() {
        let store = MemStore::new();
        let stats = SiteStats { blocks: 7, fastpath_skips: 3, ..SiteStats::default() };
        store.publish_stats_in(TenantId(1), SiteId(4), stats).unwrap();
        assert_eq!(store.site_stats(), vec![(TenantId(1), SiteId(4), stats)]);
        store.remove_in(TenantId(1), SiteId(4)).unwrap();
        assert!(store.site_stats().is_empty(), "removed sites take their stats along");
    }

    #[test]
    fn delta_publish_requires_a_versioned_base() {
        let store = MemStore::new();
        let block = |task: u64| {
            Delta::Block(BlockedInfo::new(
                TaskId(task),
                vec![Resource::new(PhaserId(1), 1)],
                vec![Registration::new(PhaserId(1), 1)],
            ))
        };
        // No partition yet: a delta publish must demand a snapshot.
        assert_eq!(
            store.publish_deltas(SiteId(0), 0, &[block(1)], 1).unwrap(),
            DeltaAck::NeedSnapshot
        );
        // Join: full publish at version 3, then deltas resume from it.
        store.publish_full(SiteId(0), snap(1), 3).unwrap();
        assert_eq!(
            store.publish_deltas(SiteId(0), 3, &[block(2), Delta::Unblock(TaskId(1))], 5).unwrap(),
            DeltaAck::Applied
        );
        let all = store.fetch_all().unwrap();
        assert_eq!(all[0].1.tasks.iter().map(|b| b.task).collect::<Vec<_>>(), vec![TaskId(2)]);
        // A gap (base mismatch) forces a resync instead of corrupting state.
        assert_eq!(
            store.publish_deltas(SiteId(0), 9, &[block(3)], 10).unwrap(),
            DeltaAck::NeedSnapshot
        );
        assert_eq!(store.fetch_all().unwrap()[0].1.len(), 1, "rejected deltas must not apply");
    }

    #[test]
    fn default_trait_impl_declines_deltas() {
        // A minimal store that only implements the required methods.
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
        let store = SnapshotOnly(MemStore::new());
        store.publish_full(SiteId(0), snap(1), 7).unwrap();
        assert_eq!(store.publish_deltas(SiteId(0), 7, &[], 7).unwrap(), DeltaAck::NeedSnapshot);
        // The default stats sink is a discard, not an error.
        store.publish_stats(SiteId(0), SiteStats::default()).unwrap();
    }

    #[test]
    fn leased_partitions_expire_without_refresh() {
        let store = MemStore::with_lease(Duration::from_millis(40));
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        assert_eq!(store.fetch_all().unwrap().len(), 1);
        std::thread::sleep(Duration::from_millis(80));
        assert!(store.fetch_all().unwrap().is_empty(), "lapsed lease must drop the partition");
        assert_eq!(store.lease_expiries(), 1, "the expiry must be counted");
        // After expiry the delta stream is gone too: publishers must
        // rejoin with a full snapshot.
        assert_eq!(
            store.publish_deltas(SiteId(0), 1, &[], 1).unwrap(),
            DeltaAck::NeedSnapshot,
            "expired partition cannot accept deltas"
        );
    }

    #[test]
    fn heartbeats_refresh_the_lease() {
        let store = MemStore::with_lease(Duration::from_millis(60));
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        // Empty delta intervals (heartbeats) keep the partition alive
        // across several TTLs.
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(store.publish_deltas(SiteId(0), 1, &[], 1).unwrap(), DeltaAck::Applied);
        }
        assert_eq!(store.fetch_all().unwrap().len(), 1, "heartbeats must refresh the lease");
        assert_eq!(store.lease_expiries(), 0);
    }

    #[test]
    fn unleased_store_never_expires() {
        let store = MemStore::new();
        assert_eq!(store.lease(), None);
        store.publish_full(SiteId(0), snap(1), 1).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(store.fetch_all().unwrap().len(), 1);
    }
}
