//! The resource-dependency state `(I, W)` of Definition 4.1, maintained at
//! run time as a registry of blocked tasks.
//!
//! Each blocked task publishes a [`BlockedInfo`]: the events it *waits* on
//! (`W(t)`) and, for every phaser it is registered with, its local phase —
//! a finite representation of the (infinite) set of events it *impedes*
//! (`{r | t ∈ I(r)}`). Crucially this is **local** information: no global
//! membership bookkeeping is needed (paper §2.1, §5.2).
//!
//! The paper notes that "maintaining the blocked status is more frequent
//! than checking for deadlocks, so the resource-dependencies are rearranged
//! per task to optimise updates" (§5.1). We follow that design: the
//! registry is a map keyed by task id, so an update touches one entry.
//!
//! Beside the map the registry keeps a **delta journal**: a bounded,
//! monotonically versioned log of [`Delta`]s (block/unblock entries).
//! Incremental consumers — the [`crate::engine`] maintained graph, a
//! distributed site publisher — remember a cursor and pull only the
//! deltas since their last read ([`Registry::deltas_since`]); a consumer
//! that falls behind the bounded journal resyncs from a full
//! point-in-time copy ([`Registry::snapshot_with_cursor`]).
//!
//! The registry is **one map and one [`Window`] behind one lock**. A
//! block or unblock writes its task's map entry, its waiter-index entries
//! and its journal entry in one lock hold. An entry's sequence number is its
//! window position, so the log has no gaps by construction; a read copies
//! the entries past its cursor in one lock hold, and a resync copy reads
//! the map and the head in one hold, so it is exactly the journal prefix
//! below its cursor. A cursor outside the window (older than its last
//! `capacity` entries, or past the head) reads [`JournalRead::Behind`]
//! and resyncs from [`Registry::snapshot_with_cursor`].
//!
//! **One record per block.** [`Registry::block`] moves the caller's
//! [`BlockedInfo`] into a single `Arc`, and that record is the status for
//! its whole life: the task map holds it while the task is blocked, the
//! journal holds it while its `Block` entry is inside the retained
//! window, and an [`crate::engine::IncrementalEngine`] that synced past
//! the entry holds it until it applies the task's unblock (or re-block) —
//! reference-count bumps, never copies. Whichever of the three lets go
//! last frees it, so the journal pins at most `journal_capacity` records.
//! The journal has **one read**, the crate-internal
//! `Registry::read_journal`, which hands out the shared entries into a
//! buffer the caller keeps; the engine and, through it, the detection
//! monitor use it directly. Everything public is a copy-out view of the
//! same records — [`Registry::deltas_since`] and its per-task netting
//! [`Registry::net_deltas_since`] (both defined in terms of
//! `read_journal`), [`Registry::snapshot`], [`Registry::get`] — because
//! their callers are outside this crate's control: a site publisher
//! encodes and ships deltas, the canonical checker and tests keep and
//! mutate snapshots, and an owned value can neither alias the registry's
//! state nor extend a record's life past the bound above. The copies are
//! made after the lock is released, from the shared records.
//!
//! An avoidance registry ([`RegistryConfig::track_waited`]) also keeps a
//! **waiter index**: per awaited phaser, the largest awaited phase and the
//! number of waits on it. It answers the verifier's in-edge test
//! (`Registry::block_with_in_edge`) in the same hold as the block's
//! publish: does any blocked task wait on an event the new status
//! impedes? That is the new node's in-edge in the WFG (the closing-event
//! view of *Sound Dynamic Deadlock Prediction in Linear Time*): a block
//! without one is a source, contributes no SG edge, and so closes no
//! cycle. In a barrier program the task that just blocked almost never
//! has anybody waiting behind it, so most avoidance blocks are answered
//! here and never reach the engine. The index changes in the same
//! critical section as the entry that changes it, which is the whole
//! ordering argument (see `Registry::block_with_in_edge`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::ids::{IdMap, Phase, PhaserId, TaskId};
use crate::resource::{Registration, Resource};
use crate::window::Window;

/// The blocked status of one task, produced by the application layer when
/// the task is about to block (paper §5.1: "whenever a task of the program
/// blocks the application layer invokes the verification library by
/// producing its blocked status").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockedInfo {
    /// The blocked task.
    pub task: TaskId,
    /// `W(t)`: the events the task is waiting for. In PL this is a singleton
    /// (a task awaits one phaser at a time); richer runtimes may block on
    /// several events at once (e.g. a multi-clock `advance-all`).
    pub waits: Vec<Resource>,
    /// For each phaser the task is registered with, its local phase. The
    /// task impedes every event `(q, n)` with `n >` its local phase on `q`.
    pub registered: Vec<Registration>,
    /// Blocking epoch, used by detection to confirm that a task observed in
    /// a cycle is still in the *same* blocking operation when the deadlock
    /// is reported. Assigned by the registry.
    pub epoch: u64,
}

impl BlockedInfo {
    /// Builds a blocked status (epoch is assigned when inserted into a
    /// [`Registry`]).
    pub fn new(task: TaskId, waits: Vec<Resource>, registered: Vec<Registration>) -> Self {
        BlockedInfo { task, waits, registered, epoch: 0 }
    }

    /// Does this task impede event `r`? (Is `self.task ∈ I(r)`?)
    pub fn impedes(&self, r: Resource) -> bool {
        self.registered.iter().any(|reg| reg.impedes(r))
    }
}

/// A point-in-time copy of the registry: the input to a deadlock check.
///
/// Every constructor keeps `tasks` **sorted by task id** so that
/// [`Snapshot::get`] — called per task during report confirmation — is a
/// binary search rather than a linear scan, and so that graph construction
/// over a snapshot is deterministic. Deserialisation routes through
/// [`Snapshot::from_tasks`] and therefore sorts too; only code that
/// mutates the public `tasks` vector by hand must call
/// [`Snapshot::sorted`] to restore the invariant.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Snapshot {
    /// Blocked statuses, one per blocked task, sorted by task id.
    pub tasks: Vec<BlockedInfo>,
}

impl Deserialize for Snapshot {
    /// Manual impl (rather than derived) so external JSON — which may list
    /// tasks in any order — lands sorted by construction.
    fn from_value(value: &serde::Value) -> Result<Snapshot, serde::DeError> {
        let tasks = value
            .get("tasks")
            .ok_or_else(|| serde::DeError::new("missing field `tasks` in Snapshot"))?;
        Ok(Snapshot::from_tasks(Deserialize::from_value(tasks)?))
    }
}

impl Snapshot {
    /// An empty snapshot.
    pub fn empty() -> Snapshot {
        Snapshot { tasks: Vec::new() }
    }

    /// Builds a snapshot directly from blocked statuses (used by tests, the
    /// PL `ϕ` function and the distributed store). Sorts by task id.
    pub fn from_tasks(mut tasks: Vec<BlockedInfo>) -> Snapshot {
        tasks.sort_by_key(|b| b.task);
        Snapshot { tasks }
    }

    /// Number of blocked tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task is blocked.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Restores the sorted-by-task-id invariant after manual mutation of
    /// the `tasks` vector or deserialisation from untrusted JSON.
    pub fn sorted(mut self) -> Snapshot {
        self.tasks.sort_by_key(|b| b.task);
        self
    }

    /// The blocked status of `task`, if present. `O(log n)` thanks to the
    /// sorted invariant.
    pub fn get(&self, task: TaskId) -> Option<&BlockedInfo> {
        self.tasks.binary_search_by_key(&task, |b| b.task).ok().map(|i| &self.tasks[i])
    }

    /// Site-namespaces every task id in this snapshot (see
    /// [`TaskId::with_site`]): the injective renaming a networked merge
    /// applies to each site's partition so that colliding process-local
    /// ids stay distinct in the global view. Phaser ids are left alone —
    /// a phaser is a *distributed* clock, so the same phaser id on two
    /// sites genuinely names the same synchronisation object. Re-sorts,
    /// since the tag lands in the high bits.
    ///
    /// Returns `None` when any id cannot be injectively renamed (too
    /// wide, already namespaced, or a site beyond the tag range) — the
    /// snapshot may have travelled over the wire, so an out-of-protocol
    /// id must not panic the checker that merges it.
    pub fn with_site_namespace(self, site: u32) -> Option<Snapshot> {
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for mut b in self.tasks {
            b.task = b.task.checked_with_site(site)?;
            tasks.push(b);
        }
        Some(Snapshot::from_tasks(tasks))
    }
}

/// A single registry mutation, journaled for incremental consumers. A
/// `Block` carries the full (epoch-stamped) blocked status so that replay
/// is an idempotent per-task upsert.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Delta {
    /// A task published its blocked status.
    Block(BlockedInfo),
    /// A task withdrew its blocked status.
    Unblock(TaskId),
}

/// Result of reading the delta journal from a consumer's cursor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRead {
    /// The deltas from the cursor up to the journal head, and the cursor
    /// to resume from next time.
    Deltas(Vec<Delta>, u64),
    /// The cursor is outside the journal's retained window: the consumer
    /// must resync from [`Registry::snapshot_with_cursor`].
    Behind,
}

/// A journal entry as the registry stores it and as in-crate consumers
/// read it: a [`Delta`] whose `Block` shares the registry's record instead
/// of owning a copy.
#[derive(Clone)]
pub(crate) enum SharedDelta {
    Block(Arc<BlockedInfo>),
    Unblock(TaskId),
}

impl SharedDelta {
    /// The owned view handed across the crate boundary.
    fn to_delta(&self) -> Delta {
        match self {
            SharedDelta::Block(info) => Delta::Block(BlockedInfo::clone(info)),
            SharedDelta::Unblock(task) => Delta::Unblock(*task),
        }
    }

    /// The task whose status this entry sets.
    fn task(&self) -> TaskId {
        match self {
            SharedDelta::Block(info) => info.task,
            SharedDelta::Unblock(task) => *task,
        }
    }
}

/// Default length of the journal's retained window: entries this close to
/// the head are readable; older cursors must resync.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// Ignored; the registry has one map under one lock; kept only because
/// the benchmark builds [`RegistryConfig`] by literal; removed with the
/// next benchmark change.
pub const DEFAULT_SHARDS: usize = 32;

/// Construction-time tuning of a [`Registry`]. Everything here exists so
/// tests and the deterministic simulation testkit can force otherwise
/// probabilistic branches (journal truncation) to happen on demand; the
/// defaults reproduce production behaviour.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Length of the journal's retained window.
    pub journal_capacity: usize,
    /// Ignored; the registry has one map under one lock; kept only
    /// because the benchmark builds `RegistryConfig` by literal; removed
    /// with the next benchmark change.
    pub shards: usize,
    /// Whether the waiter index (the avoidance in-edge test's input) is
    /// maintained. Off, `Registry::block_with_in_edge` always answers
    /// "maybe an in-edge", so nothing can skip a check on it.
    pub track_waited: bool,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            journal_capacity: DEFAULT_JOURNAL_CAPACITY,
            shards: DEFAULT_SHARDS,
            track_waited: false,
        }
    }
}

/// Per awaited phaser, what the in-edge test reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Awaited {
    /// The largest phase awaited on the phaser. A removal never lowers
    /// it, so after one it may over-approximate; that is sound, as it only
    /// sends a block down the checked path.
    last: Phase,
    /// Waits on the phaser (multiset semantics: a status that lists a
    /// wait twice counts it twice).
    waiters: usize,
}

/// The avoidance registry's waiter index: one entry per awaited phaser,
/// removed when its last waiter leaves. Keyed by phaser, whose ids recur
/// round after round, so it stops allocating once grown.
#[derive(Default)]
struct WaiterIndex(IdMap<PhaserId, Awaited>);

/// `verifier-mutation` plants a deliberate soundness bug in the in-edge
/// test: a wait exactly one phase past a registration does not count, which
/// hides the in-edge of every barrier laggard. It proves the testkit's
/// differential oracle catches real verifier defects; it must never be
/// enabled in production builds.
#[cfg(not(feature = "verifier-mutation"))]
const IN_EDGE_SLACK: Phase = 0;
#[cfg(feature = "verifier-mutation")]
const IN_EDGE_SLACK: Phase = 1;

impl WaiterIndex {
    fn add(&mut self, info: &BlockedInfo) {
        for w in &info.waits {
            let entry = self.0.entry(w.phaser).or_insert(Awaited { last: w.phase, waiters: 0 });
            entry.last = entry.last.max(w.phase);
            entry.waiters += 1;
        }
    }

    fn remove(&mut self, info: &BlockedInfo) {
        for w in &info.waits {
            let entry =
                self.0.get_mut(&w.phaser).expect("discounting a wait that was never counted");
            entry.waiters -= 1;
            if entry.waiters == 0 {
                self.0.remove(&w.phaser);
            }
        }
    }

    /// Is some counted wait `(q, n)` an event `info` impedes — is there a
    /// registration `(q, k)` of `info` with `n > k`? Once `info`'s own
    /// waits are counted this is its in-edge, a self-impeding wait
    /// included.
    fn in_edge(&self, info: &BlockedInfo) -> bool {
        info.registered.iter().any(|reg| {
            self.0.get(&reg.phaser).is_some_and(|a| a.last > reg.local_phase + IN_EDGE_SLACK)
        })
    }
}

/// The task map, the delta journal and the waiter index that moves with
/// them: everything behind [`Registry::state`], the registry's one lock.
struct State {
    /// The blocked status of every blocked task.
    tasks: IdMap<TaskId, Arc<BlockedInfo>>,
    /// The retained entries; an entry's sequence number is its position.
    entries: Window<SharedDelta>,
    /// The waiter index, kept only by an avoidance registry
    /// ([`RegistryConfig::track_waited`]).
    awaited: Option<WaiterIndex>,
}

/// The registry of blocked tasks: the run-time materialisation of the
/// resource-dependency state.
///
/// One lock guards the task map and the journal. Updates (`block` /
/// `unblock`) change both in one hold; the incremental engine and other
/// consumers pull journal deltas instead of copying the map.
pub struct Registry {
    state: Mutex<State>,
    /// The journal head, stored under the lock after every append and
    /// loaded without it. `SeqCst`: [`crate::pace::Signal`]'s park
    /// handshake pairs this load with its own.
    head: AtomicU64,
    next_epoch: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry with the default journal capacity and
    /// no waiter index (the avoidance verifier — the one reader of the
    /// in-edge test — opts in via [`RegistryConfig::track_waited`];
    /// everyone else should not pay the per-wait bookkeeping).
    pub fn new() -> Registry {
        Registry::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Creates an empty registry whose journal window spans `capacity`
    /// entries (tests use small capacities to exercise the resync path).
    /// No waiter index is kept, as in [`Registry::new`].
    pub fn with_journal_capacity(capacity: usize) -> Registry {
        Registry::with_config(RegistryConfig {
            journal_capacity: capacity,
            ..RegistryConfig::default()
        })
    }

    /// Creates an empty registry from an explicit [`RegistryConfig`].
    pub fn with_config(cfg: RegistryConfig) -> Registry {
        Registry {
            state: Mutex::new(State {
                tasks: IdMap::default(),
                entries: Window::new(cfg.journal_capacity),
                awaited: cfg.track_waited.then(WaiterIndex::default),
            }),
            head: AtomicU64::new(0),
            next_epoch: AtomicU64::new(1),
        }
    }

    /// Journals `delta` inside the caller's hold of the lock, after the
    /// caller wrote the map and the waiter index: push the entry (the
    /// oldest leaves a full window), and store the new head last.
    fn append(&self, state: &mut State, delta: SharedDelta) {
        state.entries.push(delta);
        self.head.store(state.entries.head(), Ordering::SeqCst);
    }

    /// Records `info.task` as blocked, assigning a fresh epoch which is
    /// returned (and stored in the registry copy).
    pub fn block(&self, info: BlockedInfo) -> u64 {
        self.block_with_in_edge(info).0
    }

    /// [`Registry::block`], answering in the same hold the avoidance
    /// verifier's in-edge test: does any blocked task, this one included,
    /// wait on an event the new status impedes? Without a waiter index
    /// ([`RegistryConfig::track_waited`] off) the answer is always yes, so
    /// a caller can never skip a check on an index nobody maintains.
    ///
    /// The map upsert, the index update, the test and the journal append
    /// share one hold of the registry's one lock, and that is the ordering
    /// argument. The members of a deadlock cycle never unblock, so the
    /// member whose block is last finds its predecessor in the cycle —
    /// a task that waits on an event it impedes — already counted, reads
    /// "yes" and is checked; its check's journal sync sees every member's
    /// entry. A "no" means the new node is a source of the WFG, so its
    /// block closes no cycle.
    pub(crate) fn block_with_in_edge(&self, mut info: BlockedInfo) -> (u64, bool) {
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        info.epoch = epoch;
        // The status's one heap record: the map, the journal and every
        // in-crate consumer share it from here on.
        let info = Arc::new(info);
        let mut state = self.state.lock();
        let prev = state.tasks.insert(info.task, Arc::clone(&info));
        let in_edge = state.awaited.as_mut().map_or(true, |index| {
            if let Some(prev) = &prev {
                index.remove(prev);
            }
            index.add(&info);
            index.in_edge(&info)
        });
        self.append(&mut state, SharedDelta::Block(info));
        // The replaced record, perhaps its last reference, goes after
        // the lock.
        drop(state);
        (epoch, in_edge)
    }

    /// Removes the blocked record of `task` (the task resumed, was
    /// deregistered, or its avoidance check failed). An unknown task is
    /// not journaled.
    pub fn unblock(&self, task: TaskId) {
        let mut state = self.state.lock();
        let prev = state.tasks.remove(&task);
        if let Some(prev) = &prev {
            if let Some(index) = &mut state.awaited {
                index.remove(prev);
            }
            self.append(&mut state, SharedDelta::Unblock(task));
        }
        // As in `block`, the removed record goes after the lock.
        drop(state);
    }

    /// The blocked status of `task`, if currently recorded. `O(1)`: one
    /// map lookup under the lock, the copy after it.
    pub fn get(&self, task: TaskId) -> Option<BlockedInfo> {
        let record = self.state.lock().tasks.get(&task).cloned();
        record.map(|info| BlockedInfo::clone(&info))
    }

    /// The journal deltas appended since `cursor`, in order, or
    /// [`JournalRead::Behind`] when `cursor` is outside the retained window.
    /// The owned copy-out of `Registry::read_journal`: a consumer outside
    /// this crate (a site publisher encoding for the wire, a test) gets
    /// `Delta`s it may keep and mutate, not handles into the registry.
    pub fn deltas_since(&self, cursor: u64) -> JournalRead {
        let mut entries = Vec::new();
        match self.read_journal(cursor, &mut entries) {
            Some(next) => {
                JournalRead::Deltas(entries.iter().map(SharedDelta::to_delta).collect(), next)
            }
            None => JournalRead::Behind,
        }
    }

    /// [`Registry::deltas_since`] netted per task: of each task's deltas
    /// since `cursor`, only its last, in journal order. A consumer that
    /// applies deltas as per-task upserts ends where the raw read leaves
    /// it, and the read is empty exactly when the raw one is. The netting
    /// runs on the shared records outside the lock, so only the survivors
    /// are copied out.
    pub fn net_deltas_since(&self, cursor: u64) -> JournalRead {
        let mut entries = Vec::new();
        let Some(next) = self.read_journal(cursor, &mut entries) else {
            return JournalRead::Behind;
        };
        let mut last: IdMap<TaskId, usize> = IdMap::default();
        for (i, entry) in entries.iter().enumerate() {
            last.insert(entry.task(), i);
        }
        let net = entries.iter().enumerate().filter(|&(i, e)| last[&e.task()] == i);
        JournalRead::Deltas(net.map(|(_, e)| e.to_delta()).collect(), next)
    }

    /// The journal's one read: replaces the contents of `out` with the
    /// entries from `cursor` up to the head, in order, and returns the
    /// cursor to resume from — or `None` (and an empty `out`) when
    /// `cursor` is outside the retained window. One lock hold; entries
    /// share the registry's records, so a caller that keeps `out` between
    /// reads allocates nothing here once it has grown.
    pub(crate) fn read_journal(&self, cursor: u64, out: &mut Vec<SharedDelta>) -> Option<u64> {
        out.clear();
        let state = self.state.lock();
        out.extend(state.entries.since(cursor).ok()?.cloned());
        Some(state.entries.head())
    }

    /// The journal head: the cursor a consumer that is fully caught up
    /// would hold.
    pub fn journal_cursor(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// A full copy paired with a journal cursor, for consumer resync.
    ///
    /// The map and the head are read in one hold of the lock, so the
    /// snapshot is exactly the journal prefix below the cursor: replaying
    /// the entries before it, per task, yields this snapshot, and no
    /// entry at or past it is reflected.
    pub fn snapshot_with_cursor(&self) -> (Snapshot, u64) {
        let (records, cursor) = self.records_with_cursor();
        let tasks = records.iter().map(|info| BlockedInfo::clone(info)).collect();
        (Snapshot::from_tasks(tasks), cursor)
    }

    /// [`Registry::snapshot_with_cursor`] without the copy: the shared
    /// records themselves (in no particular order), for an in-crate
    /// consumer's resync. The lock is held only for the `Arc` copies.
    pub(crate) fn records_with_cursor(&self) -> (Vec<Arc<BlockedInfo>>, u64) {
        let state = self.state.lock();
        (state.tasks.values().cloned().collect(), state.entries.head())
    }

    /// Number of currently blocked tasks.
    pub fn len(&self) -> usize {
        self.state.lock().tasks.len()
    }

    /// True when no task is recorded blocked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes a point-in-time copy of every blocked status: the records
    /// are gathered under the lock and copied after it. Each status is
    /// internally consistent (tasks publish their own status
    /// atomically); the confirmation pass handles the statuses that
    /// change after the copy (paper §2.2 point 2).
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_with_cursor().0
    }

    /// Is `task` still blocked in the same blocking operation (`epoch`) as
    /// when a snapshot observed it? Used to confirm detected cycles.
    pub fn confirm(&self, task: TaskId, epoch: u64) -> bool {
        self.state.lock().tasks.get(&task).is_some_and(|b| b.epoch == epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PhaserId;

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }

    fn info(task: u64) -> BlockedInfo {
        BlockedInfo::new(t(task), vec![Resource::new(p(1), 1)], vec![Registration::new(p(1), 0)])
    }

    #[test]
    fn block_unblock_roundtrip() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        reg.block(info(1));
        reg.block(info(2));
        assert_eq!(reg.len(), 2);
        reg.unblock(t(1));
        assert_eq!(reg.len(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.tasks[0].task, t(2));
    }

    #[test]
    fn reblocking_same_task_replaces_record() {
        let reg = Registry::new();
        reg.block(info(1));
        let mut second = info(1);
        second.waits = vec![Resource::new(p(2), 5)];
        reg.block(second);
        assert_eq!(reg.len(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.tasks[0].waits, vec![Resource::new(p(2), 5)]);
    }

    #[test]
    fn epochs_are_strictly_increasing() {
        let reg = Registry::new();
        let e1 = reg.block(info(1));
        reg.unblock(t(1));
        let e2 = reg.block(info(1));
        assert!(e2 > e1);
    }

    #[test]
    fn confirm_detects_stale_epochs() {
        let reg = Registry::new();
        let e1 = reg.block(info(1));
        assert!(reg.confirm(t(1), e1));
        reg.unblock(t(1));
        assert!(!reg.confirm(t(1), e1));
        let e2 = reg.block(info(1));
        assert!(!reg.confirm(t(1), e1));
        assert!(reg.confirm(t(1), e2));
    }

    #[test]
    fn unblock_of_unknown_task_is_noop() {
        let reg = Registry::new();
        reg.unblock(t(42));
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn snapshot_is_a_copy() {
        let reg = Registry::new();
        reg.block(info(1));
        let snap = reg.snapshot();
        reg.unblock(t(1));
        assert_eq!(snap.len(), 1, "snapshot must not alias the registry");
    }

    #[test]
    fn impedes_respects_registrations() {
        let b = BlockedInfo::new(
            t(1),
            vec![Resource::new(p(1), 2)],
            vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
        );
        assert!(b.impedes(Resource::new(p(1), 2)));
        assert!(!b.impedes(Resource::new(p(1), 1)));
        assert!(b.impedes(Resource::new(p(2), 1)));
        assert!(!b.impedes(Resource::new(p(3), 1)));
    }

    #[test]
    fn concurrent_block_unblock_is_consistent() {
        use std::sync::Arc;
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for base in 0..4u64 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let id = base * 1000 + i;
                    reg.block(info(id));
                    if i % 2 == 0 {
                        reg.unblock(t(id));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 4 threads × 500 blocks, half unblocked.
        assert_eq!(reg.len(), 4 * 250);
        assert_eq!(reg.snapshot().len(), 4 * 250);
    }

    #[test]
    fn snapshot_sorted_orders_by_task() {
        let snap = Snapshot::from_tasks(vec![info(3), info(1), info(2)]).sorted();
        let ids: Vec<_> = snap.tasks.iter().map(|b| b.task).collect();
        assert_eq!(ids, vec![t(1), t(2), t(3)]);
    }

    #[test]
    fn snapshot_get_is_a_binary_search_over_the_sorted_invariant() {
        // Construction order is arbitrary; from_tasks sorts, so lookups
        // (hits and misses) resolve correctly.
        let snap = Snapshot::from_tasks(vec![info(30), info(10), info(20)]);
        for present in [10, 20, 30] {
            assert_eq!(snap.get(t(present)).unwrap().task, t(present));
        }
        for absent in [0, 15, 99] {
            assert!(snap.get(t(absent)).is_none());
        }
    }

    #[test]
    fn deserialisation_sorts_by_construction() {
        // External JSON may list tasks in any order; `get` must still work.
        let unsorted = Snapshot { tasks: vec![info(3), info(1), info(2)] };
        let json = serde_json::to_string(&unsorted).unwrap();
        let parsed: Snapshot = serde_json::from_str(&json).unwrap();
        let ids: Vec<_> = parsed.tasks.iter().map(|b| b.task).collect();
        assert_eq!(ids, vec![t(1), t(2), t(3)]);
        for id in 1..=3 {
            assert_eq!(parsed.get(t(id)).unwrap().task, t(id));
        }
    }

    #[test]
    fn registry_get_reads_one_shard() {
        let reg = Registry::new();
        let epoch = reg.block(info(7));
        assert_eq!(reg.get(t(7)).unwrap().epoch, epoch);
        assert!(reg.get(t(8)).is_none());
        reg.unblock(t(7));
        assert!(reg.get(t(7)).is_none());
    }

    #[test]
    fn journal_replays_blocks_and_unblocks_in_order() {
        let reg = Registry::new();
        reg.block(info(1));
        reg.block(info(2));
        reg.unblock(t(1));
        match reg.deltas_since(0) {
            JournalRead::Deltas(deltas, cursor) => {
                assert_eq!(cursor, 3);
                assert!(matches!(&deltas[0], Delta::Block(b) if b.task == t(1)));
                assert!(matches!(&deltas[1], Delta::Block(b) if b.task == t(2)));
                assert_eq!(deltas[2], Delta::Unblock(t(1)));
            }
            JournalRead::Behind => panic!("nothing truncated yet"),
        }
        // Resuming from the returned cursor yields only newer deltas.
        reg.block(info(3));
        match reg.deltas_since(3) {
            JournalRead::Deltas(deltas, cursor) => {
                assert_eq!(cursor, 4);
                assert_eq!(deltas.len(), 1);
            }
            JournalRead::Behind => panic!("cursor 3 still retained"),
        }
    }

    #[test]
    fn unblock_of_unknown_task_is_not_journaled() {
        let reg = Registry::new();
        reg.unblock(t(42));
        assert_eq!(reg.journal_cursor(), 0);
    }

    #[test]
    fn bounded_journal_forces_resync() {
        let reg = Registry::with_journal_capacity(2);
        reg.block(info(1));
        reg.block(info(2));
        reg.block(info(3)); // truncates the first entry
        assert_eq!(reg.deltas_since(0), JournalRead::Behind);
        let (snap, cursor) = reg.snapshot_with_cursor();
        assert_eq!(snap.len(), 3);
        assert_eq!(cursor, 3);
        assert!(matches!(reg.deltas_since(cursor), JournalRead::Deltas(d, 3) if d.is_empty()));
    }

    /// A registry with the waiter index on, as the avoidance verifier
    /// constructs it.
    fn tracking_registry() -> Registry {
        Registry::with_config(RegistryConfig { track_waited: true, ..RegistryConfig::default() })
    }

    /// The waiter index as sorted `(phaser, largest awaited phase,
    /// waiters)` rows.
    fn index(reg: &Registry) -> Vec<(u64, Phase, usize)> {
        let state = reg.state.lock();
        let index = state.awaited.as_ref().expect("an avoidance registry keeps the index");
        let mut rows: Vec<_> = index.0.iter().map(|(q, a)| (q.0, a.last, a.waiters)).collect();
        rows.sort_unstable();
        rows
    }

    /// A status awaiting `(phaser, phase)`, registered at `(phaser,
    /// local phase)` pairs.
    fn status(task: u64, wait: (u64, Phase), regs: &[(u64, Phase)]) -> BlockedInfo {
        let regs = regs.iter().map(|&(q, k)| Registration::new(p(q), k)).collect();
        BlockedInfo::new(t(task), vec![Resource::new(p(wait.0), wait.1)], regs)
    }

    #[test]
    fn waiter_index_tracks_block_unblock_and_reblock() {
        let reg = tracking_registry();
        assert_eq!(index(&reg), vec![]);
        reg.block(info(1)); // waits p1@1
        reg.block(info(2)); // the same event
        assert_eq!(index(&reg), vec![(1, 1, 2)]);
        reg.block(status(3, (2, 1), &[]));
        assert_eq!(index(&reg), vec![(1, 1, 2), (2, 1, 1)]);
        // Re-block t1 onto a third phaser: p1 keeps t2's wait.
        reg.block(status(1, (3, 4), &[]));
        assert_eq!(index(&reg), vec![(1, 1, 1), (2, 1, 1), (3, 4, 1)]);
        reg.unblock(t(2)); // p1 loses its last waiter, and its entry
        assert_eq!(index(&reg), vec![(2, 1, 1), (3, 4, 1)]);
        reg.unblock(t(1));
        reg.unblock(t(3));
        assert_eq!(index(&reg), vec![]);
    }

    #[test]
    fn disabled_wait_tracking_reads_as_saturated() {
        // Tracking is off by default: a registry that keeps no waiter
        // index answers every in-edge test "yes", so no reader can skip a
        // check on it — not even for a lone task nobody waits behind.
        let reg = Registry::new();
        assert!(reg.state.lock().awaited.is_none());
        assert!(reg.block_with_in_edge(status(1, (1, 1), &[(1, 1)])).1);
        assert!(reg.block_with_in_edge(status(2, (2, 1), &[(2, 1)])).1);
        reg.unblock(t(1));
        assert!(reg.block_with_in_edge(status(1, (1, 1), &[(1, 1)])).1);
    }

    #[test]
    fn waiter_index_handles_duplicate_wait_occurrences() {
        let reg = tracking_registry();
        let mut odd = info(1);
        odd.waits = vec![Resource::new(p(1), 1), Resource::new(p(1), 1)];
        reg.block(odd);
        assert_eq!(index(&reg), vec![(1, 1, 2)]);
        reg.unblock(t(1));
        assert_eq!(index(&reg), vec![]);
    }

    #[test]
    fn the_in_edge_test_finds_waits_on_what_the_new_status_impedes() {
        let reg = tracking_registry();
        // t1 arrived at p1 (local phase 1) and awaits p1@1: nobody waits
        // behind it.
        assert!(!reg.block_with_in_edge(status(1, (1, 1), &[(1, 1)])).1);
        // t2 has not arrived at p1 (local phase 0), and t1 awaits p1@1.
        assert!(reg.block_with_in_edge(status(2, (2, 1), &[(2, 1), (1, 0)])).1);
        // A member that arrived at both phasers impedes nothing awaited.
        assert!(!reg.block_with_in_edge(status(3, (2, 1), &[(2, 1), (1, 1)])).1);
        // A self-impeding wait is its own in-edge.
        assert!(reg.block_with_in_edge(status(4, (5, 3), &[(5, 2)])).1);
    }

    #[test]
    fn dropping_the_largest_phase_waiter_keeps_blocks_between_the_phases_checked() {
        let reg = tracking_registry();
        reg.block(status(1, (1, 2), &[]));
        reg.block(status(2, (1, 5), &[]));
        reg.unblock(t(2));
        // p1@2 is still awaited and the largest phase stays 5: the index
        // over-approximates and never under-approximates.
        assert_eq!(index(&reg), vec![(1, 5, 1)]);
        // Registered at p1@3, t3 impedes only events past the one left
        // awaited; the index cannot tell, so the block must be checked.
        assert!(reg.block_with_in_edge(status(3, (2, 1), &[(1, 3), (2, 1)])).1);
        // A registration at the largest phase is never an in-edge.
        assert!(!reg.block_with_in_edge(status(4, (3, 1), &[(1, 5), (3, 1)])).1);
        // Once the last waiter leaves, the entry and its stale phase go.
        reg.unblock(t(1));
        assert_eq!(index(&reg), vec![(2, 1, 1), (3, 1, 1)]);
        assert!(!reg.block_with_in_edge(status(5, (4, 1), &[(1, 3), (4, 1)])).1);
    }

    #[test]
    fn merged_stripes_preserve_cross_shard_publish_order() {
        // Five tasks, one re-blocked: the read comes back in call order.
        let reg = Registry::new();
        for task in 1..=5u64 {
            reg.block(info(task));
        }
        reg.unblock(t(3));
        reg.block(info(3));
        match reg.deltas_since(0) {
            JournalRead::Deltas(deltas, cursor) => {
                assert_eq!(cursor, 7);
                let kinds: Vec<String> = deltas
                    .iter()
                    .map(|d| match d {
                        Delta::Block(b) => format!("B{}", b.task.0),
                        Delta::Unblock(t) => format!("U{}", t.0),
                    })
                    .collect();
                assert_eq!(kinds, vec!["B1", "B2", "B3", "B4", "B5", "U3", "B3"]);
            }
            JournalRead::Behind => panic!("window not exceeded"),
        }
    }

    #[test]
    fn concurrent_publishers_yield_a_gap_free_merged_journal() {
        use std::sync::Arc;
        let reg = Arc::new(Registry::new());
        let start = Arc::new(std::sync::Barrier::new(5));
        let mut handles = Vec::new();
        for base in 0..4u64 {
            let (reg, start) = (Arc::clone(&reg), Arc::clone(&start));
            handles.push(std::thread::spawn(move || {
                start.wait();
                for i in 0..200 {
                    let id = base * 1000 + i;
                    reg.block(info(id));
                    if i % 3 == 0 {
                        reg.unblock(t(id));
                    }
                }
            }));
        }
        // A second consumer follows the shared read while the publishers
        // run (the window is never exceeded, so it never falls behind):
        // every read continues exactly where the previous one stopped.
        let total = 4 * 200 + 4 * 67;
        let follower = {
            let (reg, start) = (Arc::clone(&reg), Arc::clone(&start));
            std::thread::spawn(move || {
                let (mut cursor, mut entries, mut blocks) = (0u64, Vec::new(), 0usize);
                start.wait();
                while cursor < total {
                    let next = reg.read_journal(cursor, &mut entries).expect("within the window");
                    assert_eq!(entries.len() as u64, next - cursor, "gap or duplicate");
                    blocks += entries.iter().filter(|e| matches!(e, SharedDelta::Block(_))).count();
                    cursor = next;
                }
                blocks
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(follower.join().unwrap(), 4 * 200);
        match reg.deltas_since(0) {
            JournalRead::Deltas(deltas, cursor) => {
                // 4 × 200 blocks + 4 × 67 unblocks, contiguous sequences.
                assert_eq!(deltas.len() as u64, cursor);
                assert_eq!(cursor, total);
            }
            JournalRead::Behind => panic!("default window is large enough"),
        }
    }

    /// Entries and records the journal retains right now.
    fn retained(reg: &Registry) -> (usize, usize) {
        let state = reg.state.lock();
        let records = state.entries.iter().filter(|e| matches!(e, SharedDelta::Block(_))).count();
        (state.entries.iter().len(), records)
    }

    #[test]
    fn the_journal_pins_at_most_one_window_of_records() {
        use std::sync::{Arc, Weak};
        const CAPACITY: usize = 64;
        const TASKS: u64 = 50 * CAPACITY as u64;
        let reg = Registry::with_journal_capacity(CAPACITY);
        let mut engine = crate::engine::IncrementalEngine::new();
        let mut records: Vec<Weak<BlockedInfo>> = Vec::new();
        let mut publish = |task: u64| {
            reg.block(info(task));
            records.push(Arc::downgrade(&reg.state.lock().tasks[&t(task)]));
            engine.sync(&reg);
            reg.unblock(t(task));
            engine.sync(&reg);
        };
        // Tasks turn over many windows' worth, the engine following along
        // (it shares every record while the task is blocked, and lets go
        // with the unblock).
        (0..TASKS).for_each(&mut publish);
        assert_eq!(engine.blocked(), 0);
        assert_eq!(engine.cursor(), reg.journal_cursor());

        // What is left is exactly the window.
        let (entries, in_journal) = retained(&reg);
        assert_eq!(entries, CAPACITY, "{entries} entries retained");
        assert!(in_journal <= CAPACITY, "{in_journal} records in the journal");
        // Nothing but the journal holds a record of an unblocked task.
        let alive = records.iter().filter(|record| record.upgrade().is_some()).count();
        assert_eq!(alive, in_journal);
        assert!(records[0].upgrade().is_none(), "the first record is freed");
        assert!(records[1].upgrade().is_none(), "an early record is freed");
    }

    #[test]
    fn journaled_blocks_carry_their_epoch() {
        let reg = Registry::new();
        let epoch = reg.block(info(5));
        match reg.deltas_since(0) {
            JournalRead::Deltas(deltas, _) => {
                assert!(matches!(&deltas[0], Delta::Block(b) if b.epoch == epoch));
            }
            JournalRead::Behind => panic!("retained"),
        }
    }

    mod shared_read {
        use super::*;
        use proptest::prelude::*;

        /// A block (of a status over a small universe, so tasks re-block)
        /// or an unblock.
        fn arb_delta() -> impl Strategy<Value = Delta> {
            let block =
                (0u64..8, 1u64..4, 1u64..4, proptest::collection::vec((1u64..4, 0u64..3), 0..3))
                    .prop_map(|(task, phaser, phase, regs)| {
                        let regs =
                            regs.into_iter().map(|(q, m)| Registration::new(p(q), m)).collect();
                        Delta::Block(BlockedInfo::new(
                            t(task),
                            vec![Resource::new(p(phaser), phase)],
                            regs,
                        ))
                    });
            prop_oneof![block.clone(), block, (0u64..8).prop_map(|task| Delta::Unblock(t(task)))]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// One read, three views: at every cursor after every step, the
            /// public `deltas_since` is the copy-out of `read_journal`,
            /// entry for entry, both equal the log a single-threaded model
            /// keeps (epochs included), `net_deltas_since` is that log
            /// netted to each task's last delta in journal order, and all
            /// three say `Behind` exactly when the cursor has left the
            /// window; and `snapshot_with_cursor` is the model's per-task
            /// state at the head.
            #[test]
            fn deltas_since_is_the_copy_out_of_the_shared_read(
                stream in proptest::collection::vec(arb_delta(), 1..40)
            ) {
                let configs = [
                    RegistryConfig::default(),
                    RegistryConfig { journal_capacity: 3, ..RegistryConfig::default() },
                    RegistryConfig { journal_capacity: 5, ..RegistryConfig::default() },
                    RegistryConfig { track_waited: true, ..RegistryConfig::default() },
                ];
                for cfg in configs {
                    let reg = Registry::with_config(cfg);
                    let mut log: Vec<Delta> = Vec::new();
                    let mut model: std::collections::BTreeMap<TaskId, BlockedInfo> =
                        Default::default();
                    let mut entries = Vec::new();
                    for delta in &stream {
                        match delta {
                            Delta::Block(info) => {
                                let (epoch, in_edge) = reg.block_with_in_edge(info.clone());
                                let info = BlockedInfo { epoch, ..info.clone() };
                                model.insert(info.task, info.clone());
                                log.push(Delta::Block(info.clone()));
                                // Sound: only an index answers "no", and
                                // never to a status with an in-edge.
                                let exact = model
                                    .values()
                                    .flat_map(|b| &b.waits)
                                    .any(|&w| info.impedes(w));
                                if !in_edge {
                                    prop_assert!(cfg.track_waited && !exact);
                                }
                            }
                            // Only the unblock of a blocked task is journaled.
                            Delta::Unblock(task) => {
                                let removed = model.remove(task);
                                prop_assert_eq!(reg.get(*task), removed.clone());
                                if removed.is_some() {
                                    log.push(delta.clone());
                                }
                                reg.unblock(*task);
                            }
                        }
                        let head = log.len() as u64;
                        prop_assert_eq!(reg.journal_cursor(), head);
                        let state = Snapshot::from_tasks(model.values().cloned().collect());
                        prop_assert_eq!(reg.snapshot_with_cursor(), (state, head));
                        if cfg.track_waited {
                            // One row per awaited phaser: its waits, and a
                            // largest phase no lower than any of them.
                            let mut awaited: std::collections::BTreeMap<u64, (Phase, usize)> =
                                Default::default();
                            for w in model.values().flat_map(|b| &b.waits) {
                                let row = awaited.entry(w.phaser.0).or_default();
                                *row = (row.0.max(w.phase), row.1 + 1);
                            }
                            let rows = index(&reg);
                            prop_assert_eq!(rows.len(), awaited.len());
                            for (q, last, waiters) in rows {
                                let (max, count) = awaited[&q];
                                prop_assert!(last >= max && waiters == count);
                            }
                        }
                        for cursor in 0..=head + 1 {
                            let shared = reg.read_journal(cursor, &mut entries);
                            let public = reg.deltas_since(cursor);
                            let net = reg.net_deltas_since(cursor);
                            if cursor > head || head - cursor > cfg.journal_capacity as u64 {
                                prop_assert_eq!(shared, None);
                                prop_assert_eq!(public, JournalRead::Behind);
                                prop_assert_eq!(net, JournalRead::Behind);
                                continue;
                            }
                            let next = head.max(cursor);
                            prop_assert_eq!(shared, Some(next));
                            prop_assert_eq!(entries.len() as u64, next - cursor);
                            let copied: Vec<Delta> = entries.iter().map(SharedDelta::to_delta).collect();
                            let tail = &log[(cursor as usize).min(log.len())..];
                            prop_assert_eq!(&copied[..], tail);
                            prop_assert_eq!(public, JournalRead::Deltas(copied, next));
                            let task = |d: &Delta| match d {
                                Delta::Block(info) => info.task,
                                Delta::Unblock(task) => *task,
                            };
                            let netted: Vec<Delta> = (0..tail.len())
                                .filter(|&i| tail[i + 1..].iter().all(|d| task(d) != task(&tail[i])))
                                .map(|i| tail[i].clone())
                                .collect();
                            prop_assert_eq!(net, JournalRead::Deltas(netted, next));
                        }
                    }
                }
            }
        }
    }
}
