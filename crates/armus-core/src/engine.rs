//! The incremental dependency engine: the registry's delta journal applied
//! to a persistent view, with each graph model built **on demand** and
//! maintained only while a query keeps reading it.
//!
//! The paper observes that "maintaining the blocked status is more frequent
//! than checking for deadlocks" (§5.1), and that per program shape one
//! graph model is orders of magnitude smaller than the other (Table 3:
//! SPMD shapes have a tiny SG and a quadratic WFG). The engine therefore
//! splits its state in two:
//!
//! * **Always maintained** — the cheap indexes: the blocked statuses, the
//!   awaited-event multiset (the SG vertices) and the per-phaser
//!   registration / waiter lists. [`IncrementalEngine::sync`] pulls the
//!   journal suffix since the engine's cursor and applies each delta to
//!   them in `O(own registrations + waits)`; a cursor that fell behind the
//!   bounded journal triggers a snapshot resync.
//! * **Live only while a query uses it** — four derived structures: the
//!   refcounted SG adjacency, the refcounted WFG adjacency, and one
//!   Pearce–Kelly topological order ([`crate::graph::TopoOrder`]) per
//!   adjacency. A query *demands* exactly what it reads: `Fixed*` choices
//!   demand that model's adjacency; `Auto` demands the SG adjacency (its
//!   distinct-edge count is the input of the §5.1 threshold rule, see
//!   [`auto_pick`]) and the WFG adjacency only while the rule picks the
//!   WFG; [`IncrementalEngine::check_full`] additionally demands the
//!   selected model's order. A demanded structure that is not live is
//!   built in one pass — an adjacency from the indexes, an order from its
//!   live adjacency — and from then on kept up to date by every delta in
//!   `O(local degree)` / `O(affected region)`. An avoidance engine
//!   (`check_task` only) never builds an order; an SPMD program under
//!   `Auto` never builds a WFG.
//!
//! **The steady state allocates nothing.** The engine does not copy what
//! it syncs: [`IncrementalEngine::sync`] reads the journal's shared
//! entries into a buffer it keeps between syncs, and the `tasks` index
//! holds the registry's own record of each blocked status (one `Arc`,
//! see [`crate::deps`]) from the `Block` entry until the task's unblock
//! or re-block is applied — at which point the engine lets go, and the
//! record is freed once the journal window has moved past it too.
//! ([`IncrementalEngine::apply`] and [`IncrementalEngine::reset_to`], the
//! entry points for deltas and snapshots that did not come from a local
//! registry, wrap each status in a record of its own.) A task's entries in
//! the per-phaser lists are removed in `O(1)` through positions remembered
//! with the task; the lists, the per-phaser tables, the adjacency's
//! successor maps and the `check_task` search's stack and visited set all
//! keep their capacity when they empty, so a program that blocks and
//! unblocks round after round re-uses them instead of freeing and
//! re-allocating them every round. Every map is an [`IdMap`].
//! `tests/alloc_budget.rs` pins the resulting budget as exact counts.
//!
//! **Retirement** is ski-rental, with no constant to tune. Work is counted
//! in one unit — a task visit or an edge-refcount adjustment (for an order:
//! an edge insertion or removal). Every structure remembers the maintenance
//! work spent on it since a query last read it; once that exceeds what
//! rebuilding it *now* would cost (an adjacency: one visit per blocked task
//! plus one adjustment per live contribution; an order: one insertion per
//! distinct edge) the next delta drops it instead of maintaining it, and
//! the next query that wants it pays the rebuild. Keeping a structure
//! nobody reads thus never costs more than about one rebuild of it,
//! whatever the program does — a program that crosses the `Auto` threshold
//! once does not pay for both models forever — and a structure read since
//! the previous delta is never dropped. [`IncrementalEngine::counters`]
//! exposes the builds and retirements.
//!
//! Queries:
//!
//! * [`IncrementalEngine::check_task`] (avoidance) runs an existence-only
//!   cycle search over the selected model's maintained adjacency — no
//!   clone, no rebuild.
//! * [`IncrementalEngine::check_full`] (detection) answers from the
//!   selected model's maintained order: a cycle exists iff some edge could
//!   not be ordered, so detection-time cycle existence is `O(1)`.
//! * Only on a **hit** (a cycle exists, i.e. the program is about to
//!   deadlock) does the engine copy blocked statuses into a sorted
//!   [`Snapshot`] and delegate to the canonical [`checker`], the one report
//!   builder, so delivered reports are byte-identical to the from-scratch
//!   oracle's — the `prop_engine` equivalence suite asserts exactly that.
//!   `check_task` hands it the whole state
//!   ([`IncrementalEngine::materialize`]); `check_full` only the tasks that
//!   decide the report, so its hit costs what reaches the cycle, not what
//!   is blocked (see [`IncrementalEngine::check_full`]).
//!
//! Edge maintenance uses contribution counting. For the SG, the count of
//! edge `r1 → r2` is the number of `(task u, registration g, wait
//! occurrence w)` triples with `g ∈ u.registered`, `g.impedes(r1)`,
//! `w = r2 ∈ W(u)`, restricted to currently-awaited `r1`; the edge exists
//! while the count is positive. For the WFG, the count of `t1 → t2` is the
//! number of `(wait occurrence w ∈ W(t1), g ∈ t2.registered)` pairs with
//! `g.impedes(w)`. A delta adjusts exactly the contributions that exist
//! because its task is blocked — the same enumeration adds them on a block
//! and removes them on an unblock, so the structures drain back to empty —
//! and a build enumerates every task's own contributions once.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::sync::Arc;

use crate::adaptive::{auto_pick, GraphModel, ModelChoice};
use crate::checker::{self, CheckOutcome, CheckStats};
use crate::deps::{BlockedInfo, Delta, Registry, SharedDelta, Snapshot};
use crate::graph::TopoOrder;
use crate::ids::{IdMap, IdSet, Phase, PhaserId, TaskId};
use crate::resource::Resource;

/// What one [`IncrementalEngine::sync`] did, for the stats counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Journal deltas applied to the maintained view.
    pub deltas_applied: usize,
    /// Whether the engine fell behind the journal and reloaded from a full
    /// snapshot instead.
    pub resynced: bool,
}

/// Outcome of a [`IncrementalEngine::check_full_detailed`] detection
/// check: the canonical [`CheckOutcome`] plus whether it was answered
/// purely from the maintained topological order.
#[derive(Clone, Debug)]
pub struct DetectionOutcome {
    /// The report (byte-identical to the canonical checker's) and stats.
    pub outcome: CheckOutcome,
    /// `true` when the check was answered from the order alone (no cycle,
    /// so no status was copied and no canonical check ran).
    pub incremental: bool,
}

/// Cumulative build / retire counts of an engine's derived structures
/// (the two adjacencies and their two orders, each counted on its own).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Structures built because a query demanded one that was not live.
    pub model_builds: u64,
    /// Structures dropped by the ski-rental rule (see the module docs).
    /// Builds and retirements climbing together mean a query pattern that
    /// keeps crossing the rule's break-even point.
    pub model_retires: u64,
    /// Live orders rebuilt from scratch by [`IncrementalEngine::reset_to`]
    /// (a journal resync with no live order rebuilds none).
    pub order_rebuilds: u64,
}

/// Refcounted adjacency: `adj[a][b]` is the number of live contributions
/// to edge `a → b`; the edge exists while the count is positive.
type RefCountedAdj<N> = IdMap<N, IdMap<N, usize>>;

/// One graph model's derived structures: its refcounted adjacency and,
/// while `check_full` keeps asking, the topological order of its distinct
/// edges — each with the work spent on it since a query last read it.
struct Maintained<N> {
    adj: RefCountedAdj<N>,
    /// Emptied successor maps, kept for the next node that gains an edge:
    /// the SG's vertices are `(phaser, phase)` events that never recur, so
    /// without this every round would free and re-allocate its maps.
    spare: Vec<IdMap<N, usize>>,
    /// Distinct edges — what rebuilding the order costs, in insertions.
    edges: usize,
    /// Live contributions (the sum of the refcounts) — the adjustments a
    /// rebuild of the adjacency performs.
    contributions: usize,
    /// Task visits + refcount adjustments since the adjacency's last use.
    idle: usize,
    /// Pearce–Kelly order of the distinct edges, updated on every 0→1 /
    /// 1→0 refcount transition while live.
    order: Option<TopoOrder<N>>,
    /// Edge insertions + removals since the order's last use.
    order_idle: usize,
    /// Scratch of the `check_task` searches over `adj`.
    search: Search<N>,
}

/// The stack and visited set of an existence-only depth-first search,
/// kept between searches so a search allocates nothing once they have
/// grown to the graphs it walks. (Clearing the set costs its capacity,
/// so a search costs at most what the largest one before it visited —
/// until the model is retired, and its scratch with it.)
struct Search<N> {
    stack: Vec<N>,
    seen: IdSet<N>,
}

impl<N: Copy + Eq + Hash> Search<N> {
    /// Is a node satisfying `goal` among `roots` or reachable from them
    /// along `adj`'s live edges?
    fn reaches(
        &mut self,
        adj: &RefCountedAdj<N>,
        roots: impl IntoIterator<Item = N>,
        goal: impl Fn(N) -> bool,
    ) -> bool {
        self.stack.clear();
        self.seen.clear();
        self.stack.extend(roots);
        while let Some(n) = self.stack.pop() {
            if self.seen.insert(n) {
                if goal(n) {
                    return true;
                }
                if let Some(next) = adj.get(&n) {
                    self.stack.extend(next.keys().copied());
                }
            }
        }
        false
    }
}

impl<N> Default for Maintained<N> {
    fn default() -> Self {
        Maintained {
            adj: IdMap::default(),
            spare: Vec::new(),
            edges: 0,
            contributions: 0,
            idle: 0,
            order: None,
            order_idle: 0,
            search: Search { stack: Vec::new(), seen: IdSet::default() },
        }
    }
}

impl<N: Copy + Eq + Hash + Ord> Maintained<N> {
    fn bump(&mut self, from: N, to: N) {
        self.contributions += 1;
        self.idle += 1;
        let succs = match self.adj.entry(from) {
            Entry::Occupied(succs) => succs.into_mut(),
            Entry::Vacant(slot) => slot.insert(self.spare.pop().unwrap_or_default()),
        };
        let count = succs.entry(to).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.edges += 1;
            if let Some(order) = &mut self.order {
                order.insert_edge(from, to);
                self.order_idle += 1;
            }
        }
    }

    fn drop_edge(&mut self, from: N, to: N) {
        self.contributions -= 1;
        self.idle += 1;
        let succs = self.adj.get_mut(&from).expect("dropping an edge that was never added");
        let count = succs.get_mut(&to).expect("dropping an edge that was never added");
        *count -= 1;
        if *count == 0 {
            succs.remove(&to);
            if succs.is_empty() {
                self.spare.extend(self.adj.remove(&from));
            }
            self.edges -= 1;
            if let Some(order) = &mut self.order {
                order.remove_edge(from, to);
                self.order_idle += 1;
            }
        }
    }

    /// Distinct edges, sorted.
    fn edge_list(&self) -> Vec<(N, N)> {
        let mut edges: Vec<(N, N)> =
            self.adj.iter().flat_map(|(&a, succs)| succs.keys().map(move |&b| (a, b))).collect();
        edges.sort();
        edges
    }

    /// Orders the live adjacency in one pass. Edges go in sorted, so the
    /// order's labels (and a seeded testkit replay) do not depend on hash
    /// iteration order.
    fn build_order(&mut self) {
        let mut order = TopoOrder::new();
        for (a, b) in self.edge_list() {
            order.insert_edge(a, b);
        }
        self.order = Some(order);
        self.order_idle = 0;
    }

    /// Drops the adjacency (and its order with it), or just the order,
    /// if the work spent since the last use exceeds the rebuild cost at
    /// the present size — `tasks` visits plus one adjustment per
    /// contribution, resp. one insertion per distinct edge.
    fn retire_idle(slot: &mut Option<Self>, tasks: usize, counters: &mut EngineCounters) {
        let Some(this) = slot else { return };
        if this.idle > tasks + this.contributions {
            counters.model_retires += 1 + u64::from(this.order.is_some());
            *slot = None;
        } else if this.order.is_some() && this.order_idle > this.edges {
            counters.model_retires += 1;
            this.order = None;
        }
    }
}

/// One registration or wait occurrence in a phaser's list.
#[derive(Clone, Copy)]
struct Member {
    task: TaskId,
    /// The registration's local phase, resp. the awaited phase.
    phase: Phase,
    /// Which of the owner's [`Indexed::slots`] records this entry's
    /// position, so that moving the entry can update it.
    back: u32,
}

/// What the engine knows about one phaser.
#[derive(Default)]
struct PhaserIndex {
    /// One entry per registration of a blocked task.
    regs: Vec<Member>,
    /// One entry per wait occurrence.
    waiters: Vec<Member>,
    /// The awaited phases and their waiter counts, sorted by phase (the
    /// SG vertex multiset, indexed for `impedes` range queries).
    awaited: Vec<(Phase, usize)>,
}

impl PhaserIndex {
    fn is_idle(&self) -> bool {
        self.regs.is_empty() && self.waiters.is_empty()
    }

    /// Waiters of `phase` (0 when it is not awaited).
    fn waiters_of(&self, phase: Phase) -> usize {
        let at = self.awaited.binary_search_by_key(&phase, |&(n, _)| n);
        at.map_or(0, |at| self.awaited[at].1)
    }

    /// The awaited phases after `phase`.
    fn awaited_after(&self, phase: Phase) -> impl Iterator<Item = Phase> + '_ {
        let from = self.awaited.partition_point(|&(n, _)| n <= phase);
        self.awaited[from..].iter().map(|&(n, _)| n)
    }
}

/// A blocked task as the engine holds it: the registry's record, shared,
/// plus where the task's entries sit in the per-phaser lists.
struct Indexed {
    info: Arc<BlockedInfo>,
    /// One position per registration (into `regs`), then one per wait
    /// occurrence (into `waiters`): what makes un-indexing `O(1)`.
    slots: Vec<u32>,
}

/// The always-maintained state: the engine's view of the registry and the
/// per-phaser indexes every derived structure is built and updated from.
#[derive(Default)]
struct Indexes {
    /// The blocked statuses (the WFG vertices).
    tasks: IdMap<TaskId, Indexed>,
    /// Per phaser, its registrations, waiters and awaited phases. A
    /// phaser whose last entry left keeps its (empty, grown) lists for
    /// the program's next round; see [`Indexes::phaser_mut`] for when
    /// they go.
    phasers: IdMap<PhaserId, PhaserIndex>,
    /// Distinct awaited events (SG vertex count).
    sg_nodes: usize,
    /// Live list entries (registrations + wait occurrences), and the most
    /// there have been at once since idle phasers were last dropped.
    entries: usize,
    peak_entries: usize,
    /// `Indexed::slots` vectors of unblocked tasks, for the next block.
    spare_slots: Vec<Vec<u32>>,
}

/// Removes the entry at `at` from a phaser's list in `O(1)`, telling the
/// owner of the entry that takes its place where it now sits. That owner
/// is either the task being removed (`leaving`, whose slots the caller
/// holds) or another indexed task.
fn unindex(
    list: &mut Vec<Member>,
    at: u32,
    leaving: TaskId,
    leaving_slots: &mut [u32],
    tasks: &mut IdMap<TaskId, Indexed>,
) {
    list.swap_remove(at as usize);
    if let Some(moved) = list.get(at as usize) {
        let slots = if moved.task == leaving {
            leaving_slots
        } else {
            &mut tasks.get_mut(&moved.task).expect("list entry of an indexed task").slots[..]
        };
        slots[moved.back as usize] = at;
    }
}

impl Indexes {
    /// The index of `phaser`, created if this is the first entry on it.
    /// A program may create phasers for ever, so a new phaser first drops
    /// the idle ones if they have come to outnumber, twice over, the most
    /// entries the lists ever held at once: the table stays proportional
    /// to the engine's own peak size, and the phasers of a program that
    /// reuses them round after round are never dropped.
    fn phaser_mut(&mut self, phaser: PhaserId) -> &mut PhaserIndex {
        if self.phasers.len() > 2 * self.peak_entries && !self.phasers.contains_key(&phaser) {
            self.phasers.retain(|_, index| !index.is_idle());
            self.peak_entries = self.entries;
        }
        self.phasers.entry(phaser).or_default()
    }

    /// Forgets every task, keeping the containers for the reload.
    fn clear(&mut self) {
        for (_, Indexed { mut slots, .. }) in self.tasks.drain() {
            slots.clear();
            self.spare_slots.push(slots);
        }
        for index in self.phasers.values_mut() {
            index.regs.clear();
            index.waiters.clear();
            index.awaited.clear();
        }
        (self.sg_nodes, self.entries) = (0, 0);
    }

    fn insert(&mut self, info: Arc<BlockedInfo>) {
        let task = info.task;
        self.entries += info.registered.len() + info.waits.len();
        self.peak_entries = self.peak_entries.max(self.entries);
        let mut slots = self.spare_slots.pop().unwrap_or_default();
        for reg in &info.registered {
            let regs = &mut self.phaser_mut(reg.phaser).regs;
            slots.push(regs.len() as u32);
            regs.push(Member { task, phase: reg.local_phase, back: slots.len() as u32 - 1 });
        }
        for w in &info.waits {
            let index = self.phaser_mut(w.phaser);
            slots.push(index.waiters.len() as u32);
            index.waiters.push(Member { task, phase: w.phase, back: slots.len() as u32 - 1 });
            match index.awaited.binary_search_by_key(&w.phase, |&(n, _)| n) {
                Ok(at) => index.awaited[at].1 += 1,
                Err(at) => {
                    index.awaited.insert(at, (w.phase, 1));
                    self.sg_nodes += 1;
                }
            }
        }
        self.tasks.insert(task, Indexed { info, slots });
    }

    fn remove(&mut self, task: TaskId) {
        let Some(Indexed { info, mut slots }) = self.tasks.remove(&task) else { return };
        self.entries -= slots.len();
        for (i, reg) in info.registered.iter().enumerate() {
            let index = self.phasers.get_mut(&reg.phaser).expect("indexed phaser");
            unindex(&mut index.regs, slots[i], task, &mut slots, &mut self.tasks);
        }
        for (i, w) in info.waits.iter().enumerate() {
            let index = self.phasers.get_mut(&w.phaser).expect("indexed phaser");
            let slot = slots[info.registered.len() + i];
            unindex(&mut index.waiters, slot, task, &mut slots, &mut self.tasks);
            let at = index.awaited.binary_search_by_key(&w.phase, |&(n, _)| n);
            let at = at.expect("waiter count for live wait");
            index.awaited[at].1 -= 1;
            if index.awaited[at].1 == 0 {
                index.awaited.remove(at);
                self.sg_nodes -= 1;
            }
        }
        slots.clear();
        self.spare_slots.push(slots);
    }

    /// The registrations on `r`'s phaser lagging behind `r` (its impeders),
    /// one per registration entry.
    fn laggards(&self, r: Resource) -> impl Iterator<Item = TaskId> + '_ {
        let regs = self.phasers.get(&r.phaser).into_iter().flat_map(|index| &index.regs);
        regs.filter(move |reg| reg.phase < r.phase).map(|reg| reg.task)
    }

    /// The tasks awaiting `r`, one per wait occurrence.
    fn awaiting(&self, r: Resource) -> impl Iterator<Item = TaskId> + '_ {
        let waiters = self.phasers.get(&r.phaser).into_iter().flat_map(|index| &index.waiters);
        waiters.filter(move |w| w.phase == r.phase).map(|w| w.task)
    }

    /// The SG contributions `u` itself makes: an edge from every awaited
    /// event one of its registrations lags behind to each of its waits.
    fn sg_own(&self, u: &BlockedInfo, mut edge: impl FnMut(Resource, Resource)) {
        for reg in &u.registered {
            let Some(index) = self.phasers.get(&reg.phaser) else { continue };
            for n in index.awaited_after(reg.local_phase) {
                for &r2 in &u.waits {
                    edge(Resource::new(reg.phaser, n), r2);
                }
            }
        }
    }

    /// Every SG contribution that exists because the indexed task `u` is
    /// blocked: its own, plus the out-edges — contributed by the *other*
    /// laggards — of the events only `u` awaits (SG vertices that come
    /// and go with it).
    fn sg_because_of(&self, u: &BlockedInfo, mut edge: impl FnMut(Resource, Resource)) {
        self.sg_own(u, &mut edge);
        for (i, &w) in u.waits.iter().enumerate() {
            let occurrences = u.waits.iter().filter(|&&x| x == w).count();
            let sole_waiter = self.phasers[&w.phaser].waiters_of(w.phase) == occurrences;
            if !sole_waiter || u.waits[..i].contains(&w) {
                continue;
            }
            for x in self.laggards(w).filter(|&x| x != u.task) {
                for &r2 in &self.tasks[&x].info.waits {
                    edge(w, r2);
                }
            }
        }
    }

    /// The WFG contributions `u` makes as a waiter: an edge to every task
    /// (itself included — self-waits are self-deadlocks) lagging behind
    /// one of its waits.
    fn wfg_own(&self, u: &BlockedInfo, mut edge: impl FnMut(TaskId, TaskId)) {
        for &w in &u.waits {
            for x in self.laggards(w) {
                edge(u.task, x);
            }
        }
    }

    /// Every WFG contribution that exists because the indexed task `u` is
    /// blocked: its own, plus an edge from every *other* waiter one of its
    /// registrations impedes.
    fn wfg_because_of(&self, u: &BlockedInfo, mut edge: impl FnMut(TaskId, TaskId)) {
        self.wfg_own(u, &mut edge);
        for reg in &u.registered {
            let Some(index) = self.phasers.get(&reg.phaser) else { continue };
            for waiter in &index.waiters {
                if waiter.phase > reg.local_phase && waiter.task != u.task {
                    edge(waiter.task, u.task);
                }
            }
        }
    }

    /// Builds the SG adjacency into an empty `sg`: every task's own
    /// contributions, once.
    fn fill_sg(&self, sg: &mut Maintained<Resource>) {
        for u in self.tasks.values() {
            self.sg_own(&u.info, |a, b| sg.bump(a, b));
        }
    }

    /// Builds the WFG adjacency into an empty `wfg`.
    fn fill_wfg(&self, wfg: &mut Maintained<TaskId>) {
        for u in self.tasks.values() {
            self.wfg_own(&u.info, |a, b| wfg.bump(a, b));
        }
    }
}

/// Makes `slot`'s adjacency (and, if `order`, its order) live and marks
/// them used: whatever is missing is built — the adjacency by `fill`, the
/// order from the adjacency — and the idle work of what was read restarts.
fn demand_in<N: Copy + Eq + Hash + Ord>(
    slot: &mut Option<Maintained<N>>,
    order: bool,
    counters: &mut EngineCounters,
    fill: impl FnOnce(&mut Maintained<N>),
) {
    let this = slot.get_or_insert_with(|| {
        counters.model_builds += 1;
        let mut built = Maintained::default();
        fill(&mut built);
        built
    });
    this.idle = 0;
    if order {
        if this.order.is_none() {
            counters.model_builds += 1;
            this.build_order();
        }
        this.order_idle = 0;
    }
}

/// Rebuilds a live `slot` after the indexes were reloaded: the adjacency by
/// `fill`, the order (if it was live) from it. Nothing live, nothing built.
fn rebuild_in<N: Copy + Eq + Hash + Ord>(
    slot: &mut Option<Maintained<N>>,
    counters: &mut EngineCounters,
    fill: impl FnOnce(&mut Maintained<N>),
) {
    let Some(this) = slot else { return };
    let had_order = this.order.is_some();
    *this = Maintained::default();
    fill(this);
    this.idle = 0;
    if had_order {
        counters.order_rebuilds += 1;
        this.build_order();
    }
}

/// The long-lived maintained view. One per [`crate::Verifier`]; updates
/// are applied by whichever thread holds the verifier's engine lock.
#[derive(Default)]
pub struct IncrementalEngine {
    /// Journal position: the next delta sequence number to consume.
    cursor: u64,
    /// The journal entries of the sync in progress; kept (empty) between
    /// syncs so that reading the journal allocates nothing.
    inbox: Vec<SharedDelta>,
    /// The always-maintained view and indexes.
    idx: Indexes,
    /// The SG's derived structures, while some query reads them.
    sg: Option<Maintained<Resource>>,
    /// The WFG's derived structures, while some query reads them.
    wfg: Option<Maintained<TaskId>>,
    counters: EngineCounters,
}

impl IncrementalEngine {
    /// An empty engine at journal position 0, with nothing live.
    pub fn new() -> IncrementalEngine {
        IncrementalEngine::default()
    }

    /// Brings the maintained view up to date with `registry`: applies the
    /// journal deltas since the engine's cursor, or reloads from a full
    /// snapshot when the bounded journal has truncated past it.
    pub fn sync(&mut self, registry: &Registry) -> SyncOutcome {
        let mut inbox = std::mem::take(&mut self.inbox);
        let outcome = match registry.read_journal(self.cursor, &mut inbox) {
            Some(cursor) => {
                let applied = inbox.len();
                for delta in inbox.drain(..) {
                    self.apply_shared(delta);
                }
                self.cursor = cursor;
                SyncOutcome { deltas_applied: applied, resynced: false }
            }
            None => {
                let (records, cursor) = registry.records_with_cursor();
                self.reload(records);
                self.cursor = cursor;
                SyncOutcome { deltas_applied: 0, resynced: true }
            }
        };
        self.inbox = inbox;
        outcome
    }

    /// Applies one delta to the indexes and to whatever is live.
    /// Application is idempotent per task: a replayed `Block` replaces the
    /// task's previous contribution, and an `Unblock` of an unknown task
    /// is a no-op — required because a distributed checker following the
    /// store's change log gets an `Unblock` for every id that changed and
    /// is now absent, whether or not it ever saw the id blocked.
    pub fn apply(&mut self, delta: Delta) {
        self.apply_shared(match delta {
            Delta::Block(info) => SharedDelta::Block(Arc::new(info)),
            Delta::Unblock(task) => SharedDelta::Unblock(task),
        });
    }

    fn apply_shared(&mut self, delta: SharedDelta) {
        // Decided before the delta's own work is spent: a structure read
        // since the previous delta is never dropped.
        let blocked = self.idx.tasks.len();
        Maintained::retire_idle(&mut self.sg, blocked, &mut self.counters);
        Maintained::retire_idle(&mut self.wfg, blocked, &mut self.counters);
        match delta {
            SharedDelta::Block(info) => {
                // Re-blocking replaces the previous record (registry
                // semantics).
                self.unblock(info.task);
                self.idx.insert(Arc::clone(&info));
                if let Some(sg) = &mut self.sg {
                    sg.idle += 1;
                    self.idx.sg_because_of(&info, |a, b| sg.bump(a, b));
                }
                if let Some(wfg) = &mut self.wfg {
                    wfg.idle += 1;
                    self.idx.wfg_because_of(&info, |a, b| wfg.bump(a, b));
                }
            }
            SharedDelta::Unblock(task) => self.unblock(task),
        }
    }

    /// The exact mirror of a block: the same enumeration, evaluated while
    /// the task is still indexed, removes what its block added.
    fn unblock(&mut self, task: TaskId) {
        let Some(Indexed { info, .. }) = self.idx.tasks.get(&task) else { return };
        if let Some(sg) = &mut self.sg {
            sg.idle += 1;
            self.idx.sg_because_of(info, |a, b| sg.drop_edge(a, b));
        }
        if let Some(wfg) = &mut self.wfg {
            wfg.idle += 1;
            self.idx.wfg_because_of(info, |a, b| wfg.drop_edge(a, b));
        }
        self.idx.remove(task);
    }

    /// Discards the maintained view and reloads it from `snapshot`
    /// (consumer joins and journal-truncation recovery), rebuilding only
    /// the derived structures that are live. The journal cursor is
    /// preserved — [`IncrementalEngine::sync`] manages it.
    pub fn reset_to(&mut self, snapshot: &Snapshot) {
        self.reload(snapshot.tasks.iter().map(|info| Arc::new(info.clone())));
    }

    fn reload(&mut self, records: impl IntoIterator<Item = Arc<BlockedInfo>>) {
        self.idx.clear();
        for info in records {
            self.idx.remove(info.task);
            self.idx.insert(info);
        }
        let idx = &self.idx;
        rebuild_in(&mut self.sg, &mut self.counters, |sg| idx.fill_sg(sg));
        rebuild_in(&mut self.wfg, &mut self.counters, |wfg| idx.fill_wfg(wfg));
    }

    // -- demand -------------------------------------------------------------

    /// Makes `model`'s adjacency live — built from the indexes if it is
    /// not — and marks it used. The queries call this for what they read;
    /// tests call it before reading the structural accessors, which report
    /// what is maintained and never build.
    pub fn demand(&mut self, model: GraphModel) {
        self.demand_with(model, false);
    }

    /// [`IncrementalEngine::demand`] plus `model`'s topological order,
    /// built from the live adjacency if it is not live.
    pub fn demand_order(&mut self, model: GraphModel) {
        self.demand_with(model, true);
    }

    fn demand_with(&mut self, model: GraphModel, order: bool) {
        let (idx, counters) = (&self.idx, &mut self.counters);
        match model {
            GraphModel::Sg => demand_in(&mut self.sg, order, counters, |sg| idx.fill_sg(sg)),
            GraphModel::Wfg => demand_in(&mut self.wfg, order, counters, |wfg| idx.fill_wfg(wfg)),
        }
    }

    /// Is `model`'s adjacency currently maintained?
    pub fn is_live(&self, model: GraphModel) -> bool {
        match model {
            GraphModel::Sg => self.sg.is_some(),
            GraphModel::Wfg => self.wfg.is_some(),
        }
    }

    /// Is `model`'s topological order currently maintained?
    pub fn order_is_live(&self, model: GraphModel) -> bool {
        match model {
            GraphModel::Sg => self.sg.as_ref().is_some_and(|sg| sg.order.is_some()),
            GraphModel::Wfg => self.wfg.as_ref().is_some_and(|wfg| wfg.order.is_some()),
        }
    }

    /// Builds and retirements so far.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    // -- queries ------------------------------------------------------------

    /// Number of blocked tasks in the maintained view.
    pub fn blocked(&self) -> usize {
        self.idx.tasks.len()
    }

    /// The engine's journal position.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The model a check at the current state uses, with its adjacency
    /// demanded. `Auto` applies the threshold rule (see [`auto_pick`]) to
    /// the live SG's edge count — the from-scratch builder's answer on the
    /// same state, exactly.
    fn model_for(&mut self, choice: ModelChoice, threshold: usize) -> GraphModel {
        let model = match choice {
            ModelChoice::FixedWfg => GraphModel::Wfg,
            ModelChoice::FixedSg => GraphModel::Sg,
            ModelChoice::Auto => {
                self.demand(GraphModel::Sg);
                auto_pick(self.sg_edge_count(), self.idx.tasks.len(), threshold)
            }
        };
        self.demand(model);
        model
    }

    fn stats_for(&self, choice: ModelChoice, model: GraphModel) -> CheckStats {
        CheckStats {
            model,
            nodes: match model {
                GraphModel::Wfg => self.idx.tasks.len(),
                GraphModel::Sg => self.idx.sg_nodes,
            },
            edges: match model {
                GraphModel::Wfg => self.wfg_edge_count(),
                GraphModel::Sg => self.sg_edge_count(),
            },
            blocked_tasks: self.idx.tasks.len(),
            sg_aborted: choice == ModelChoice::Auto && model == GraphModel::Wfg,
        }
    }

    /// Avoidance check on the maintained graph: is there a cycle through
    /// `task`'s contribution? The negative (overwhelmingly common) case
    /// touches only the nodes reachable from `task`; a hit falls back to
    /// the canonical checker over the materialised snapshot so the report
    /// is byte-identical to the from-scratch oracle's.
    pub fn check_task(
        &mut self,
        task: TaskId,
        choice: ModelChoice,
        threshold: usize,
    ) -> CheckOutcome {
        let model = self.model_for(choice, threshold);
        let hit = self.cycle_through(task, model);
        let report = if hit {
            checker::check_task(&self.materialize(), task, choice, threshold).report
        } else {
            None
        };
        CheckOutcome { report, stats: self.stats_for(choice, model) }
    }

    /// Detection check answered from the selected model's maintained
    /// Pearce–Kelly order: is there any cycle? Cycle existence is read off
    /// the order state — `O(1)` when no insertion was deferred,
    /// `O(affected region)` amortised over the deltas that built it —
    /// instead of walking the whole refcounted adjacency. Only a hit
    /// delegates to the canonical [`checker`], over the slice of the state
    /// that decides its report (the tasks that reach a cycle — see
    /// `cycle_slice`), so reports stay byte-identical to the from-scratch
    /// oracle's at the cost of the cycle, not of the blocked population.
    pub fn check_full(&mut self, choice: ModelChoice, threshold: usize) -> CheckOutcome {
        self.check_full_detailed(choice, threshold).outcome
    }

    /// [`IncrementalEngine::check_full`] plus how the answer was obtained,
    /// so callers can feed the `incremental_detections` stats counter.
    pub fn check_full_detailed(
        &mut self,
        choice: ModelChoice,
        threshold: usize,
    ) -> DetectionOutcome {
        let model = self.model_for(choice, threshold);
        let hit = self.order_cycle_exists(model);
        let report = if hit {
            // The engine's own pick, fixed: the slice is a smaller state,
            // on which `Auto` could pick the other model.
            let fixed = match model {
                GraphModel::Wfg => ModelChoice::FixedWfg,
                GraphModel::Sg => ModelChoice::FixedSg,
            };
            checker::check(&self.cycle_slice(model), fixed, threshold).report
        } else {
            None
        };
        DetectionOutcome {
            outcome: CheckOutcome { report, stats: self.stats_for(choice, model) },
            incremental: !hit,
        }
    }

    /// Cycle existence for `model`, answered from its (demanded) order;
    /// deferred-edge retries run here.
    pub fn order_cycle_exists(&mut self, model: GraphModel) -> bool {
        self.demand_order(model);
        match model {
            GraphModel::Wfg => live_order(&mut self.wfg).has_cycle(),
            GraphModel::Sg => live_order(&mut self.sg).has_cycle(),
        }
    }

    /// The part of the state that decides the canonical report of a cycle
    /// in `model`, whose order [`IncrementalEngine::order_cycle_exists`]
    /// has just queried: the tasks that reach a cycle in the WFG, resp.
    /// every waiter of the events that reach one in the SG.
    ///
    /// The canonical checker builds the model's graph from a sorted
    /// snapshot and reports the first back edge of a depth-first search
    /// that takes roots in first-seen vertex order and successors in
    /// first-contribution order. A vertex that reaches no cycle has only
    /// such vertices below it, so searching it finds nothing and colours
    /// nothing that matters: the search is decided by the vertices that
    /// reach a cycle — its first grey vertex is the first of them, which
    /// may be a bystander waiting on a cycle it is not part of — and by
    /// the relative order of those vertices and of the edges among them.
    /// The tasks that decide either are all in the slice: a WFG vertex is a
    /// task, and an edge between two of them is theirs alone; an SG vertex
    /// is first seen at one of its waiters, an edge into it is contributed
    /// by one of its waiters, and the report's tasks are waiters of the
    /// cycle's events. Sorting keeps their relative order, so the search
    /// over the slice goes through the same motions and the report is the
    /// same, byte for byte.
    fn cycle_slice(&mut self, model: GraphModel) -> Snapshot {
        let mut tasks: Vec<TaskId> = match model {
            GraphModel::Wfg => live_order(&mut self.wfg).reaching_a_cycle(),
            GraphModel::Sg => {
                let events = live_order(&mut self.sg).reaching_a_cycle();
                events.into_iter().flat_map(|r| self.idx.awaiting(r)).collect()
            }
        };
        tasks.sort_unstable();
        tasks.dedup();
        let status = |task| BlockedInfo::clone(&self.idx.tasks[task].info);
        Snapshot::from_tasks(tasks.iter().map(status).collect())
    }

    /// Checks every live order against its adjacency's distinct-edge list:
    /// every edge accounted for, committed edges strictly ascending in
    /// label. Test/testkit hook — `Err` means order maintenance has
    /// diverged from the refcounted adjacency. An order that is not live
    /// has nothing to diverge; [`IncrementalEngine::demand_order`] first
    /// to check one.
    pub fn order_invariants(&self) -> Result<(), String> {
        fn validate<N: Copy + Eq + Hash + Ord + std::fmt::Debug>(
            slot: &Option<Maintained<N>>,
            name: &str,
        ) -> Result<(), String> {
            let Some(this) = slot else { return Ok(()) };
            let Some(order) = &this.order else { return Ok(()) };
            order.validate(&this.edge_list()).map_err(|e| format!("{name} order: {e}"))
        }
        validate(&self.wfg, "wfg")?;
        validate(&self.sg, "sg")
    }

    /// The maintained view as a sorted [`Snapshot`] (identical, entry for
    /// entry, to `Registry::snapshot` of a caught-up registry): what a
    /// `check_task` hit hands the canonical checker, and the oracle's view
    /// of the engine in the equivalence suites.
    pub fn materialize(&self) -> Snapshot {
        Snapshot::from_tasks(self.idx.tasks.values().map(|t| BlockedInfo::clone(&t.info)).collect())
    }

    /// Is there a cycle through `task`'s contribution to the (live)
    /// `model`? In the WFG, a path from `task` back to itself. In the SG
    /// (as in [`checker::check_task`]), a path from one of the task's
    /// awaited events back to an event it impedes, closed by the task's
    /// own edge.
    fn cycle_through(&mut self, task: TaskId, model: GraphModel) -> bool {
        match model {
            GraphModel::Wfg => {
                let Maintained { adj, search, .. } = live_mut(&mut self.wfg);
                let succs = adj.get(&task).into_iter().flat_map(|succs| succs.keys().copied());
                search.reaches(adj, succs, |u| u == task)
            }
            GraphModel::Sg => {
                let Some(Indexed { info, .. }) = self.idx.tasks.get(&task) else { return false };
                let Maintained { adj, search, .. } = live_mut(&mut self.sg);
                search.reaches(adj, info.waits.iter().copied(), |r| info.impedes(r))
            }
        }
    }

    // -- structural accessors (equivalence tests, benches) ------------------
    //
    // The edge accessors report what is *maintained*: an adjacency that is
    // not live has no edges. They never build —
    // [`IncrementalEngine::demand`] does.

    /// Distinct SG edges, sorted (empty while the SG is not live).
    pub fn sg_edge_list(&self) -> Vec<(Resource, Resource)> {
        self.sg.as_ref().map(Maintained::edge_list).unwrap_or_default()
    }

    /// Distinct WFG edges, sorted (empty while the WFG is not live).
    pub fn wfg_edge_list(&self) -> Vec<(TaskId, TaskId)> {
        self.wfg.as_ref().map(Maintained::edge_list).unwrap_or_default()
    }

    /// Distinct awaited events (SG vertices), sorted.
    pub fn sg_vertex_list(&self) -> Vec<Resource> {
        let mut nodes: Vec<Resource> = self
            .idx
            .phasers
            .iter()
            .flat_map(|(&p, index)| index.awaited.iter().map(move |&(n, _)| Resource::new(p, n)))
            .collect();
        nodes.sort();
        nodes
    }

    /// Blocked tasks (WFG vertices), sorted.
    pub fn wfg_vertex_list(&self) -> Vec<TaskId> {
        let mut nodes: Vec<TaskId> = self.idx.tasks.keys().copied().collect();
        nodes.sort();
        nodes
    }

    /// Distinct edge count of the maintained SG (0 while it is not live).
    pub fn sg_edge_count(&self) -> usize {
        self.sg.as_ref().map_or(0, |sg| sg.edges)
    }

    /// Distinct edge count of the maintained WFG (0 while it is not live).
    pub fn wfg_edge_count(&self) -> usize {
        self.wfg.as_ref().map_or(0, |wfg| wfg.edges)
    }
}

/// The structures a query demanded a moment ago.
fn live_mut<N>(slot: &mut Option<Maintained<N>>) -> &mut Maintained<N> {
    slot.as_mut().expect("model_for left the selected adjacency live")
}

fn live_order<N>(slot: &mut Option<Maintained<N>>) -> &mut TopoOrder<N> {
    slot.as_mut().and_then(|m| m.order.as_mut()).expect("demand_order left the order live")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::DEFAULT_SG_THRESHOLD;
    use crate::resource::Registration;
    use crate::{sg, wfg};

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }
    fn r(ph: u64, n: u64) -> Resource {
        Resource::new(p(ph), n)
    }

    fn worker(task: u64) -> BlockedInfo {
        BlockedInfo::new(
            t(task),
            vec![r(1, 1)],
            vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
        )
    }

    fn driver() -> BlockedInfo {
        BlockedInfo::new(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        )
    }

    /// Engine structures — both adjacencies demanded — equal the
    /// from-scratch oracle on the current materialised state.
    fn assert_matches_oracle(engine: &mut IncrementalEngine) {
        engine.demand(GraphModel::Wfg);
        engine.demand(GraphModel::Sg);
        let snap = engine.materialize();
        let oracle_wfg = wfg::wfg(&snap);
        let oracle_sg = sg::sg(&snap);
        assert_eq!(engine.wfg_edge_list(), {
            let mut e = oracle_wfg.edges();
            e.sort();
            e
        });
        assert_eq!(engine.sg_edge_list(), {
            let mut e = oracle_sg.edges();
            e.sort();
            e
        });
        assert_eq!(engine.wfg_vertex_list(), {
            let mut n = oracle_wfg.nodes().to_vec();
            n.sort();
            n
        });
        assert_eq!(engine.sg_vertex_list(), {
            let mut n = oracle_sg.nodes().to_vec();
            n.sort();
            n
        });
    }

    #[test]
    fn example_4_1_builds_figure_5_shapes_incrementally() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
            assert_matches_oracle(&mut engine);
        }
        engine.apply(Delta::Block(driver()));
        assert_matches_oracle(&mut engine);
        assert_eq!(engine.wfg_edge_count(), 6); // Figure 5a
        assert_eq!(engine.sg_edge_count(), 2); // Figure 5c
        assert_eq!(engine.blocked(), 4);

        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let out = engine.check_full(choice, DEFAULT_SG_THRESHOLD);
            assert!(out.report.is_some(), "{choice}");
            for task in 1..=4 {
                let out = engine.check_task(t(task), choice, DEFAULT_SG_THRESHOLD);
                assert!(out.report.is_some(), "{choice}: t{task} participates");
            }
        }
    }

    #[test]
    fn unblock_is_the_exact_mirror_of_block() {
        let mut engine = IncrementalEngine::new();
        // Live from the start, so the blocks are maintained edge by edge.
        engine.demand_order(GraphModel::Wfg);
        engine.demand_order(GraphModel::Sg);
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.apply(Delta::Block(driver()));
        engine.apply(Delta::Unblock(t(4)));
        assert_matches_oracle(&mut engine);
        assert!(engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD).report.is_none());
        for i in 1..=3 {
            engine.apply(Delta::Unblock(t(i)));
        }
        assert_eq!(engine.blocked(), 0);
        assert_eq!(engine.sg_edge_count(), 0);
        assert_eq!(engine.wfg_edge_count(), 0);
        assert_eq!(engine.sg_vertex_list(), Vec::<Resource>::new());
        assert!(engine.sg.as_ref().map_or(true, |sg| sg.adj.is_empty() && sg.contributions == 0));
        assert!(engine.wfg.as_ref().map_or(true, |wfg| wfg.adj.is_empty()));
        assert_eq!((engine.idx.sg_nodes, engine.idx.entries), (0, 0));
        assert!(engine.idx.phasers.values().all(|p| p.is_idle() && p.awaited.is_empty()));
    }

    #[test]
    fn idle_phaser_indexes_outlive_a_round_but_do_not_pile_up() {
        let on = |task: u64, phaser: u64, phase: u64| {
            let regs = vec![Registration::new(p(phaser), phase)];
            Delta::Block(BlockedInfo::new(t(task), vec![r(phaser, phase)], regs))
        };
        // A program that reuses its phasers finds their (emptied) indexes
        // again on its next round...
        let mut engine = IncrementalEngine::new();
        for round in 1..=3 {
            (0..8).for_each(|i| engine.apply(on(i, i, round)));
            (0..8).for_each(|i| engine.apply(Delta::Unblock(t(i))));
            assert_eq!((engine.idx.phasers.len(), engine.idx.entries), (8, 0));
        }
        // ...and one that keeps creating phasers does not keep them all:
        // the table stays within twice the most entries ever indexed at
        // once (8 tasks × a registration and a wait).
        assert_eq!(engine.idx.peak_entries, 16);
        for fresh in 100..1100 {
            engine.apply(on(0, fresh, 1));
            engine.apply(Delta::Unblock(t(0)));
            assert!(engine.idx.phasers.len() <= 2 * 16 + 1, "{}", engine.idx.phasers.len());
        }
        assert_matches_oracle(&mut engine);
    }

    #[test]
    fn reblocking_replaces_the_previous_contribution() {
        let mut engine = IncrementalEngine::new();
        engine.apply(Delta::Block(worker(1)));
        let mut moved = worker(1);
        moved.waits = vec![r(3, 1)];
        moved.registered = vec![Registration::new(p(3), 1)];
        engine.apply(Delta::Block(moved));
        assert_matches_oracle(&mut engine);
        assert_eq!(engine.blocked(), 1);
        assert_eq!(engine.sg_vertex_list(), vec![r(3, 1)]);
    }

    #[test]
    fn self_wait_is_a_self_loop_in_both_models() {
        let mut engine = IncrementalEngine::new();
        engine.apply(Delta::Block(BlockedInfo::new(
            t(1),
            vec![r(1, 5)],
            vec![Registration::new(p(1), 2)],
        )));
        assert_matches_oracle(&mut engine);
        assert!(engine.cycle_through(t(1), GraphModel::Wfg));
        assert!(engine.cycle_through(t(1), GraphModel::Sg));
        assert!(engine.check_task(t(1), ModelChoice::Auto, DEFAULT_SG_THRESHOLD).report.is_some());
    }

    #[test]
    fn bystanders_do_not_trip_task_checks() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.apply(Delta::Block(driver()));
        engine.apply(Delta::Block(BlockedInfo::new(
            t(9),
            vec![r(9, 1)],
            vec![Registration::new(p(9), 1)],
        )));
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            assert!(
                engine.check_task(t(9), choice, DEFAULT_SG_THRESHOLD).report.is_none(),
                "{choice}: t9 is a bystander"
            );
        }
    }

    #[test]
    fn sync_applies_deltas_and_resyncs_when_behind() {
        let registry = Registry::with_journal_capacity(3);
        let mut engine = IncrementalEngine::new();
        registry.block(worker(1));
        registry.block(worker(2));
        let out = engine.sync(&registry);
        assert_eq!(out, SyncOutcome { deltas_applied: 2, resynced: false });
        assert_matches_oracle(&mut engine);

        // Four more deltas truncate past the engine's cursor.
        registry.block(worker(3));
        registry.block(driver());
        registry.unblock(t(3));
        registry.block(worker(3));
        let out = engine.sync(&registry);
        assert!(out.resynced);
        assert_matches_oracle(&mut engine);
        assert_eq!(engine.blocked(), 4);

        // Caught up again: the next sync is an empty delta read.
        let out = engine.sync(&registry);
        assert_eq!(out, SyncOutcome { deltas_applied: 0, resynced: false });
    }

    #[test]
    fn engine_reports_are_byte_identical_to_the_oracle() {
        let registry = Registry::new();
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            registry.block(worker(i));
        }
        registry.block(driver());
        engine.sync(&registry);
        let snap = registry.snapshot();
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg] {
            let ours = engine.check_full(choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            let oracle = checker::check(&snap, choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            assert_eq!(ours, oracle, "{choice}");
            let ours = engine.check_task(t(4), choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            let oracle =
                checker::check_task(&snap, t(4), choice, DEFAULT_SG_THRESHOLD).report.unwrap();
            assert_eq!(ours, oracle, "{choice}");
        }
    }

    #[test]
    fn auto_model_follows_the_threshold_rule() {
        let mut engine = IncrementalEngine::new();
        // SPMD shape: one barrier, many tasks — tiny SG, Auto keeps it.
        for i in 0..64u64 {
            let phase = if i == 0 { 0 } else { 1 };
            engine.apply(Delta::Block(BlockedInfo::new(
                t(i),
                vec![r(1, 1)],
                vec![Registration::new(p(1), phase)],
            )));
        }
        assert_eq!(engine.model_for(ModelChoice::Auto, DEFAULT_SG_THRESHOLD), GraphModel::Sg);
        let stats = engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD).stats;
        assert_eq!(stats.model, GraphModel::Sg);
        assert!(!stats.sg_aborted);

        // Few tasks, many barriers each: the SG explodes, Auto falls back.
        let mut engine = IncrementalEngine::new();
        for i in 0..4u64 {
            engine.apply(Delta::Block(many_barrier_task(i)));
        }
        assert_eq!(engine.model_for(ModelChoice::Auto, DEFAULT_SG_THRESHOLD), GraphModel::Wfg);
        let stats = engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD).stats;
        assert!(stats.sg_aborted);
    }

    /// The "few tasks × many phasers" shape: task `i` waits on barrier
    /// `i % 64` while lagging on all 64.
    fn many_barrier_task(i: u64) -> BlockedInfo {
        let regs = (0..64).map(|b| Registration::new(p(b), 0)).collect();
        BlockedInfo::new(t(i), vec![r(i % 64, 1)], regs)
    }

    #[test]
    fn wfg_shaped_programs_keep_both_adjacencies_live_and_fully_maintained() {
        // Under Auto a WFG-shaped program reads the SG (for the pick) and
        // the WFG (for the answer) on every check, so both stay live and
        // every delta maintains both — the per-delta work of an engine
        // that always maintained both.
        let mut engine = IncrementalEngine::new();
        for round in 0..3 {
            for i in 0..6u64 {
                engine.apply(Delta::Block(many_barrier_task(i)));
                let out = engine.check_task(t(i), ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
                // k tasks impede each other's every wait: k² SG edges.
                if engine.blocked() >= 3 {
                    assert_eq!(out.stats.model, GraphModel::Wfg, "round {round}, task {i}");
                    assert!(out.stats.sg_aborted);
                }
            }
            assert!(engine.is_live(GraphModel::Sg) && engine.is_live(GraphModel::Wfg));
            // Both adjacencies equal the from-scratch oracle without any
            // rebuild in between: each delta adjusted every contribution.
            let snap = engine.materialize();
            assert_eq!(engine.sg_edge_count(), sg::sg(&snap).edge_count());
            assert_eq!(engine.wfg_edge_count(), wfg::wfg(&snap).edge_count());
            // Never fewer than three blocked: the shape stays WFG-picked.
            for i in 3..6u64 {
                engine.apply(Delta::Unblock(t(i)));
                let out = engine.check_task(t(0), ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
                assert_eq!(out.stats.model, GraphModel::Wfg);
            }
        }
        let counters = engine.counters();
        assert_eq!(counters.model_retires, 0, "read on every check ⇒ never retired");
        assert_eq!(counters.model_builds, 2, "each adjacency built once, on first demand");
        assert!(!engine.order_is_live(GraphModel::Sg) && !engine.order_is_live(GraphModel::Wfg));
    }

    #[test]
    fn crossing_the_threshold_once_does_not_keep_the_wfg_forever() {
        let mut engine = IncrementalEngine::new();
        // Above the threshold: the WFG is demanded.
        for i in 0..4u64 {
            engine.apply(Delta::Block(many_barrier_task(i)));
        }
        let out = engine.check_task(t(3), ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert_eq!(out.stats.model, GraphModel::Wfg);
        for i in 0..4u64 {
            engine.apply(Delta::Unblock(t(i)));
            engine.check_task(t(0), ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        }
        // Back to an SPMD shape, checked on every delta: the SG is read
        // every time, the WFG never again — it is dropped once keeping it
        // has cost more than rebuilding it would.
        for i in 0..64u64 {
            let phase = if i == 0 { 0 } else { 1 };
            engine.apply(Delta::Block(BlockedInfo::new(
                t(100 + i),
                vec![r(1, 1)],
                vec![Registration::new(p(1), phase)],
            )));
            let out = engine.check_task(t(100 + i), ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
            assert_eq!(out.stats.model, GraphModel::Sg);
        }
        assert!(engine.is_live(GraphModel::Sg));
        assert!(!engine.is_live(GraphModel::Wfg), "the idle WFG was retired");
        assert_eq!(engine.wfg_edge_count(), 0, "the accessor reports what is maintained");
        assert_eq!(engine.counters().model_retires, 1);
    }

    #[test]
    fn demand_retire_redemand_matches_the_oracle() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.demand_order(GraphModel::Wfg);
        engine.demand_order(GraphModel::Sg);
        assert_eq!(engine.counters().model_builds, 4);
        assert_matches_oracle(&mut engine);

        // An idle stretch: the population turns over with no query.
        for _ in 0..4 {
            for i in 1..=3 {
                engine.apply(Delta::Unblock(t(i)));
                engine.apply(Delta::Block(worker(i)));
            }
        }
        engine.apply(Delta::Block(driver()));
        for model in [GraphModel::Wfg, GraphModel::Sg] {
            assert!(!engine.is_live(model) && !engine.order_is_live(model), "{model} retired");
        }
        assert_eq!(engine.counters().model_retires, 4);
        assert_eq!((engine.sg_edge_count(), engine.wfg_edge_count()), (0, 0));
        engine.order_invariants().expect("nothing live, nothing to diverge");

        // Re-demand: one pass from the indexes, equal to the oracle.
        engine.demand_order(GraphModel::Wfg);
        engine.demand_order(GraphModel::Sg);
        assert_eq!(engine.counters().model_builds, 8);
        assert_matches_oracle(&mut engine);
        assert_eq!(engine.wfg_edge_count(), 6); // Figure 5a
        assert_eq!(engine.sg_edge_count(), 2); // Figure 5c
        engine.order_invariants().expect("rebuilt orders are valid");
        assert!(engine.order_cycle_exists(GraphModel::Wfg));
        assert!(engine.order_cycle_exists(GraphModel::Sg));
    }

    #[test]
    fn reset_rebuilds_exactly_what_is_live() {
        let mut source = IncrementalEngine::new();
        for i in 1..=3 {
            source.apply(Delta::Block(worker(i)));
        }
        source.apply(Delta::Block(driver()));
        let snapshot = source.materialize();

        // Nothing live: a reset reloads the indexes and builds nothing.
        let mut engine = IncrementalEngine::new();
        engine.reset_to(&snapshot);
        assert_eq!(engine.blocked(), 4);
        assert_eq!(engine.sg_vertex_list(), vec![r(1, 1), r(2, 1)]);
        for model in [GraphModel::Wfg, GraphModel::Sg] {
            assert!(!engine.is_live(model) && !engine.order_is_live(model), "{model}");
        }
        assert_eq!((engine.sg_edge_count(), engine.wfg_edge_count()), (0, 0));
        assert_eq!(engine.counters(), EngineCounters::default());

        // Everything live: a reset rebuilds both adjacencies and both
        // orders, counted as order rebuilds, not as demand builds.
        engine.demand_order(GraphModel::Wfg);
        engine.demand_order(GraphModel::Sg);
        engine.reset_to(&Snapshot::empty());
        assert_eq!((engine.sg_edge_count(), engine.wfg_edge_count()), (0, 0));
        engine.reset_to(&snapshot);
        assert_eq!((engine.sg_edge_count(), engine.wfg_edge_count()), (2, 6));
        assert!(engine.order_is_live(GraphModel::Wfg) && engine.order_is_live(GraphModel::Sg));
        engine.order_invariants().expect("rebuilt orders are valid");
        assert_eq!(
            engine.counters(),
            EngineCounters { model_builds: 4, model_retires: 0, order_rebuilds: 4 }
        );
        assert_matches_oracle(&mut engine);

        // Partly live: only the SG adjacency comes back.
        let mut engine = IncrementalEngine::new();
        engine.demand(GraphModel::Sg);
        engine.reset_to(&snapshot);
        assert_eq!((engine.sg_edge_count(), engine.wfg_edge_count()), (2, 0));
        assert!(!engine.order_is_live(GraphModel::Sg) && !engine.is_live(GraphModel::Wfg));
    }

    #[test]
    fn check_full_matches_the_oracle_on_a_long_chain() {
        // 4k+ blocked tasks, one barrier each in a long chain: task i
        // (arrived on barrier i, lagging on barrier i-1) — acyclic, with
        // an order thousands of labels long.
        let mut engine = IncrementalEngine::new();
        let n = 4096 + 128;
        for i in 0..n {
            let mut regs = vec![Registration::new(p(i), 1)];
            if i > 0 {
                regs.push(Registration::new(p(i - 1), 0));
            }
            engine.apply(Delta::Block(BlockedInfo::new(t(i), vec![r(i, 1)], regs)));
        }
        let out = engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        assert!(out.report.is_none(), "chain shape is deadlock-free");
        // Close the chain: task 0 re-blocks with an extra lagging
        // registration on the *last* barrier, adding the back edge
        // t(n-1) → t(0) — a cycle spanning the whole chain.
        engine.apply(Delta::Block(BlockedInfo::new(
            t(0),
            vec![r(0, 1)],
            vec![Registration::new(p(0), 1), Registration::new(p(n - 1), 0)],
        )));
        let out = engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        let oracle =
            checker::check(&engine.materialize(), ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        assert!(oracle.report.is_some(), "closed chain must be reported");
        assert_eq!(
            out.report, oracle.report,
            "order path and canonical checker must deliver the identical report"
        );
    }

    const CHOICES: [ModelChoice; 3] =
        [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto];

    /// `check_full` hits under every model choice, and each report is
    /// byte-identical to the canonical checker's on the whole state.
    fn assert_hits_match_the_oracle(engine: &mut IncrementalEngine) {
        let snap = engine.materialize();
        for choice in CHOICES {
            let ours = engine.check_full(choice, DEFAULT_SG_THRESHOLD).report;
            let oracle = checker::check(&snap, choice, DEFAULT_SG_THRESHOLD).report;
            assert!(oracle.is_some(), "{choice}: the state holds a cycle");
            assert_eq!(ours, oracle, "{choice}");
        }
    }

    /// The tasks `check_full` hands the canonical checker on a hit.
    fn slice(engine: &mut IncrementalEngine, model: GraphModel) -> Vec<u64> {
        assert!(engine.order_cycle_exists(model), "{model}: no cycle");
        engine.cycle_slice(model).tasks.iter().map(|b| b.task.0).collect()
    }

    /// Task `i` of a ring: arrived at and awaiting barrier `i`, and the
    /// member that has not arrived at barrier `next` — so `next`'s task
    /// waits for it.
    fn ring(i: u64, next: u64) -> BlockedInfo {
        BlockedInfo::new(
            t(i),
            vec![r(i, 1)],
            vec![Registration::new(p(i), 1), Registration::new(p(next), 0)],
        )
    }

    /// A task alone on a barrier of its own.
    fn loner(i: u64) -> BlockedInfo {
        BlockedInfo::new(t(i), vec![r(i, 1)], vec![Registration::new(p(i), 1)])
    }

    /// A ring 5 → 7 → 6 → 5, a bystander `t1` that sorts before it and
    /// waits (on barrier 7) for its `t6`, a task `t9` the ring waits for
    /// that waits for nothing in it, and an unrelated `t20`.
    fn ring_with_bystanders() -> IncrementalEngine {
        let mut engine = IncrementalEngine::new();
        for (i, next) in [(5, 6), (6, 7), (7, 5)] {
            engine.apply(Delta::Block(ring(i, next)));
        }
        let arrived_at_7 = vec![Registration::new(p(7), 1)];
        engine.apply(Delta::Block(BlockedInfo::new(t(1), vec![r(7, 1)], arrived_at_7)));
        let late_for_5 = vec![Registration::new(p(5), 0), Registration::new(p(90), 1)];
        engine.apply(Delta::Block(BlockedInfo::new(t(9), vec![r(90, 1)], late_for_5)));
        engine.apply(Delta::Block(loner(20)));
        engine
    }

    #[test]
    #[cfg(not(feature = "verifier-mutation"))]
    fn a_bystander_that_waits_on_the_cycle_is_in_the_slice_and_roots_the_search() {
        let mut engine = ring_with_bystanders();
        assert_hits_match_the_oracle(&mut engine);
        // The slice is what reaches the cycle, not what the cycle reaches.
        assert_eq!(slice(&mut engine, GraphModel::Wfg), vec![1, 5, 6, 7]);
        assert_eq!(slice(&mut engine, GraphModel::Sg), vec![1, 5, 6, 7]);
        // The canonical search starts at the bystander — t1, resp. the
        // event p7@1 it is the first to await — and so enters the ring at
        // t6, resp. p7@1: without it the witness would start at t5 / p5@1.
        let wfg = engine.check_full(ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD).report.unwrap();
        assert_eq!(wfg.witness, checker::CycleWitness::Tasks(vec![t(6), t(5), t(7), t(6)]));
        let sg = engine.check_full(ModelChoice::FixedSg, DEFAULT_SG_THRESHOLD).report.unwrap();
        let events = vec![r(7, 1), r(6, 1), r(5, 1), r(7, 1)];
        assert_eq!(sg.witness, checker::CycleWitness::Resources(events));
        assert_eq!(sg.tasks, vec![t(5), t(6), t(7)], "a bystander is never reported");
    }

    #[test]
    #[cfg(not(feature = "verifier-mutation"))]
    fn the_slice_holds_every_cycle_and_the_report_is_the_canonical_first() {
        // The ring that closes first (and is deferred first) sorts last.
        let mut engine = IncrementalEngine::new();
        for (i, next) in [(5, 6), (6, 5), (2, 3), (3, 2)] {
            engine.apply(Delta::Block(ring(i, next)));
        }
        engine.apply(Delta::Block(loner(4)));
        assert_hits_match_the_oracle(&mut engine);
        assert_eq!(slice(&mut engine, GraphModel::Wfg), vec![2, 3, 5, 6]);
        assert_eq!(slice(&mut engine, GraphModel::Sg), vec![2, 3, 5, 6]);
        let report = engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD).report.unwrap();
        assert_eq!(report.tasks, vec![t(2), t(3)]);
    }

    #[test]
    fn a_self_wait_is_sliced_to_its_task() {
        let mut engine = IncrementalEngine::new();
        (10..20).for_each(|i| engine.apply(Delta::Block(loner(i))));
        let late_for_itself = vec![Registration::new(p(1), 2)];
        engine.apply(Delta::Block(BlockedInfo::new(t(1), vec![r(1, 5)], late_for_itself)));
        assert_hits_match_the_oracle(&mut engine);
        assert_eq!(slice(&mut engine, GraphModel::Wfg), vec![1]);
        assert_eq!(slice(&mut engine, GraphModel::Sg), vec![1]);
    }

    #[test]
    #[cfg(not(feature = "verifier-mutation"))]
    fn an_sg_cycle_through_a_crowded_event_slices_every_waiter_of_it() {
        // Example 4.1 with 64 workers on pc@1, beside 10 loners: the SG
        // cycle has two events, and its report names all 65 tasks.
        let mut engine = IncrementalEngine::new();
        (100..110).for_each(|i| engine.apply(Delta::Block(loner(i))));
        (5..=68).for_each(|i| engine.apply(Delta::Block(worker(i))));
        engine.apply(Delta::Block(driver()));
        assert_hits_match_the_oracle(&mut engine);
        let everyone: Vec<u64> = (4..=68).collect();
        assert_eq!(slice(&mut engine, GraphModel::Sg), everyone);
        let report = engine.check_full(ModelChoice::FixedSg, DEFAULT_SG_THRESHOLD).report.unwrap();
        assert_eq!(report.tasks.len(), 65);
    }

    #[test]
    #[cfg(not(feature = "verifier-mutation"))]
    fn a_standing_cycle_is_resliced_after_an_unblock_and_a_resync() {
        let registry = Registry::with_journal_capacity(4);
        for info in ring_with_bystanders().materialize().tasks {
            registry.block(info);
        }
        let mut engine = IncrementalEngine::new();
        assert!(engine.sync(&registry).resynced, "six blocks overran a window of four");
        assert_hits_match_the_oracle(&mut engine);
        assert_eq!(slice(&mut engine, GraphModel::Wfg), vec![1, 5, 6, 7]);

        // The bystander leaves: the cycle stands, the search's root moves.
        registry.unblock(t(1));
        assert!(!engine.sync(&registry).resynced);
        assert_hits_match_the_oracle(&mut engine);
        assert_eq!(slice(&mut engine, GraphModel::Wfg), vec![5, 6, 7]);

        // Five more deltas overrun the window: the live orders are rebuilt
        // around the standing cycle, with a new bystander (t2, on t7).
        for i in 30..34 {
            registry.block(loner(i));
        }
        let arrived_at_5 = vec![Registration::new(p(5), 1)];
        registry.block(BlockedInfo::new(t(2), vec![r(5, 1)], arrived_at_5));
        assert!(engine.sync(&registry).resynced);
        assert_eq!(engine.materialize(), registry.snapshot());
        assert_hits_match_the_oracle(&mut engine);
        assert_eq!(slice(&mut engine, GraphModel::Wfg), vec![2, 5, 6, 7]);
        assert_eq!(slice(&mut engine, GraphModel::Sg), vec![2, 5, 6, 7]);
        engine.order_invariants().expect("rebuilt orders are valid");
    }

    #[test]
    #[cfg(not(feature = "verifier-mutation"))]
    fn detection_is_incremental_until_a_hit_and_recovers_after() {
        let mut engine = IncrementalEngine::new();
        for i in 1..=3 {
            engine.apply(Delta::Block(worker(i)));
        }
        engine.order_invariants().expect("orders valid on the acyclic prefix");
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let det = engine.check_full_detailed(choice, DEFAULT_SG_THRESHOLD);
            assert!(det.incremental, "{choice}: no cycle ⇒ answered from the order");
            assert!(det.outcome.report.is_none());
        }

        // The driver closes the Figure 5 cycle: the hit must fall back to
        // the canonical rebuild (incremental = false) in both models.
        engine.apply(Delta::Block(driver()));
        engine.order_invariants().expect("orders valid with deferred edges");
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg] {
            let det = engine.check_full_detailed(choice, DEFAULT_SG_THRESHOLD);
            assert!(!det.incremental, "{choice}: a hit must rebuild");
            assert!(det.outcome.report.is_some());
        }

        // Breaking the cycle drains the deferred edges: detection is
        // incremental again and the orders stay valid.
        engine.apply(Delta::Unblock(t(4)));
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg] {
            let det = engine.check_full_detailed(choice, DEFAULT_SG_THRESHOLD);
            assert!(det.incremental, "{choice}: cycle removed ⇒ order answers again");
            assert!(det.outcome.report.is_none());
        }
        engine.order_invariants().expect("orders valid after the retry pass");
    }

    #[test]
    fn duplicate_waits_and_registrations_balance_out() {
        // Out-of-model but must not corrupt the refcounts: duplicate wait
        // occurrences and duplicate registrations add and remove the same
        // number of contributions.
        let mut engine = IncrementalEngine::new();
        let odd = BlockedInfo::new(
            t(1),
            vec![r(1, 2), r(1, 2), r(2, 1)],
            vec![Registration::new(p(2), 0), Registration::new(p(2), 0)],
        );
        engine.apply(Delta::Block(odd));
        engine.apply(Delta::Block(BlockedInfo::new(
            t(2),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 1)],
        )));
        assert_matches_oracle(&mut engine);
        engine.apply(Delta::Unblock(t(1)));
        assert_matches_oracle(&mut engine);
        engine.apply(Delta::Unblock(t(2)));
        assert_eq!(engine.sg_edge_count(), 0);
        assert_eq!(engine.wfg_edge_count(), 0);
    }
}
