//! The allocation budget of the blocked-status path, asserted as exact
//! counts: a blocked status has **one** heap record for its whole life
//! (`Registry::block` wraps it in an `Arc` that the task map, the journal
//! and the engine share), and once its containers have grown the
//! path from `Verifier::block` through the journal to the engine allocates
//! nothing else. A reintroduced copy — of the status into the journal, of
//! the journal into a fresh `Vec` per sync, of `waits` per check — fails
//! the test that names it.
//!
//! This is its own test crate because the counting `#[global_allocator]`
//! needs `unsafe impl GlobalAlloc`; the library roots keep
//! `#![forbid(unsafe_code)]`. Counts are per thread, so the tests may run
//! in parallel, and CI runs them in debug and in release (inlining must
//! not change them).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use armus_core::{
    BlockedInfo, Delta, IncrementalEngine, ModelChoice, PhaserId, Registration, Registry,
    RegistryConfig, Resource, TaskId, Verifier, VerifierConfig, DEFAULT_SG_THRESHOLD,
};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a bump of a `const`-initialised, destructor-free thread-local
// counter, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

const GROUPS: u64 = 64;
const MEMBERS: u64 = 32;
/// A group's cycle: its members block one by one, then its barrier
/// releases them one by one.
const CYCLE: u64 = 2 * MEMBERS;
/// Rounds before anything is measured: 4 × 4096 deltas, twice the default
/// journal window, so the journal, every map and scratch has seen its peak.
const WARM_UP_ROUNDS: u64 = 4;

fn task(group: u64, member: u64) -> TaskId {
    TaskId(1 + group * MEMBERS + member)
}

/// One round of a stencil-shaped program as a delta stream: 64 phaser
/// groups of 32 tasks, each group `group` steps ahead of the first in its
/// cycle, so at any moment half the groups are filling up and half are
/// draining. A blocked task has arrived at its group's barrier and awaits
/// it; member 0 is also registered, one phase behind, on the next group's
/// phaser — the halo link that chains the groups' events into real SG
/// edges (a chain, so no block ever deadlocks) and, when the next group
/// has waiters, puts somebody behind member 0's block (so both answers of
/// the in-edge fast path, a check and a skip, are exercised).
fn round(round: u64) -> impl Iterator<Item = Delta> {
    let steps = (round - 1) * CYCLE..round * CYCLE;
    steps.flat_map(|step| (0..GROUPS).map(move |group| delta_at(step, group)))
}

fn delta_at(step: u64, group: u64) -> Delta {
    let clock = |group: u64| step + group;
    let (phase, at) = (clock(group) / CYCLE + 1, clock(group) % CYCLE);
    if at >= MEMBERS {
        return Delta::Unblock(task(group, at - MEMBERS));
    }
    let mut registered = vec![Registration::new(PhaserId(group), phase)];
    if at == 0 && group + 1 < GROUPS {
        registered.push(Registration::new(PhaserId(group + 1), clock(group + 1) / CYCLE));
    }
    let waits = vec![Resource::new(PhaserId(group), phase)];
    Delta::Block(BlockedInfo::new(task(group, at), waits, registered))
}

/// The registry an avoidance verifier builds.
fn avoidance_registry() -> Registry {
    Registry::with_config(RegistryConfig { track_waited: true, ..RegistryConfig::default() })
}

fn publish(registry: &Registry, delta: Delta) {
    match delta {
        Delta::Block(info) => drop(registry.block(info)),
        Delta::Unblock(task) => registry.unblock(task),
    }
}

/// What a round allocates in the steady state: `drive` runs one round and
/// returns its counts; after the warm-up, the least of three rounds stands.
/// A copy reintroduced anywhere on the path is made on every operation and
/// so shows in every round; what shows in one round only is a hash table
/// whose keys never recur (the events `p@n` of successive rounds) growing
/// once more to shed its tombstones, at a round its hash key picks.
fn steady<const N: usize>(mut drive: impl FnMut(u64) -> [u64; N]) -> [u64; N] {
    for r in 1..=WARM_UP_ROUNDS {
        drive(r);
    }
    let measured = (WARM_UP_ROUNDS + 1..=WARM_UP_ROUNDS + 3).map(&mut drive);
    measured.reduce(|a, b| std::array::from_fn(|i| a[i].min(b[i]))).expect("three rounds")
}

/// Blocks in a round.
const BLOCKS: u64 = GROUPS * MEMBERS;

#[test]
fn registry_block_allocates_exactly_the_shared_record() {
    let registry = avoidance_registry();
    let [blocked, unblocked] = steady(|r| {
        let (mut blocked, mut unblocked) = (0, 0);
        for delta in round(r) {
            match delta {
                Delta::Block(info) => blocked += allocations(|| registry.block(info)).0,
                Delta::Unblock(task) => unblocked += allocations(|| registry.unblock(task)).0,
            }
        }
        [blocked, unblocked]
    });
    assert_eq!(blocked, BLOCKS, "Registry::block: the shared record and nothing else");
    assert_eq!(unblocked, 0, "Registry::unblock");
}

#[test]
fn engine_sync_and_negative_check_task_allocate_nothing() {
    let registry = avoidance_registry();
    // An engine driven as an avoidance verifier drives its own — a sync
    // after every delta, a check after every block — and a follower that
    // is never queried and syncs twice a round, 2048 deltas at a time.
    let (mut engine, mut follower) = (IncrementalEngine::new(), IncrementalEngine::new());
    let [synced, checked, followed] = steady(|r| {
        let (mut synced, mut checked, mut followed) = (0, 0, 0);
        for (i, delta) in round(r).enumerate() {
            let blocked = if let Delta::Block(info) = &delta { Some(info.task) } else { None };
            publish(&registry, delta);
            let (n, sync) = allocations(|| engine.sync(&registry));
            assert!(sync.deltas_applied <= 1 && !sync.resynced);
            synced += n;
            if let Some(task) = blocked {
                let (n, outcome) = allocations(|| {
                    engine.check_task(task, ModelChoice::Auto, DEFAULT_SG_THRESHOLD)
                });
                assert!(outcome.report.is_none(), "the stencil is deadlock-free");
                checked += n;
            }
            if (i as u64 + 1) % BLOCKS == 0 {
                let (n, sync) = allocations(|| follower.sync(&registry));
                assert!(sync.deltas_applied as u64 <= BLOCKS && !sync.resynced);
                followed += n;
            }
        }
        [synced, checked, followed]
    });
    assert_eq!(synced, 0, "IncrementalEngine::sync: 4096 syncs of one delta each");
    assert_eq!(checked, 0, "IncrementalEngine::check_task: 2048 negative checks");
    assert_eq!(followed, 0, "IncrementalEngine::sync: 2 syncs of 2048 deltas each");
}

#[test]
fn an_avoidance_block_unblock_cycle_allocates_only_its_record() {
    let verifier = Verifier::new(VerifierConfig::avoidance());
    let [blocked, unblocked, checked, fast_pathed] = steady(|r| {
        let (checks, skips) = (verifier.stats().checks, verifier.stats().fastpath_skips);
        let (mut blocked, mut unblocked) = (0, 0);
        for delta in round(r) {
            match delta {
                // The caller's two argument vectors exist before the call.
                Delta::Block(BlockedInfo { task, waits, registered, .. }) => {
                    let (n, verdict) = allocations(|| verifier.block(task, waits, registered));
                    verdict.expect("the stencil is deadlock-free");
                    blocked += n;
                }
                Delta::Unblock(task) => unblocked += allocations(|| verifier.unblock(task)).0,
            }
        }
        let s = verifier.stats();
        [blocked, unblocked, s.checks - checks, s.fastpath_skips - skips]
    });
    assert!(checked > 0 && fast_pathed > 0, "{checked} checks, {fast_pathed} skips");
    assert_eq!(checked + fast_pathed, BLOCKS, "every block is a check or a skip");
    assert_eq!(blocked, BLOCKS, "Verifier::block: one shared record a block");
    assert_eq!(unblocked, 0, "Verifier::unblock");
}

#[test]
fn a_check_full_hit_allocates_for_the_cycle_not_for_the_blocked_population() {
    // The standing population of the stencil: every task of every group
    // arrived at and awaiting its group's barrier, the groups chained by
    // member 0's halo registration — 2048 blocked tasks, no cycle.
    let mut engine = IncrementalEngine::new();
    for group in 0..GROUPS {
        for member in 0..MEMBERS {
            let mut registered = vec![Registration::new(PhaserId(group), 1)];
            if member == 0 && group + 1 < GROUPS {
                registered.push(Registration::new(PhaserId(group + 1), 0));
            }
            let waits = vec![Resource::new(PhaserId(group), 1)];
            engine.apply(Delta::Block(BlockedInfo::new(task(group, member), waits, registered)));
        }
    }
    let auto =
        |engine: &mut IncrementalEngine| engine.check_full(ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
    assert!(auto(&mut engine).report.is_none(), "the stencil is deadlock-free");

    // Three fresh tasks on three fresh barriers: each has arrived at its
    // own and is the member the next one's is missing.
    let planted: Vec<TaskId> = (0..3).map(|i| TaskId(10_000 + i)).collect();
    for i in 0..3 {
        let (own, next) = (PhaserId(10_000 + i), PhaserId(10_000 + (i + 1) % 3));
        let registered = vec![Registration::new(own, 1), Registration::new(next, 0)];
        let waits = vec![Resource::new(own, 1)];
        engine.apply(Delta::Block(BlockedInfo::new(planted[i as usize], waits, registered)));
    }
    let (n, outcome) = allocations(|| auto(&mut engine));
    assert_eq!(outcome.report.expect("the planted cycle").tasks, planted);
    assert_eq!(outcome.stats.blocked_tasks as u64, BLOCKS + 3);
    // Copying the blocked population costs two vectors a status, 4096 and
    // more; the canonical check of three tasks a few dozen.
    assert!(n < 256, "IncrementalEngine::check_full: {n} allocations on a 3-cycle hit");
}
