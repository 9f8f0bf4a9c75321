//! Equivalence suite for the incremental dependency engine: random
//! block/unblock/check interleavings driven through the registry's delta
//! journal, asserting after **every step** that the engine's maintained
//! graphs equal the from-scratch `wfg`/`sg` oracle — vertex sets, edge
//! sets, verdicts, and byte-identical reports under every model choice.
//!
//! The registry is given a tiny journal capacity so the interleavings also
//! exercise the truncation → snapshot-resync path, and tasks re-block with
//! changed statuses so replacement is covered too.
//!
//! The engine builds a model only when a query demands it and retires it
//! when nothing reads it (see `armus_core::engine`). The structural
//! properties therefore `demand` what they compare; the laziness
//! properties below drive engines that are only ever asked one kind of
//! query — across `Auto`-threshold crossings in both directions and across
//! idle stretches that retire what was built — against the same oracle.

use armus_core::engine::IncrementalEngine;
use armus_core::{
    checker, sg, wfg, BlockedInfo, GraphModel, ModelChoice, PhaserId, Registration, Registry,
    Resource, TaskId,
};
use proptest::prelude::*;

/// One step of an interleaving.
#[derive(Clone, Debug)]
enum Op {
    Block(BlockedInfo),
    Unblock(TaskId),
}

/// An arbitrary blocked status over a small universe of phasers/phases
/// (future-phase waits and unregistered-phaser waits included).
fn arb_info(
    max_tasks: u64,
    max_phasers: u64,
    max_phase: u64,
) -> impl Strategy<Value = BlockedInfo> {
    (
        0..max_tasks,
        1..=max_phasers,
        0..=max_phase,
        proptest::collection::vec((1..=max_phasers, 0..=max_phase), 0..4),
    )
        .prop_map(|(task, wait_ph, wait_phase, regs)| {
            let mut regs: Vec<Registration> =
                regs.into_iter().map(|(q, m)| Registration::new(PhaserId(q), m)).collect();
            // One local phase per phaser (registry semantics).
            regs.sort_by_key(|r| r.phaser);
            regs.dedup_by_key(|r| r.phaser);
            BlockedInfo::new(
                TaskId(task),
                vec![Resource::new(PhaserId(wait_ph), wait_phase + 1)],
                regs,
            )
        })
}

/// A task waiting on phaser `task % width + 1` while lagging on all of
/// phasers `1..=width`: `width` of these impede each other's every wait, so
/// their SG has `width²` edges — the shape that makes `Auto` abandon it.
fn wide_info(task: u64, width: u64) -> BlockedInfo {
    BlockedInfo::new(
        TaskId(task),
        vec![Resource::new(PhaserId(task % width + 1), 1)],
        (1..=width).map(|q| Registration::new(PhaserId(q), 0)).collect(),
    )
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        arb_info(6, 4, 3).prop_map(Op::Block),
        arb_info(6, 4, 3).prop_map(Op::Block),
        (0u64..6).prop_map(|t| Op::Unblock(TaskId(t))),
    ];
    proptest::collection::vec(op, 1..=len)
}

/// Publishes one op to the registry; returns the task it touched.
fn publish(registry: &Registry, op: &Op) -> TaskId {
    match op {
        Op::Block(info) => {
            registry.block(info.clone());
            info.task
        }
        Op::Unblock(task) => {
            registry.unblock(*task);
            *task
        }
    }
}

/// Sorted copies of a DiGraph's vertex and edge sets.
fn graph_sets<N: Copy + Ord + std::hash::Hash>(
    g: &armus_core::graph::DiGraph<N>,
) -> (Vec<N>, Vec<(N, N)>) {
    let mut nodes = g.nodes().to_vec();
    nodes.sort();
    let mut edges = g.edges();
    edges.sort();
    (nodes, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every step of a random interleaving, the engine's maintained
    /// graphs and check results equal the from-scratch oracle's.
    #[test]
    fn engine_tracks_the_oracle_step_by_step(ops in arb_ops(24)) {
        // Capacity 5 forces frequent Behind → snapshot resyncs.
        let registry = Registry::with_journal_capacity(5);
        let mut engine = IncrementalEngine::new();
        for op in &ops {
            let touched = publish(&registry, op);
            engine.sync(&registry);
            let snap = registry.snapshot();

            // Structural equivalence: both maintained models equal their
            // from-scratch construction.
            engine.demand(GraphModel::Wfg);
            engine.demand(GraphModel::Sg);
            let (wfg_nodes, wfg_edges) = graph_sets(&wfg::wfg(&snap));
            prop_assert_eq!(engine.wfg_vertex_list(), wfg_nodes);
            prop_assert_eq!(engine.wfg_edge_list(), wfg_edges);
            let (sg_nodes, sg_edges) = graph_sets(&sg::sg(&snap));
            prop_assert_eq!(engine.sg_vertex_list(), sg_nodes);
            prop_assert_eq!(engine.sg_edge_list(), sg_edges);
            prop_assert_eq!(engine.blocked(), snap.len());

            // Report equivalence: byte-identical under every choice (the
            // engine and the builder pick `Auto`'s model by one rule).
            for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
                let ours = engine.check_full(choice, 2);
                let oracle = checker::check(&snap, choice, 2);
                prop_assert_eq!(ours.report, oracle.report, "full check, {}", choice);
                prop_assert_eq!(ours.stats, oracle.stats, "full check stats, {}", choice);
                let ours = engine.check_task(touched, choice, 2);
                let oracle = checker::check_task(&snap, touched, choice, 2);
                prop_assert_eq!(ours.report, oracle.report, "task check, {}", choice);
                prop_assert_eq!(ours.stats, oracle.stats, "task check stats, {}", choice);
            }
        }

        // Drain everything: the maintained structures must return to zero.
        for task in 0..6 {
            registry.unblock(TaskId(task));
        }
        engine.sync(&registry);
        prop_assert_eq!(engine.blocked(), 0);
        prop_assert_eq!(engine.sg_edge_count(), 0);
        prop_assert_eq!(engine.wfg_edge_count(), 0);
        prop_assert_eq!(engine.sg_vertex_list(), Vec::<Resource>::new());
    }

    /// Concurrent interleavings over the registry: the generated op
    /// sequences run on separate producer threads (overlapping task ids,
    /// serialised by the registry's lock) while a follower engine
    /// syncs mid-churn. At quiesce the follower's journal view must equal
    /// the from-scratch oracle structurally, and its reports must be
    /// byte-identical to the oracle's.
    #[test]
    fn concurrent_interleavings_converge_to_the_oracle(
        ops_a in arb_ops(12),
        ops_b in arb_ops(12),
        ops_c in arb_ops(12),
    ) {
        // Small window so producer bursts can force Behind → resync while
        // the follower races them.
        let registry = Registry::with_journal_capacity(8);
        let mut follower = IncrementalEngine::new();
        std::thread::scope(|s| {
            let run = |ops: Vec<Op>| {
                let registry = &registry;
                move || {
                    for op in ops {
                        match op {
                            Op::Block(info) => {
                                registry.block(info);
                            }
                            Op::Unblock(task) => registry.unblock(task),
                        }
                    }
                }
            };
            let a = s.spawn(run(ops_a));
            let b = s.spawn(run(ops_b));
            let c = s.spawn(run(ops_c));
            // Follow the journal while the producers are live: each sync
            // must land on a consistent (possibly mid-churn) state.
            while !(a.is_finished() && b.is_finished() && c.is_finished()) {
                follower.sync(&registry);
                std::thread::yield_now();
            }
        });
        follower.sync(&registry);
        follower.demand(GraphModel::Wfg);
        follower.demand(GraphModel::Sg);

        let snap = registry.snapshot();
        prop_assert_eq!(follower.materialize(), snap.clone(), "followed view != snapshot");
        let (wfg_nodes, wfg_edges) = graph_sets(&wfg::wfg(&snap));
        prop_assert_eq!(follower.wfg_vertex_list(), wfg_nodes);
        prop_assert_eq!(follower.wfg_edge_list(), wfg_edges);
        let (sg_nodes, sg_edges) = graph_sets(&sg::sg(&snap));
        prop_assert_eq!(follower.sg_vertex_list(), sg_nodes);
        prop_assert_eq!(follower.sg_edge_list(), sg_edges);
        for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
            let ours = follower.check_full(choice, 2).report;
            let oracle = checker::check(&snap, choice, 2).report;
            prop_assert_eq!(ours, oracle, "quiesce check, {}", choice);
        }
    }

    /// Random delta sequences — block, re-block with changed waits and
    /// registrations (deregistration in delta form), unblock — with a
    /// journal window small enough to force `Behind` → snapshot-resync:
    /// on every step the maintained Pearce–Kelly orders must be valid
    /// orders of the rebuilt graphs, and order-answered cycle existence
    /// must match the from-scratch graph's `has_cycle` exactly, per model.
    #[test]
    fn maintained_orders_stay_valid_and_match_has_cycle(ops in arb_ops(24)) {
        let registry = Registry::with_journal_capacity(4);
        let mut engine = IncrementalEngine::new();
        for op in &ops {
            publish(&registry, op);
            engine.sync(&registry);
            // Whatever survived the sync (the previous step demanded both
            // orders; a delta may have retired one) must still be valid.
            let inv = engine.order_invariants();
            prop_assert!(inv.is_ok(), "order invariant broke after sync: {:?}", inv);

            let snap = registry.snapshot();
            let wfg_cycle = wfg::wfg(&snap).has_cycle();
            prop_assert_eq!(engine.order_cycle_exists(GraphModel::Wfg), wfg_cycle, "wfg");
            let sg_cycle = sg::sg(&snap).has_cycle();
            prop_assert_eq!(engine.order_cycle_exists(GraphModel::Sg), sg_cycle, "sg");

            // `order_cycle_exists` retried deferred edges; the orders must
            // still validate afterwards.
            let inv = engine.order_invariants();
            prop_assert!(inv.is_ok(), "order invariant broke after retries: {:?}", inv);
        }

        // Drain: the orders must empty out with the graphs.
        for task in 0..6 {
            registry.unblock(TaskId(task));
        }
        engine.sync(&registry);
        prop_assert_eq!(engine.wfg_edge_count(), 0);
        prop_assert_eq!(engine.sg_edge_count(), 0);
        prop_assert!(!engine.order_cycle_exists(GraphModel::Wfg));
        prop_assert!(!engine.order_cycle_exists(GraphModel::Sg));
        let inv = engine.order_invariants();
        prop_assert!(inv.is_ok(), "order invariant broke after drain: {:?}", inv);
    }

    /// An engine that syncs only now and then, as an avoidance verifier's
    /// does (only its checks sync) — applying the suffix in one sync, or
    /// reloading once it has left a window of five — stands after every
    /// sync where an engine that applied the same journal one delta at a
    /// time stands: the same state, byte-identical reports, valid orders.
    /// Six task ids and gaps of up to nine ops give suffixes that repeat
    /// tasks and that overrun.
    #[test]
    fn a_deferred_sync_matches_a_raw_replay(
        ops in arb_ops(32),
        gaps in proptest::collection::vec(1usize..=9, 1..=8),
    ) {
        let registry = Registry::with_journal_capacity(5);
        let (mut deferred, mut raw) = (IncrementalEngine::new(), IncrementalEngine::new());
        let mut gaps = gaps.into_iter().cycle();
        let mut due = 0;
        for (i, op) in ops.iter().enumerate() {
            let touched = publish(&registry, op);
            let one = raw.sync(&registry);
            prop_assert!(one.deltas_applied <= 1 && !one.resynced, "raw replay: {:?}", one);
            if i < due && i + 1 < ops.len() {
                continue;
            }
            due = i + gaps.next().expect("a cycled non-empty list");
            deferred.sync(&registry);
            prop_assert_eq!(deferred.materialize(), raw.materialize());
            for choice in [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto] {
                let (ours, theirs) = (deferred.check_full(choice, 2), raw.check_full(choice, 2));
                prop_assert_eq!(ours.report, theirs.report, "full check, {}", choice);
                prop_assert_eq!(ours.stats, theirs.stats, "full check stats, {}", choice);
                let ours = deferred.check_task(touched, choice, 2);
                let theirs = raw.check_task(touched, choice, 2);
                prop_assert_eq!(ours.report, theirs.report, "task check, {}", choice);
                prop_assert_eq!(ours.stats, theirs.stats, "task check stats, {}", choice);
            }
            for (name, engine) in [("deferred", &deferred), ("raw", &raw)] {
                let inv = engine.order_invariants();
                prop_assert!(inv.is_ok(), "{} order invariant broke: {:?}", name, inv);
            }
        }
    }

    /// An engine that only ever resyncs (fresh engine against the live
    /// registry) agrees with one that followed the deltas throughout.
    #[test]
    fn resync_from_scratch_matches_delta_following(ops in arb_ops(16)) {
        let registry = Registry::new();
        let mut follower = IncrementalEngine::new();
        for op in &ops {
            publish(&registry, op);
            follower.sync(&registry);
        }
        let mut joiner = IncrementalEngine::new();
        joiner.reset_to(&registry.snapshot());
        for engine in [&mut joiner, &mut follower] {
            engine.demand(GraphModel::Wfg);
            engine.demand(GraphModel::Sg);
        }
        prop_assert_eq!(joiner.wfg_edge_list(), follower.wfg_edge_list());
        prop_assert_eq!(joiner.sg_edge_list(), follower.sg_edge_list());
        prop_assert_eq!(joiner.sg_vertex_list(), follower.sg_vertex_list());
        prop_assert_eq!(joiner.wfg_vertex_list(), follower.wfg_vertex_list());
    }
    /// Laziness (a): engines that are only ever asked **one** query — a
    /// `check_task`-only and a `check_full`-only engine per model choice —
    /// return reports byte-identical to the canonical checker after every
    /// delta of a stream that crosses the `Auto` threshold in both
    /// directions, and never build what their query does not read.
    #[test]
    fn single_query_engines_match_the_oracle_across_threshold_crossings(
        prefix in arb_ops(10),
        middle in arb_ops(10),
        suffix in arb_ops(10),
    ) {
        const CHOICES: [ModelChoice; 3] =
            [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto];
        // Capacity 7: some syncs resync, most follow deltas.
        let registry = Registry::with_journal_capacity(7);
        let mut task_only: Vec<IncrementalEngine> =
            CHOICES.iter().map(|_| IncrementalEngine::new()).collect();
        let mut full_only: Vec<IncrementalEngine> =
            CHOICES.iter().map(|_| IncrementalEngine::new()).collect();

        // Random ops live on tasks 0..6; the wide tasks 10..15 push the SG
        // past the threshold whatever else is blocked (25 edges among
        // themselves against 2 × at most 11 tasks), and draining everything
        // brings it back under.
        let mut stream = prefix;
        stream.extend((0..5).map(|i| Op::Block(wide_info(10 + i, 5))));
        stream.extend(middle);
        stream.extend((0..6).chain(10..15).map(|t| Op::Unblock(TaskId(t))));
        stream.extend((0..5).map(|i| Op::Block(wide_info(10 + i, 5))));
        stream.extend(suffix);

        let (mut ups, mut downs, mut last) = (0, 0, GraphModel::Sg);
        for op in &stream {
            let touched = publish(&registry, op);
            let snap = registry.snapshot();
            for (i, &choice) in CHOICES.iter().enumerate() {
                let engine = &mut task_only[i];
                engine.sync(&registry);
                let ours = engine.check_task(touched, choice, 2);
                let oracle = checker::check_task(&snap, touched, choice, 2).report;
                prop_assert_eq!(ours.report, oracle, "task check, {}", choice);
                prop_assert!(
                    !engine.order_is_live(GraphModel::Sg) && !engine.order_is_live(GraphModel::Wfg),
                    "{}: check_task never reads an order", choice
                );
                if choice == ModelChoice::Auto {
                    match (last, ours.stats.model) {
                        (GraphModel::Sg, GraphModel::Wfg) => ups += 1,
                        (GraphModel::Wfg, GraphModel::Sg) => downs += 1,
                        _ => {}
                    }
                    last = ours.stats.model;
                    prop_assert_eq!(ours.stats.sg_aborted, last == GraphModel::Wfg);
                }

                let engine = &mut full_only[i];
                engine.sync(&registry);
                let ours = engine.check_full(choice, 2).report;
                let oracle = checker::check(&snap, choice, 2).report;
                prop_assert_eq!(ours, oracle, "full check, {}", choice);
                let inv = engine.order_invariants();
                prop_assert!(inv.is_ok(), "{}: {:?}", choice, inv);
            }
            for engine in [&task_only[0], &full_only[0]] {
                prop_assert!(!engine.is_live(GraphModel::Sg), "FixedWfg never reads the SG");
            }
            for engine in [&task_only[1], &full_only[1]] {
                prop_assert!(!engine.is_live(GraphModel::Wfg), "FixedSg never reads the WFG");
            }
            prop_assert!(!full_only[1].order_is_live(GraphModel::Wfg));
            prop_assert!(!full_only[0].order_is_live(GraphModel::Sg));
        }
        prop_assert!(ups >= 2 && downs >= 1, "crossed up {} and down {} times", ups, downs);
    }

    /// Laziness (b): demand → idle stretch (which retires whatever the
    /// ski-rental rule gives up on) → re-demand leaves edge lists, vertex
    /// lists and orders equal to the from-scratch oracle.
    #[test]
    fn redemanded_structures_match_the_oracle_after_an_idle_stretch(
        warm in arb_ops(12),
        idle in arb_ops(24),
    ) {
        let registry = Registry::new();
        let mut engine = IncrementalEngine::new();
        warm.iter().for_each(|op| {
            publish(&registry, op);
        });
        engine.sync(&registry);
        engine.demand_order(GraphModel::Wfg);
        engine.demand_order(GraphModel::Sg);
        let built = engine.counters().model_builds;
        prop_assert_eq!(built, 4, "two adjacencies and two orders");

        // Nobody asks anything while the idle ops stream through.
        idle.iter().for_each(|op| {
            publish(&registry, op);
        });
        engine.sync(&registry);
        let inv = engine.order_invariants();
        prop_assert!(inv.is_ok(), "a surviving order broke: {:?}", inv);

        engine.demand_order(GraphModel::Wfg);
        engine.demand_order(GraphModel::Sg);
        let counters = engine.counters();
        prop_assert_eq!(
            counters.model_builds - built,
            counters.model_retires,
            "exactly what was retired is rebuilt"
        );
        let snap = registry.snapshot();
        let (wfg_nodes, wfg_edges) = graph_sets(&wfg::wfg(&snap));
        prop_assert_eq!(engine.wfg_vertex_list(), wfg_nodes);
        prop_assert_eq!(engine.wfg_edge_list(), wfg_edges);
        let (sg_nodes, sg_edges) = graph_sets(&sg::sg(&snap));
        prop_assert_eq!(engine.sg_vertex_list(), sg_nodes);
        prop_assert_eq!(engine.sg_edge_list(), sg_edges);
        let inv = engine.order_invariants();
        prop_assert!(inv.is_ok(), "a rebuilt order is invalid: {:?}", inv);
        prop_assert_eq!(
            engine.order_cycle_exists(GraphModel::Wfg),
            wfg::wfg(&snap).has_cycle()
        );
        prop_assert_eq!(engine.order_cycle_exists(GraphModel::Sg), sg::sg(&snap).has_cycle());
    }
}
