//! Property tests on the graph layer itself: model equivalence on raw
//! snapshots (not just PL-shaped ones — arbitrary waits and registrations,
//! including future-phase waits the runtime can produce), adaptive-build
//! consistency, and cycle-detector correctness on random digraphs.

use armus_core::graph::DiGraph;
use armus_core::{
    adaptive, checker, grg, sg, wfg, BlockedInfo, GraphModel, ModelChoice, PhaserId, Registration,
    Resource, Snapshot, TaskId,
};
use proptest::prelude::*;

/// An arbitrary snapshot: every task waits on one event (possibly a
/// future phase, possibly on a phaser it is not registered with) and holds
/// arbitrary registrations.
fn arb_snapshot(
    max_tasks: usize,
    max_phasers: u64,
    max_phase: u64,
) -> impl Strategy<Value = Snapshot> {
    let task = (
        1..=max_phasers,
        0..=max_phase,
        proptest::collection::vec((1..=max_phasers, 0..=max_phase), 0..4),
    )
        .prop_map(|(wait_ph, wait_phase, regs)| {
            (
                Resource::new(PhaserId(wait_ph), wait_phase + 1),
                regs.into_iter()
                    .map(|(q, m)| Registration::new(PhaserId(q), m))
                    .collect::<Vec<_>>(),
            )
        });
    proptest::collection::vec(task, 1..=max_tasks).prop_map(|tasks| {
        Snapshot::from_tasks(
            tasks
                .into_iter()
                .enumerate()
                .map(|(i, (wait, mut regs))| {
                    // De-duplicate registrations per phaser (a task has one
                    // local phase per phaser).
                    regs.sort_by_key(|r| r.phaser);
                    regs.dedup_by_key(|r| r.phaser);
                    BlockedInfo::new(TaskId(i as u64), vec![wait], regs)
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Theorem 4.8 on arbitrary (non-PL-shaped) snapshots.
    #[test]
    fn equivalence_holds_on_arbitrary_snapshots(snap in arb_snapshot(10, 5, 3)) {
        let w = wfg::wfg(&snap).find_cycle().is_some();
        let s = sg::sg(&snap).find_cycle().is_some();
        let g = grg::grg(&snap).find_cycle().is_some();
        prop_assert_eq!(w, s);
        prop_assert_eq!(w, g);
    }

    /// The adaptive builder's kept graph matches the direct construction
    /// of whichever model it chose, for any threshold.
    #[test]
    fn adaptive_matches_direct(snap in arb_snapshot(10, 5, 3), threshold in 1usize..8) {
        let built = adaptive::build(&snap, ModelChoice::Auto, threshold);
        match built.model {
            GraphModel::Sg => {
                let direct = sg::sg(&snap);
                prop_assert_eq!(built.sg.as_ref().unwrap().edge_count(), direct.edge_count());
                prop_assert_eq!(built.sg.as_ref().unwrap().node_count(), direct.node_count());
            }
            GraphModel::Wfg => {
                let direct = wfg::wfg(&snap);
                prop_assert_eq!(built.wfg.as_ref().unwrap().edge_count(), direct.edge_count());
                prop_assert_eq!(built.wfg.as_ref().unwrap().node_count(), direct.node_count());
            }
        }
    }

    /// All three model choices agree on the verdict for any snapshot.
    #[test]
    fn checker_verdicts_agree(snap in arb_snapshot(10, 5, 3)) {
        let verdicts: Vec<bool> = [ModelChoice::FixedWfg, ModelChoice::FixedSg, ModelChoice::Auto]
            .iter()
            .map(|&m| checker::check(&snap, m, 2).report.is_some())
            .collect();
        prop_assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{:?}", verdicts);
    }

    /// Avoidance semantics: the full check finds a cycle iff some blocked
    /// task's `check_task` does (cycles always pass through a blocked
    /// task's contribution).
    #[test]
    fn task_checks_cover_full_checks(snap in arb_snapshot(8, 4, 2)) {
        for model in [ModelChoice::FixedWfg, ModelChoice::FixedSg] {
            let full = checker::check(&snap, model, 2).report.is_some();
            let any_task = snap
                .tasks
                .iter()
                .any(|b| checker::check_task(&snap, b.task, model, 2).report.is_some());
            prop_assert_eq!(full, any_task, "{}", model);
        }
    }

    /// Reports name at least one task and one resource, and epochs match
    /// the snapshot's records.
    #[test]
    fn reports_are_well_formed(snap in arb_snapshot(10, 5, 3)) {
        if let Some(report) = checker::check(&snap, ModelChoice::Auto, 2).report {
            prop_assert!(!report.tasks.is_empty());
            prop_assert!(!report.resources.is_empty());
            for (task, epoch) in &report.task_epochs {
                let info = snap.get(*task).expect("reported task is in the snapshot");
                prop_assert_eq!(info.epoch, *epoch);
            }
        }
    }
}

/// Random digraph strategy for the detector itself.
fn arb_digraph(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = DiGraph<u32>> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            proptest::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |edges| (n, edges))
        })
        .prop_map(|(_, edges)| {
            let mut g = DiGraph::new();
            for (a, b) in edges {
                g.add_edge(a, b);
            }
            g
        })
}

/// Reference cycle check: Kahn's algorithm (topological sort) — a graph
/// has a cycle iff the sort cannot consume every node. Completely
/// independent of the DFS detector.
fn has_cycle_kahn(g: &DiGraph<u32>) -> bool {
    let nodes: Vec<u32> = g.nodes().to_vec();
    let mut indegree: std::collections::HashMap<u32, usize> =
        nodes.iter().map(|&n| (n, 0)).collect();
    // Parallel edges are irrelevant to cycle existence; `has_edge` gives
    // the simple-graph view, used consistently for succs and indegrees.
    let mut succs: std::collections::HashMap<u32, Vec<u32>> = Default::default();
    for &a in &nodes {
        for &b in &nodes {
            if g.has_edge(a, b) {
                succs.entry(a).or_default().push(b);
                *indegree.get_mut(&b).unwrap() += 1;
            }
        }
    }
    let mut queue: Vec<u32> = nodes.iter().copied().filter(|n| indegree[n] == 0).collect();
    let mut seen = 0usize;
    while let Some(n) = queue.pop() {
        seen += 1;
        for &s in succs.get(&n).map(|v| v.as_slice()).unwrap_or(&[]) {
            let d = indegree.get_mut(&s).unwrap();
            *d -= 1;
            if *d == 0 {
                queue.push(s);
            }
        }
    }
    seen != nodes.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The DFS detector agrees with Kahn's algorithm on random digraphs.
    #[test]
    fn dfs_agrees_with_kahn(g in arb_digraph(12, 30)) {
        prop_assert_eq!(g.find_cycle().is_some(), has_cycle_kahn(&g));
    }

    /// Any witness returned is a genuine cycle.
    #[test]
    fn witnesses_are_cycles(g in arb_digraph(12, 30)) {
        if let Some(c) = g.find_cycle() {
            prop_assert!(g.is_cycle(&c), "{:?}", c);
        }
    }

    /// `find_cycle_through(n)` returns a cycle containing n exactly when
    /// one exists, by the plain-reachability reference: n lies on a cycle
    /// iff n reaches itself by ≥ 1 edge.
    #[test]
    fn cycle_through_agrees_with_sccs(g in arb_digraph(10, 25)) {
        for &n in g.nodes() {
            let found = g.find_cycle_through(n);
            prop_assert_eq!(found.is_some(), g.reaches(n, n), "node {}", n);
            if let Some(c) = found {
                prop_assert!(g.is_cycle(&c));
                prop_assert_eq!(c.first(), Some(&n));
            }
        }
    }
}
