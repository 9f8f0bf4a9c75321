//! Graph-model selection: fixed WFG, fixed SG, or the paper's adaptive
//! scheme (§5.1).
//!
//! In `Auto` mode the verifier optimistically builds the SG incrementally;
//! if at any point there are more SG edges than `threshold ×` the number of
//! blocked tasks, the SG is abandoned and a WFG is built instead. The paper
//! fixes `threshold = 2`, "obtained based on experiments on the available
//! benchmarks" — `armus-bench paper threshold` ablates it.
//!
//! The paper counts the tasks "processed thus far"; this repo counts the
//! whole snapshot. A count of the prefix makes the pick depend on the order
//! the tasks are visited in, which the incremental engine — it maintains
//! the SG delta by delta and has no construction to abort — cannot
//! reproduce: the same state could be checked, and a deadlock in it
//! reported, under either model depending on who asked. Against the
//! snapshot's size the edge count only grows, so the mid-construction abort
//! ([`build_indexed`]) and the rule applied to the finished graph
//! ([`auto_pick`]) are one rule with the paper's multiplier, and a report
//! always names the model its check's statistics do.

use crate::deps::Snapshot;
use crate::graph::DiGraph;
use crate::ids::TaskId;
use crate::index::SnapshotIndex;
use crate::resource::Resource;
use crate::sg::{add_task_edges, sg_indexed};
use crate::wfg::wfg_indexed;

use serde::{Deserialize, Serialize};

/// The two concrete graph models of §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphModel {
    /// Wait-For Graph (task vertices).
    Wfg,
    /// State Graph (event vertices).
    Sg,
}

impl std::fmt::Display for GraphModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphModel::Wfg => write!(f, "WFG"),
            GraphModel::Sg => write!(f, "SG"),
        }
    }
}

/// How the verifier picks a graph model (paper: "fixed or automatic").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelChoice {
    /// Always the WFG — the state-of-the-art baseline.
    FixedWfg,
    /// Always the SG.
    FixedSg,
    /// SG first, abort to WFG past the size threshold.
    Auto,
}

impl std::fmt::Display for ModelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelChoice::FixedWfg => write!(f, "WFG"),
            ModelChoice::FixedSg => write!(f, "SG"),
            ModelChoice::Auto => write!(f, "Auto"),
        }
    }
}

/// The paper's experimentally chosen SG-abort multiplier.
pub const DEFAULT_SG_THRESHOLD: usize = 2;

/// The adaptive rule on a finished SG, used by the incremental engine:
/// keep the SG while its edge count is at most `threshold ×` the number of
/// blocked tasks — what [`build_indexed`]'s abort answers on the same
/// state. The engine has no construction to abort — under `Auto` it keeps
/// the SG adjacency maintained (every check reads its distinct-edge count
/// for this rule) and builds and maintains a WFG only while the rule picks
/// one; a WFG it stops picking is retired (see [`crate::engine`]).
pub fn auto_pick(sg_edges: usize, blocked_tasks: usize, threshold: usize) -> GraphModel {
    if sg_edges <= threshold * blocked_tasks {
        GraphModel::Sg
    } else {
        GraphModel::Wfg
    }
}

/// Result of building the analysis graph for one check.
pub struct BuiltGraph {
    /// Which model the finished graph uses.
    pub model: GraphModel,
    /// The WFG, when `model == Wfg`.
    pub wfg: Option<DiGraph<TaskId>>,
    /// The SG, when `model == Sg`.
    pub sg: Option<DiGraph<Resource>>,
    /// In `Auto` mode, the number of SG edges built before aborting
    /// (`None` when the SG was kept or never attempted).
    pub sg_aborted_at: Option<usize>,
}

impl BuiltGraph {
    /// Edge count of the graph that was kept.
    pub fn edge_count(&self) -> usize {
        match self.model {
            GraphModel::Wfg => self.wfg.as_ref().map(|g| g.edge_count()).unwrap_or(0),
            GraphModel::Sg => self.sg.as_ref().map(|g| g.edge_count()).unwrap_or(0),
        }
    }

    /// Node count of the graph that was kept.
    pub fn node_count(&self) -> usize {
        match self.model {
            GraphModel::Wfg => self.wfg.as_ref().map(|g| g.node_count()).unwrap_or(0),
            GraphModel::Sg => self.sg.as_ref().map(|g| g.node_count()).unwrap_or(0),
        }
    }
}

/// Builds the analysis graph for `snapshot` under the given selection mode.
pub fn build(snapshot: &Snapshot, choice: ModelChoice, threshold: usize) -> BuiltGraph {
    let idx = SnapshotIndex::new(snapshot);
    build_indexed(snapshot, &idx, choice, threshold)
}

/// As [`build`], reusing a prebuilt index.
pub fn build_indexed(
    snapshot: &Snapshot,
    idx: &SnapshotIndex,
    choice: ModelChoice,
    threshold: usize,
) -> BuiltGraph {
    match choice {
        ModelChoice::FixedWfg => BuiltGraph {
            model: GraphModel::Wfg,
            wfg: Some(wfg_indexed(snapshot, idx)),
            sg: None,
            sg_aborted_at: None,
        },
        ModelChoice::FixedSg => BuiltGraph {
            model: GraphModel::Sg,
            wfg: None,
            sg: Some(sg_indexed(snapshot, idx)),
            sg_aborted_at: None,
        },
        ModelChoice::Auto => {
            // Incremental SG build with the abort threshold: "the size
            // threshold is reached if at any time there are more SG-edges
            // than twice the number of tasks" — of the snapshot, see the
            // module docs.
            let mut g = DiGraph::with_capacity(idx.wait_resources.len());
            for &r in &idx.wait_resources {
                g.add_node(r);
            }
            for info in &snapshot.tasks {
                add_task_edges(&mut g, idx, info);
                if auto_pick(g.edge_count(), snapshot.len(), threshold) == GraphModel::Wfg {
                    let aborted = g.edge_count();
                    return BuiltGraph {
                        model: GraphModel::Wfg,
                        wfg: Some(wfg_indexed(snapshot, idx)),
                        sg: None,
                        sg_aborted_at: Some(aborted),
                    };
                }
            }
            BuiltGraph { model: GraphModel::Sg, wfg: None, sg: Some(g), sg_aborted_at: None }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::BlockedInfo;
    use crate::ids::PhaserId;
    use crate::resource::Registration;

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }
    fn r(ph: u64, n: u64) -> Resource {
        Resource::new(p(ph), n)
    }

    /// Many tasks, one barrier: SG is tiny, Auto must keep the SG.
    fn spmd_snapshot(n: u64) -> Snapshot {
        let tasks = (0..n)
            .map(|i| {
                // Everyone arrived phase 1 except task 0 (phase 0),
                // so I(p1@1) = {t0} and SG edges exist but are few.
                let phase = if i == 0 { 0 } else { 1 };
                BlockedInfo::new(t(i), vec![r(1, 1)], vec![Registration::new(p(1), phase)])
            })
            .collect();
        Snapshot::from_tasks(tasks)
    }

    /// Few tasks, many barriers each: SG explodes, Auto must switch to WFG.
    fn many_barrier_snapshot(tasks: u64, barriers: u64) -> Snapshot {
        let infos = (0..tasks)
            .map(|i| {
                // Each task waits one event but is registered (lagging) on
                // every barrier, impeding `barriers` awaited events.
                let regs = (0..barriers).map(|b| Registration::new(p(b), 0)).collect();
                BlockedInfo::new(t(i), vec![r(i % barriers, 1)], regs)
            })
            .collect();
        Snapshot::from_tasks(infos)
    }

    #[test]
    fn auto_keeps_sg_for_spmd() {
        let snap = spmd_snapshot(64);
        let built = build(&snap, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert_eq!(built.model, GraphModel::Sg);
        assert!(built.sg_aborted_at.is_none());
        // SG has exactly 1 vertex here.
        assert_eq!(built.node_count(), 1);
    }

    #[test]
    fn auto_switches_to_wfg_when_sg_explodes() {
        let snap = many_barrier_snapshot(4, 64);
        let built = build(&snap, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert_eq!(built.model, GraphModel::Wfg);
        let aborted = built.sg_aborted_at.expect("must have attempted SG");
        assert!(aborted > 0);
        // The abort happened early: strictly fewer SG edges were built than
        // the full SG contains.
        let full_sg = crate::sg::sg(&snap);
        assert!(aborted <= full_sg.edge_count());
    }

    #[test]
    fn fixed_modes_build_the_requested_model() {
        let snap = spmd_snapshot(8);
        let w = build(&snap, ModelChoice::FixedWfg, DEFAULT_SG_THRESHOLD);
        assert_eq!(w.model, GraphModel::Wfg);
        assert!(w.wfg.is_some() && w.sg.is_none());
        let s = build(&snap, ModelChoice::FixedSg, DEFAULT_SG_THRESHOLD);
        assert_eq!(s.model, GraphModel::Sg);
        assert!(s.sg.is_some() && s.wfg.is_none());
    }

    #[test]
    fn auto_on_empty_snapshot_is_sg() {
        let built = build(&Snapshot::empty(), ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
        assert_eq!(built.model, GraphModel::Sg);
        assert_eq!(built.edge_count(), 0);
    }

    #[test]
    fn threshold_one_is_stricter_than_threshold_eight() {
        // With a barely-super-linear SG, a strict threshold aborts while a
        // lax one keeps the SG.
        let snap = many_barrier_snapshot(8, 3);
        let strict = build(&snap, ModelChoice::Auto, 1);
        let lax = build(&snap, ModelChoice::Auto, 1000);
        assert_eq!(strict.model, GraphModel::Wfg);
        assert_eq!(lax.model, GraphModel::Sg);
    }

    #[test]
    fn kept_graph_matches_direct_construction() {
        for snap in [spmd_snapshot(16), many_barrier_snapshot(3, 32)] {
            let built = build(&snap, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
            match built.model {
                GraphModel::Sg => {
                    let direct = crate::sg::sg(&snap);
                    let kept = built.sg.unwrap();
                    assert_eq!(kept.edge_count(), direct.edge_count());
                    assert_eq!(kept.node_count(), direct.node_count());
                }
                GraphModel::Wfg => {
                    let direct = crate::wfg::wfg(&snap);
                    let kept = built.wfg.unwrap();
                    assert_eq!(kept.edge_count(), direct.edge_count());
                    assert_eq!(kept.node_count(), direct.node_count());
                }
            }
        }
    }
}
