//! A phaser-keyed index over a [`Snapshot`], shared by the WFG/SG/GRG
//! constructions so each graph build is a single pass over blocked tasks.
//! (The incremental engine maintains the same two mappings *persistently*,
//! updated per delta; this index is the one-shot equivalent used by the
//! from-scratch oracle builds and the canonical report path.)

use crate::deps::Snapshot;
use crate::ids::{IdMap, IdSet, Phase, PhaserId, TaskId};
use crate::resource::Resource;

/// Index over a snapshot:
/// * `regs_by_phaser`: for each phaser, the (blocked task, local phase)
///   registrations — the finite representation of `I`;
/// * `waits_by_phaser`: for each phaser, the awaited events on it, sorted
///   by phase — the range of `W` (and the vertex set of the SG).
pub struct SnapshotIndex {
    /// Per phaser, the (blocked task, local phase) registrations.
    pub regs_by_phaser: IdMap<PhaserId, Vec<(TaskId, Phase)>>,
    /// Per phaser, the awaited events on it, sorted by phase.
    pub waits_by_phaser: IdMap<PhaserId, Vec<Resource>>,
    /// All distinct awaited events (SG vertex set), in first-seen order.
    pub wait_resources: Vec<Resource>,
}

impl SnapshotIndex {
    /// Builds the index in `O(Σ |waits| + Σ |registered|)` plus sorting.
    pub fn new(snapshot: &Snapshot) -> SnapshotIndex {
        let mut regs_by_phaser: IdMap<PhaserId, Vec<(TaskId, Phase)>> = IdMap::default();
        let mut waits_by_phaser: IdMap<PhaserId, Vec<Resource>> = IdMap::default();
        let mut wait_resources = Vec::new();
        let mut seen: IdSet<Resource> = IdSet::default();

        for info in &snapshot.tasks {
            for reg in &info.registered {
                regs_by_phaser.entry(reg.phaser).or_default().push((info.task, reg.local_phase));
            }
            for &w in &info.waits {
                if seen.insert(w) {
                    wait_resources.push(w);
                    waits_by_phaser.entry(w.phaser).or_default().push(w);
                }
            }
        }
        for list in waits_by_phaser.values_mut() {
            list.sort_by_key(|r| r.phase);
        }
        SnapshotIndex { regs_by_phaser, waits_by_phaser, wait_resources }
    }

    /// The awaited events on `phaser` with phase strictly greater than
    /// `local_phase`: exactly the (relevant) events a task registered at
    /// `local_phase` impedes.
    pub fn impeded_waits(&self, phaser: PhaserId, local_phase: Phase) -> &[Resource] {
        match self.waits_by_phaser.get(&phaser) {
            None => &[],
            Some(list) => {
                let start = list.partition_point(|r| r.phase <= local_phase);
                &list[start..]
            }
        }
    }

    /// The blocked tasks registered on `resource.phaser` with local phase
    /// below `resource.phase`: the blocked part of `I(resource)`.
    pub fn impeders<'a>(&'a self, resource: Resource) -> impl Iterator<Item = TaskId> + 'a {
        self.regs_by_phaser
            .get(&resource.phaser)
            .into_iter()
            .flatten()
            .filter(move |&&(_, m)| m < resource.phase)
            .map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::BlockedInfo;
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

    fn example_snapshot() -> Snapshot {
        // The paper's Example 4.1: t1..t3 wait pc@1 (registered pc@... ),
        // t4 waits pb@1. pc = p(1), pb = p(2).
        let mk = |task: u64, wait: Resource, regs: Vec<Registration>| {
            BlockedInfo::new(t(task), vec![wait], regs)
        };
        Snapshot::from_tasks(vec![
            mk(1, r(1, 1), vec![Registration::new(p(1), 1), Registration::new(p(2), 0)]),
            mk(2, r(1, 1), vec![Registration::new(p(1), 1), Registration::new(p(2), 0)]),
            mk(3, r(1, 1), vec![Registration::new(p(1), 1), Registration::new(p(2), 0)]),
            mk(4, r(2, 1), vec![Registration::new(p(1), 0), Registration::new(p(2), 1)]),
        ])
    }

    #[test]
    fn wait_resources_are_distinct() {
        let idx = SnapshotIndex::new(&example_snapshot());
        assert_eq!(idx.wait_resources.len(), 2);
        assert!(idx.wait_resources.contains(&r(1, 1)));
        assert!(idx.wait_resources.contains(&r(2, 1)));
    }

    #[test]
    fn impeders_of_pc_phase1_is_t4() {
        let idx = SnapshotIndex::new(&example_snapshot());
        let imp: Vec<_> = idx.impeders(r(1, 1)).collect();
        assert_eq!(imp, vec![t(4)]);
    }

    #[test]
    fn impeders_of_pb_phase1_are_workers() {
        let idx = SnapshotIndex::new(&example_snapshot());
        let mut imp: Vec<_> = idx.impeders(r(2, 1)).collect();
        imp.sort();
        assert_eq!(imp, vec![t(1), t(2), t(3)]);
    }

    #[test]
    fn impeded_waits_respects_strict_inequality() {
        let idx = SnapshotIndex::new(&example_snapshot());
        // t4 is registered on p1 at phase 0, so it impedes p1@1.
        assert_eq!(idx.impeded_waits(p(1), 0), &[r(1, 1)]);
        // Workers are registered on p1 at phase 1: they impede nothing on p1.
        assert_eq!(idx.impeded_waits(p(1), 1), &[] as &[Resource]);
        // Unknown phaser: nothing.
        assert_eq!(idx.impeded_waits(p(9), 0), &[] as &[Resource]);
    }
}
