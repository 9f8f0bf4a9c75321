//! The distributed deadlock check: merge partitions, analyse, confirm.
//!
//! Armus adapts the one-phase detection algorithm of Kshemkalyani–Singhal:
//! every site independently pulls the global view and checks it — there is
//! no designated control site (fault tolerance), and thanks to the
//! event-based representation the partitions need no cross-site
//! consistency: each blocked task's status is internally consistent, and
//! phases only grow. A found cycle is *confirmed* by looking at the store
//! again and requiring every `(task, epoch)` pair of the cycle to still be
//! present — deadlocked tasks can never unblock, so confirmation is
//! conclusive, while in-flight unblockings disappear.
//!
//! Every checker — a site's, and the `armus-stored` one for its
//! subscribers — runs one round ([`IncrementalDistChecker::check_round`]):
//! it reads the store's change log from its cursor
//! ([`Store::changes_since`]), applies what changed, analyses, and
//! confirms a hit with a second read. A round costs what changed, not what
//! is stored; only a join reads the whole view.

#[cfg(test)]
use armus_core::TaskId;
use armus_core::{
    checker, CheckStats, DeadlockReport, Delta, IncrementalEngine, ModelChoice, Snapshot,
};

use crate::store::{delta_task, Feed, SiteId, Store, StoreError};

/// Merges per-site partitions into one global snapshot, **site-namespacing
/// every task id** ([`armus_core::TaskId::with_site`]): the injective
/// `(site, local id)` renaming that keeps tasks from independent processes
/// distinct even when their process-local ids collide. Phaser ids are left
/// alone — a phaser is a distributed clock, so the same phaser id on two
/// sites names the same synchronisation object, and the cross-site edges
/// of a distributed cycle run exactly through that shared identity.
/// Reports therefore carry namespaced ids (rendered `s1:t4`); strip them
/// with [`armus_core::TaskId::local`]/`site_tag` when mapping a report
/// back to one site's tasks.
///
/// A partition whose ids cannot be injectively renamed (an
/// out-of-protocol peer shipped a too-wide or already-namespaced id, or
/// a site id beyond the tag range) is **skipped**, not panicked on: ids
/// arrive over the wire, and a checker thread dying on hostile input
/// would silently end detection cluster-wide. Skipping can only delay a
/// report (the site reads as absent), never fabricate one — and the
/// `armus-stored` server additionally rejects such publishes up front.
pub fn merge(partitions: &[(SiteId, Snapshot)]) -> Snapshot {
    merge_owned(partitions.to_vec())
}

/// [`merge`] of a view the caller owns and is done with — what a check
/// round fetched for itself: every blocked status moves into the merged
/// snapshot instead of being cloned into it and dropped.
fn merge_owned(partitions: Vec<(SiteId, Snapshot)>) -> Snapshot {
    let mut tasks = Vec::with_capacity(partitions.iter().map(|(_, s)| s.len()).sum());
    for (site, snap) in partitions {
        match snap.with_site_namespace(site.0) {
            Some(namespaced) => tasks.extend(namespaced.tasks),
            None => continue, // out-of-protocol partition: treat as absent
        }
    }
    let merged = Snapshot::from_tasks(tasks);
    // The renaming is injective and a store partition holds at most one
    // status per task, so the merged (sorted) view has no duplicate ids —
    // a duplicate would mean two statuses for one task, i.e. a nonsense
    // graph over aliased nodes.
    debug_assert!(
        merged.tasks.windows(2).all(|w| w[0].task != w[1].task),
        "merged view must have unique task ids"
    );
    merged
}

/// The confirmation pass every check ends a hit with: in what the store
/// holds *after* the view the cycle was found in, every participant must
/// still be in the same blocking operation. `feed` is that store: a whole
/// view, or what changed since the analysed one — a participant nobody
/// wrote since stands as analysed.
fn confirmed(report: &DeadlockReport, feed: Feed) -> bool {
    let mut pairs = report.task_epochs.iter();
    match feed {
        Feed::Join(view) => {
            let merged = merge_owned(view);
            pairs.all(|&(task, epoch)| merged.get(task).is_some_and(|info| info.epoch == epoch))
        }
        Feed::Deltas(deltas) => pairs.all(|&(task, epoch)| {
            match deltas.iter().find(|delta| delta_task(delta) == task) {
                Some(Delta::Block(info)) => info.epoch == epoch,
                Some(Delta::Unblock(_)) => false,
                None => true,
            }
        }),
    }
}

/// Outcome of one distributed check round.
pub struct DistCheck {
    /// A *confirmed* deadlock, if any.
    pub report: Option<DeadlockReport>,
    /// Statistics of the (first) analysis pass.
    pub stats: Option<CheckStats>,
}

/// One stateless check round against the store: fetch, merge, build the
/// graph from scratch, analyse, and on a hit re-fetch to confirm. This is
/// the **reference** the persistent [`IncrementalDistChecker`] — what
/// sites and the `armus-stored` checker thread actually run — is compared
/// against, byte for byte, by the tests and by
/// `examples/distributed_detection.rs`; nothing in production calls it.
/// Store errors surface as `Err`.
pub fn check_store(
    store: &dyn Store,
    model: ModelChoice,
    sg_threshold: usize,
) -> Result<DistCheck, StoreError> {
    let merged = merge_owned(store.fetch_all()?);
    if merged.is_empty() {
        return Ok(DistCheck { report: None, stats: None });
    }
    let outcome = checker::check(&merged, model, sg_threshold);
    let stats = Some(outcome.stats);
    let Some(report) = outcome.report else {
        return Ok(DistCheck { report: None, stats });
    };
    // Confirmation pass: one more fetch.
    let confirmed = confirmed(&report, Feed::Join(store.fetch_all()?));
    Ok(DistCheck { report: confirmed.then_some(report), stats })
}

/// Per-checker counters of the incremental distributed detection path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DistCheckerStats {
    /// Block/unblock deltas applied to the engine, as the store's change
    /// log answered them.
    pub deltas_applied: u64,
    /// Rounds whose detection was answered entirely from the maintained
    /// topological order (no full graph walk).
    pub incremental_detections: u64,
    /// From-scratch reloads of the engine from a merged snapshot — with
    /// whatever graph and order it keeps live rebuilt from it: every join.
    /// The first round joins, and so does one after an explicit
    /// [`IncrementalDistChecker::resync`], after the store's log dropped
    /// the checker's cursor, or against a restarted store; a passive store
    /// answers every round with a join.
    pub order_rebuilds: u64,
    /// Graph structures (a model's adjacency or its order) the engine built
    /// because a round demanded one that was not live — see
    /// [`armus_core::EngineCounters`].
    pub model_builds: u64,
    /// Graph structures the engine dropped because no round had read them
    /// for longer than rebuilding them costs.
    pub model_retires: u64,
    /// Check rounds completed (the read and the analysis both succeeded).
    pub rounds: u64,
    /// Confirmation reads: a cycle was found and had to be verified
    /// against a second read of the store before it was reported.
    pub confirm_fetches: u64,
}

/// A *persistent* distributed checker: the stateful counterpart of
/// [`check_store`]. It keeps an [`IncrementalEngine`] alive across rounds
/// and feeds it what changed between them as block/unblock deltas, so
/// cycle existence is answered from the maintained Pearce–Kelly order in
/// O(round-over-round churn) instead of rebuilding the dependency graphs
/// from the full global view every check period — the distributed analogue
/// of the local verifier's journal-following detection.
///
/// The deltas are the store's: its change log, read from the checker's
/// cursor ([`Store::changes_since`]). A join — the first round, and any
/// whose cursor the store does not honour — rebuilds the engine from a
/// whole merged snapshot, mirroring the local `Behind` → snapshot-resync
/// fallback; reports stay byte-identical to [`check_store`]'s because a
/// hit falls back to the same canonical `checker::check` extraction and is
/// confirmed against what the store holds after the analysis.
pub struct IncrementalDistChecker {
    engine: IncrementalEngine,
    /// Where the engine stands in the store's change log; `None`: nowhere
    /// it can name, and the next read joins.
    cursor: Option<u64>,
    stats: DistCheckerStats,
}

impl Default for IncrementalDistChecker {
    fn default() -> Self {
        IncrementalDistChecker::new()
    }
}

impl IncrementalDistChecker {
    /// A fresh checker: the first round rebuilds from the merged view.
    pub fn new() -> IncrementalDistChecker {
        IncrementalDistChecker {
            engine: IncrementalEngine::new(),
            cursor: None,
            stats: DistCheckerStats::default(),
        }
    }

    /// Drops the cursor: the next round rebuilds the engine from the
    /// merged snapshot (counted as an order rebuild).
    pub fn resync(&mut self) {
        self.cursor = None;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> DistCheckerStats {
        let engine = self.engine.counters();
        DistCheckerStats {
            model_builds: engine.model_builds,
            model_retires: engine.model_retires,
            ..self.stats
        }
    }

    /// The view the engine holds, for comparison with the store's.
    #[cfg(test)]
    pub(crate) fn materialize(&self) -> Snapshot {
        self.engine.materialize()
    }

    /// Runs one check round against the store: read what changed since
    /// the cursor, bring the engine up to date, answer cycle existence from
    /// the maintained order, and on a hit extract the canonical report and
    /// confirm it with a second read — the exact semantics of
    /// [`check_store`], minus the per-round graph rebuild. Store errors
    /// surface as `Err`; a read is not destructive, so a failed one leaves
    /// the cursor where it was.
    pub fn check_round(
        &mut self,
        store: &dyn Store,
        model: ModelChoice,
        sg_threshold: usize,
    ) -> Result<DistCheck, StoreError> {
        self.follow(|cursor| store.changes_since(cursor), model, sg_threshold)
    }

    /// [`IncrementalDistChecker::check_round`] over any reader of one
    /// tenant's change log: the `armus-stored` checker reads its own
    /// store's in-process.
    pub(crate) fn follow(
        &mut self,
        mut read: impl FnMut(Option<u64>) -> Result<(u64, Feed), StoreError>,
        model: ModelChoice,
        sg_threshold: usize,
    ) -> Result<DistCheck, StoreError> {
        let (cursor, feed) = read(self.cursor)?;
        match feed {
            Feed::Join(view) => {
                self.engine.reset_to(&merge_owned(view));
                self.stats.order_rebuilds += 1;
            }
            Feed::Deltas(deltas) => {
                self.stats.deltas_applied += deltas.len() as u64;
                deltas.into_iter().for_each(|delta| self.engine.apply(delta));
            }
        }
        self.cursor = Some(cursor);
        let (hit, stats) = self.analyse(model, sg_threshold);
        // The confirmation read is not applied: the next round reads it
        // again from the cursor the analysis stands at.
        let report = match hit {
            Some(report) if confirmed(&report, read(Some(cursor))?.1) => Some(report),
            _ => None,
        };
        Ok(DistCheck { report, stats })
    }

    /// The round once the engine is up to date: cycle existence from the
    /// maintained order and, on a hit, the canonical report — which the
    /// caller has yet to confirm.
    fn analyse(
        &mut self,
        model: ModelChoice,
        sg_threshold: usize,
    ) -> (Option<DeadlockReport>, Option<CheckStats>) {
        self.stats.rounds += 1;
        if self.engine.blocked() == 0 {
            return (None, None);
        }
        let det = self.engine.check_full_detailed(model, sg_threshold);
        self.stats.incremental_detections += u64::from(det.incremental);
        self.stats.confirm_fetches += u64::from(det.outcome.report.is_some());
        (det.outcome.report, Some(det.outcome.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use armus_core::{
        BlockedInfo, PhaserId, Registration, ReportDedup, Resource, DEFAULT_SG_THRESHOLD,
    };

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }
    fn p(n: u64) -> PhaserId {
        PhaserId(n)
    }
    fn r(ph: u64, n: u64) -> Resource {
        Resource::new(p(ph), n)
    }

    /// The running example split across two sites: workers on site 0,
    /// driver on site 1 (a distributed clock, as in `at (p) async`).
    fn split_example(store: &MemStore) {
        let workers = (1..=3)
            .map(|i| {
                BlockedInfo::new(
                    t(i),
                    vec![r(1, 1)],
                    vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
                )
            })
            .collect();
        store.publish_full(SiteId(0), Snapshot::from_tasks(workers), 1).unwrap();
        let driver = BlockedInfo::new(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        );
        store.publish_full(SiteId(1), Snapshot::from_tasks(vec![driver]), 1).unwrap();
    }

    #[test]
    fn merge_concatenates_partitions() {
        let store = MemStore::new();
        split_example(&store);
        let merged = merge(&store.fetch_all().unwrap());
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn merge_namespaces_task_ids_by_site() {
        let store = MemStore::new();
        split_example(&store);
        let merged = merge(&store.fetch_all().unwrap());
        // Workers live on site 0, the driver on site 1.
        for worker in 1..=3 {
            let global = t(worker).with_site(0);
            assert_eq!(merged.get(global).unwrap().task.local(), t(worker));
        }
        assert_eq!(merged.get(t(4).with_site(1)).unwrap().task.site_tag(), Some(1));
        assert!(merged.get(t(4)).is_none(), "un-namespaced ids must not appear");
    }

    #[test]
    fn colliding_local_ids_stay_distinct_in_the_merge() {
        // Two independent processes may both host a local task 1; the
        // injective renaming keeps both statuses. Before the namespacing
        // this silently kept both under one id — a nonsense merged view.
        let store = MemStore::new();
        let local = |waits: Resource| {
            Snapshot::from_tasks(vec![BlockedInfo::new(
                t(1),
                vec![waits],
                vec![Registration::new(p(1), 0)],
            )])
        };
        store.publish_full(SiteId(0), local(r(1, 1)), 1).unwrap();
        store.publish_full(SiteId(1), local(r(1, 2)), 1).unwrap();
        let merged = merge(&store.fetch_all().unwrap());
        assert_eq!(merged.len(), 2, "both colliding tasks must survive the merge");
        let ids: Vec<_> = merged.tasks.iter().map(|b| b.task).collect();
        assert_eq!(ids, vec![t(1).with_site(0), t(1).with_site(1)]);
        assert!(ids.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn out_of_protocol_partitions_are_skipped_not_panicked_on() {
        // A hostile or buggy peer can put any u64 in a published task id
        // and any u32 in a site id; the merge — which runs on every
        // checker thread — must stay total. The rogue partition reads as
        // absent; the healthy ones still merge.
        let store = MemStore::new();
        split_example(&store);
        let rogue = Snapshot::from_tasks(vec![BlockedInfo::new(
            // Already-namespaced (too-wide) id: cannot be renamed again.
            t(1).with_site(3),
            vec![r(1, 1)],
            vec![Registration::new(p(1), 0)],
        )]);
        store.publish_full(SiteId(7), rogue, 1).unwrap();
        let merged = merge(&store.fetch_all().unwrap());
        assert_eq!(merged.len(), 4, "the rogue partition is skipped, the rest survive");
        // Detection still works on the healthy partitions.
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_some());
        // An out-of-range *site id* is likewise skipped, not panicked on.
        let store2 = MemStore::new();
        store2
            .publish_full(
                SiteId(armus_core::MAX_SITE_TAG + 1),
                Snapshot::from_tasks(vec![BlockedInfo::new(
                    t(1),
                    vec![r(1, 1)],
                    vec![Registration::new(p(1), 0)],
                )]),
                1,
            )
            .unwrap();
        assert!(merge(&store2.fetch_all().unwrap()).is_empty());
    }

    #[test]
    fn cross_site_deadlock_is_found_and_confirmed() {
        let store = MemStore::new();
        split_example(&store);
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        let report = out.report.expect("cross-site cycle");
        assert!(report.tasks.contains(&t(4).with_site(1)), "driver participates, namespaced");
        assert!(out.stats.is_some());
    }

    #[test]
    fn incremental_checker_matches_check_store_byte_identically() {
        let store = MemStore::new();
        let mut inc = IncrementalDistChecker::new();
        // Round 1 — healthy workers only: the join rebuild, then a purely
        // order-answered "no cycle".
        let workers: Vec<_> = (1..=3)
            .map(|i| {
                BlockedInfo::new(
                    t(i),
                    vec![r(1, 1)],
                    vec![Registration::new(p(1), 1), Registration::new(p(2), 0)],
                )
            })
            .collect();
        store.publish_full(SiteId(0), Snapshot::from_tasks(workers), 1).unwrap();
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(round.report.is_none());
        let stats = inc.stats();
        assert_eq!(stats.order_rebuilds, 1, "the join round rebuilds: {stats:?}");
        assert_eq!(stats.incremental_detections, 1, "no-cycle verdict from the order: {stats:?}");
        assert_eq!(stats.deltas_applied, 0);
        assert_eq!(stats.model_builds, 2, "Auto demanded the SG and its order: {stats:?}");

        // Round 2 — the driver joins on site 1, closing the cross-site
        // cycle: exactly one diffed Block delta, and the report is
        // byte-identical to the stateless `check_store`'s.
        let driver = BlockedInfo::new(
            t(4),
            vec![r(2, 1)],
            vec![Registration::new(p(1), 0), Registration::new(p(2), 1)],
        );
        store.publish_full(SiteId(1), Snapshot::from_tasks(vec![driver]), 1).unwrap();
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        let baseline = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(baseline.report.is_some());
        assert_eq!(round.report, baseline.report, "hit round must match");
        let stats = inc.stats();
        assert_eq!(stats.deltas_applied, 1, "one task joined: {stats:?}");
        assert_eq!(stats.order_rebuilds, 1, "the hit must not force a rebuild: {stats:?}");
        assert_eq!(stats.incremental_detections, 1, "a hit is not order-answered: {stats:?}");

        // Round 3 — quiescent store: zero deltas, same confirmed report.
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert_eq!(round.report, baseline.report);
        assert_eq!(inc.stats().deltas_applied, 1, "nothing changed, nothing applied");

        // Round 4 — the driver's partition retires: one Unblock delta,
        // the cycle is gone, and the verdict is order-answered again.
        store.remove(SiteId(1)).unwrap();
        let round = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(round.report.is_none());
        let stats = inc.stats();
        assert_eq!(stats.deltas_applied, 2, "{stats:?}");
        assert_eq!(stats.incremental_detections, 2, "{stats:?}");
        assert_eq!((stats.model_builds, stats.model_retires), (2, 0), "one model, kept: {stats:?}");
    }

    #[test]
    fn incremental_checker_resync_rereports_byte_identically() {
        // The distributed analogue of the journal-resync regression: a
        // pre-existing cycle must survive an explicit engine rebuild and
        // be re-reported with the exact bytes the stateless check emits.
        let store = MemStore::new();
        let mut inc = IncrementalDistChecker::new();
        split_example(&store);
        let before = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(before.report.is_some());
        assert_eq!(inc.stats().order_rebuilds, 1);

        inc.resync();
        let after = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        let stats = inc.stats();
        assert_eq!(stats.order_rebuilds, 2, "explicit resync rebuilds: {stats:?}");
        assert_eq!(after.report, before.report, "byte-identical across resync");
        let baseline = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert_eq!(after.report, baseline.report, "and to the stateless check");
    }

    #[test]
    fn incremental_checker_discards_unconfirmed_cycles() {
        // Same staleness protocol as `check_store`: the confirmation
        // re-fetch sees the driver gone, so no report — and the *next*
        // round, against a store that keeps no change log, joins afresh.
        struct TwoPhase {
            inner: MemStore,
            flips: std::sync::atomic::AtomicU32,
        }
        impl Store for TwoPhase {
            fn publish_full(&self, s: SiteId, p: Snapshot, v: u64) -> Result<(), StoreError> {
                self.inner.publish_full(s, p, v)
            }
            fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
                let n = self.flips.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if n == 1 {
                    self.inner.remove(SiteId(1)).unwrap();
                }
                self.inner.fetch_all()
            }
            fn remove(&self, s: SiteId) -> Result<(), StoreError> {
                self.inner.remove(s)
            }
        }
        let store = TwoPhase { inner: MemStore::new(), flips: 0.into() };
        split_example(&store.inner);
        let mut inc = IncrementalDistChecker::new();
        let out = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none(), "stale cycle must not be reported");
        // Next round: the engine reloads the cycle-free view.
        let out = inc.check_round(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none());
        let stats = inc.stats();
        assert_eq!(
            (stats.order_rebuilds, stats.deltas_applied),
            (2, 0),
            "a passive store's round joins"
        );
    }

    #[test]
    fn unconfirmed_cycles_are_discarded() {
        // Manually stale: after the first fetch the driver's partition is
        // replaced with a *newer epoch* for the same task — the confirm
        // pass must reject. We emulate by wrapping the store so the second
        // fetch sees different data.
        struct TwoPhase {
            inner: MemStore,
            flips: std::sync::atomic::AtomicU32,
        }
        impl Store for TwoPhase {
            fn publish_full(&self, s: SiteId, p: Snapshot, v: u64) -> Result<(), StoreError> {
                self.inner.publish_full(s, p, v)
            }
            fn fetch_all(&self) -> Result<Vec<(SiteId, Snapshot)>, StoreError> {
                let n = self.flips.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if n == 1 {
                    // Second fetch: the driver unblocked (partition empty).
                    self.inner.remove(SiteId(1)).unwrap();
                }
                self.inner.fetch_all()
            }
            fn remove(&self, s: SiteId) -> Result<(), StoreError> {
                self.inner.remove(s)
            }
        }
        let store = TwoPhase { inner: MemStore::new(), flips: 0.into() };
        split_example(&store.inner);
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none(), "stale cycle must not be reported");
    }

    #[test]
    fn healthy_partitions_yield_no_report() {
        let store = MemStore::new();
        let workers = (1..=3)
            .map(|i| BlockedInfo::new(t(i), vec![r(1, 1)], vec![Registration::new(p(1), 1)]))
            .collect();
        store.publish_full(SiteId(0), Snapshot::from_tasks(workers), 1).unwrap();
        let out = check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap();
        assert!(out.report.is_none());
    }

    #[test]
    fn dedup_reports_once_per_task_set() {
        let store = MemStore::new();
        split_example(&store);
        let mut dedup = ReportDedup::new();
        let r1 =
            check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap().report.unwrap();
        assert!(dedup.is_new(&r1));
        let r2 =
            check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap().report.unwrap();
        assert!(!dedup.is_new(&r2));
    }

    fn report_over(tasks: Vec<TaskId>) -> DeadlockReport {
        DeadlockReport {
            tasks: tasks.clone(),
            resources: vec![r(1, 1)],
            model: armus_core::GraphModel::Wfg,
            witness: armus_core::CycleWitness::Tasks(tasks.clone()),
            task_epochs: tasks.into_iter().map(|t| (t, 1)).collect(),
        }
    }

    #[test]
    fn persisting_distributed_deadlock_rereports_after_eviction() {
        // A deadlock that outlives a full dedup window is re-reported on
        // the next check round — loud beats silent for a stuck cluster.
        let store = MemStore::new();
        split_example(&store);
        let mut dedup = ReportDedup::with_capacity(1);
        let round = || {
            check_store(&store, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).unwrap().report.unwrap()
        };
        assert!(dedup.is_new(&round()));
        assert!(!dedup.is_new(&round()), "retained: suppressed");
        // An unrelated report on another site flushes the 1-entry window.
        assert!(dedup.is_new(&report_over(vec![t(99)])));
        assert!(dedup.is_new(&round()), "the still-live deadlock re-reports after eviction");
    }
}
