//! The differential oracle: runs a scenario under the run-time
//! [`armus_core::Verifier`] (avoidance and detection, fast path on and
//! off) and in lockstep through the `armus-pl` semantics, and cross-checks
//! the two on every step:
//!
//! * **alignment** — every completed runtime op must be an enabled PL
//!   transition (and a park must correspond to a disabled `await`);
//! * **soundness** — every report the verifier produces must name a real
//!   cycle in the replayed PL state (witness validated against the WFG/SG
//!   of the state, via [`armus_pl::analyse`] and a direct snapshot
//!   reconstruction);
//! * **completeness** — once every member of a PL-deadlocked task set has
//!   published its blocked status, detection must have reported it, and
//!   avoidance must never have admitted the closing block at all;
//! * **model agreement** — the coinductive Definition-3.2 oracle and the
//!   canonical graph checker must agree with each other (Thms 4.10/4.15)
//!   and with the verifier's verdict at quiescence;
//! * **incremental-detection lockstep** — a follower
//!   [`IncrementalEngine`] is synced against the verifier's registry on
//!   *every* step of every config, and its Pearce–Kelly order answer
//!   (`check_full`) and the canonical from-scratch checker must produce
//!   byte-identical reports in every graph model, with the maintained
//!   orders validating against the distinct-edge lists. That follower
//!   demands every model and both orders on every step; a second, *lazy*
//!   follower beside it is only ever asked `check_task` under `Auto` — the
//!   avoidance verifier's query — so it builds and retires its graphs on
//!   demand, never builds an order, and must still agree with the first
//!   follower and the canonical checker for every blocked task at every
//!   step.
//!
//! Any violation surfaces as a [`Failure`] naming the config, the virtual
//! time, and the broken invariant — the shrinker then minimises the
//! scenario and prints a replayable one-liner.

use std::collections::HashMap;

use armus_core::{
    checker, sg, wfg, BlockedInfo, CycleWitness, DeadlockReport, GraphModel, IncrementalEngine,
    ModelChoice, Registration, Resource, Snapshot, TaskId, VerifierConfig, DEFAULT_SG_THRESHOLD,
};
use armus_pl::{analyse, apply, enabled, Instr, Rule, State, StateVerdict, Transition};

use crate::scenario::{Op, Scenario};
use crate::sched::Chooser;
use crate::sim::{Sim, SimEvent, SimOutcome, WaitApi};

/// How the oracle drives a verifier configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleMode {
    /// Inline pre-block checks; would-deadlock verdicts are refusals.
    Avoidance,
    /// Publish-only blocks; the oracle samples [`armus_core::Verifier::
    /// check_now`] itself — the detection monitor's body, driven on the
    /// virtual clock instead of a wall-clock period. `check_every_step`
    /// false samples only at quiescence, building journal backlog (with a
    /// tiny journal window that deterministically exercises the
    /// `Behind`/full-resync branch).
    Sampling {
        /// Sample after every step (true) or only at quiescence (false).
        check_every_step: bool,
    },
}

/// One verifier configuration under differential test.
pub struct OracleConfig {
    /// Display name (stable; used in repro lines).
    pub name: &'static str,
    /// The verifier configuration.
    pub verifier: VerifierConfig,
    /// How the oracle drives it.
    pub mode: OracleMode,
}

/// The configurations every scenario is checked under: avoidance with the
/// resource-cardinality fast path on and off, and detection-style
/// sampling with default and adversarial (tiny-journal, single-shard,
/// low parallel-threshold) tuning.
pub fn oracle_configs() -> Vec<OracleConfig> {
    vec![
        OracleConfig {
            name: "avoidance",
            verifier: VerifierConfig::avoidance(),
            mode: OracleMode::Avoidance,
        },
        OracleConfig {
            name: "avoidance-nofastpath",
            verifier: VerifierConfig::avoidance().with_fastpath(false),
            mode: OracleMode::Avoidance,
        },
        OracleConfig {
            name: "detection",
            verifier: VerifierConfig::publish_only(),
            mode: OracleMode::Sampling { check_every_step: true },
        },
        OracleConfig {
            name: "detection-tiny-journal",
            verifier: VerifierConfig::publish_only().with_journal_capacity(2).with_shards(1),
            mode: OracleMode::Sampling { check_every_step: false },
        },
    ]
}

/// A broken invariant: which config, when (virtual time), and what.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The [`OracleConfig::name`] under which the invariant broke.
    pub config: String,
    /// Virtual time (steps executed) at the violation.
    pub step: u64,
    /// The broken invariant.
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} @ step {}] {}", self.config, self.step, self.message)
    }
}

/// Runs `scenario` under every oracle configuration, driving each with a
/// chooser from `make_chooser` (same seed ⇒ same schedule per config).
pub fn run_all(
    scenario: &Scenario,
    mut make_chooser: impl FnMut(&OracleConfig) -> Box<dyn Chooser>,
) -> Result<(), Failure> {
    for oc in oracle_configs() {
        run_config(scenario, &oc, make_chooser(&oc).as_mut())?;
    }
    Ok(())
}

/// Seeded form of [`run_all`]: every config replays the schedule stream
/// of `seed`.
pub fn run_seeded(scenario: &Scenario, seed: u64) -> Result<(), Failure> {
    run_all(scenario, |_| Box::new(crate::sched::SeededChooser::new(seed)))
}

/// [`run_seeded`] with blocking driven through the chosen front-end: the
/// full differential oracle holds verbatim over the async `Await` futures.
pub fn run_seeded_with_api(scenario: &Scenario, seed: u64, api: WaitApi) -> Result<(), Failure> {
    for oc in oracle_configs() {
        run_config_with_api(scenario, &oc, &mut crate::sched::SeededChooser::new(seed), api)?;
    }
    Ok(())
}

/// Runs one configuration to quiescence under `chooser`, checking every
/// differential invariant along the way.
pub fn run_config(
    scenario: &Scenario,
    oc: &OracleConfig,
    chooser: &mut dyn Chooser,
) -> Result<(), Failure> {
    run_config_with_api(scenario, oc, chooser, WaitApi::Seam)
}

/// [`run_config`] with blocking driven through the chosen front-end.
pub fn run_config_with_api(
    scenario: &Scenario,
    oc: &OracleConfig,
    chooser: &mut dyn Chooser,
    api: WaitApi,
) -> Result<(), Failure> {
    let mut pl = scenario.initial_pl_state();
    let mut sim = Sim::new_with_api(scenario, oc.verifier, api);
    let task_index: HashMap<TaskId, usize> =
        (0..scenario.tasks.len()).map(|i| (sim.task_id(i), i)).collect();
    // The incremental-detection follower: synced against the verifier's
    // registry on every step (under the tiny-journal config it falls
    // Behind and resyncs, exercising the order-rebuild path in lockstep),
    // without touching the verifier's own engine, lock, or stats.
    let mut follower = IncrementalEngine::new();
    // The lazy follower: same syncs, but only ever asked `check_task`
    // under `Auto`, so its graphs come and go with that query's demand.
    let mut lazy = IncrementalEngine::new();

    loop {
        let options = sim.options();
        if options.is_empty() {
            break;
        }
        let pick = chooser.choose(options.len());
        let event = sim.step(options[pick]);
        let clock = sim.clock;
        let fail =
            move |message: String| Failure { config: oc.name.to_string(), step: clock, message };

        match &event {
            SimEvent::Completed(i, op) => {
                let transition = Transition { task: Scenario::task_name(*i), rule: rule_of(*op) };
                if !enabled(&pl).contains(&transition) {
                    return Err(fail(format!(
                        "alignment: sim completed {op:?} for t{i} but PL rule {:?} is not enabled",
                        transition.rule
                    )));
                }
                pl = apply(&pl, &transition);
            }
            SimEvent::BlockedAt(i, _) => {
                let sync = Transition { task: Scenario::task_name(*i), rule: Rule::Sync };
                if enabled(&pl).contains(&sync) {
                    return Err(fail(format!(
                        "alignment: t{i} parked but its PL await condition holds"
                    )));
                }
            }
            SimEvent::Refused { task: i, phaser: p, report, initiated } => {
                if oc.mode != OracleMode::Avoidance {
                    return Err(fail(format!("a non-avoidance verifier refused t{i}'s block")));
                }
                if !report.tasks.contains(&sim.task_id(*i)) {
                    return Err(fail(format!(
                        "refusal report for t{i} does not name the task: {report}"
                    )));
                }
                if *initiated {
                    // This very block closed the cycle: the replayed state
                    // must be deadlocked, through this task, and the
                    // witness must be a real cycle in it.
                    let verdict = check_model(&pl, &fail)?;
                    let in_cycle = verdict
                        .deadlocked_tasks
                        .as_ref()
                        .map(|set| set.contains(&Scenario::task_name(*i)))
                        .unwrap_or(false);
                    if !in_cycle {
                        return Err(fail(format!(
                            "t{i}'s block was refused but the model does not place it in \
                             any deadlock: {report}"
                        )));
                    }
                    validate_report(report, &snapshot_of(&pl, &sim, scenario)).map_err(|e| {
                        fail(format!("refusal report is not a real cycle: {e}: {report}"))
                    })?;
                } else {
                    // Interrupt delivered to a parked victim: the report
                    // is historical — the initiating refusal already broke
                    // the cycle (and was validated then). Require the
                    // initiator to exist.
                    let another_failed =
                        (0..scenario.tasks.len()).any(|j| j != *i && sim.is_failed(j));
                    if !another_failed {
                        return Err(fail(format!(
                            "t{i} was interrupted without any preceding refusal: {report}"
                        )));
                    }
                }
                mirror_refusal(&mut pl, *i, *p);
            }
        }

        // Per-step verdict invariants. Mode-specific ordering: avoidance
        // checks its completeness invariant before the lockstep (a planted
        // fast-path bug must surface as "admitted a deadlock"); sampling
        // locksteps first so an incremental-detection bug is pinned to the
        // diverging check rather than to a missed sample downstream.
        match oc.mode {
            OracleMode::Avoidance => {
                let verdict = check_model(&pl, &fail)?;
                if let Some(set) = &verdict.deadlocked_tasks {
                    let all_published = set
                        .iter()
                        .all(|name| parse_task(name).map(|ix| sim.is_blocked(ix)).unwrap_or(false));
                    if all_published {
                        return Err(fail(format!(
                            "avoidance admitted a deadlock: every member of {set:?} is \
                             parked with a published status and no verdict was raised"
                        )));
                    }
                }
                lockstep(&mut follower, &mut lazy, &sim, &fail)?;
            }
            OracleMode::Sampling { check_every_step } => {
                lockstep(&mut follower, &mut lazy, &sim, &fail)?;
                if check_every_step {
                    sample(&pl, &sim, scenario, &task_index, &fail)?;
                }
            }
        }
    }

    {
        let clock = sim.clock;
        let fail =
            move |message: String| Failure { config: oc.name.to_string(), step: clock, message };
        lockstep(&mut follower, &mut lazy, &sim, &fail)?;
    }
    quiesce_checks(scenario, &pl, &sim, &task_index, oc)
}

/// Per-step cross-check of the incremental detection path: syncs the
/// follower engine with the verifier's registry, then requires the
/// Pearce–Kelly order answer (`check_full`) and the canonical from-scratch
/// checker to deliver byte-identical reports in every graph model. The
/// maintained orders must also validate against the engine's distinct-edge
/// lists. The `lazy` follower answers only `check_task` under `Auto`, for
/// every blocked task: byte-identical to the all-demanding follower and
/// the canonical checker, with no order ever built.
fn lockstep(
    follower: &mut IncrementalEngine,
    lazy: &mut IncrementalEngine,
    sim: &Sim,
    fail: &impl Fn(String) -> Failure,
) -> Result<(), Failure> {
    sim.verifier().sync_follower(follower);
    sim.verifier().sync_follower(lazy);
    let snap = sim.verifier().local_snapshot();
    for choice in [ModelChoice::Auto, ModelChoice::FixedWfg, ModelChoice::FixedSg] {
        let order = follower.check_full(choice, DEFAULT_SG_THRESHOLD).report;
        let oracle = checker::check(&snap, choice, DEFAULT_SG_THRESHOLD).report;
        if order != oracle {
            return Err(fail(format!(
                "incremental check_full diverged under {choice:?}: \
                 order-maintenance={order:?} vs oracle={oracle:?}"
            )));
        }
    }
    follower
        .order_invariants()
        .map_err(|e| fail(format!("maintained topological order broke its invariant: {e}")))?;
    for info in &snap.tasks {
        let (choice, task) = (ModelChoice::Auto, info.task);
        let demand_driven = lazy.check_task(task, choice, DEFAULT_SG_THRESHOLD).report;
        let maintained = follower.check_task(task, choice, DEFAULT_SG_THRESHOLD).report;
        let oracle = checker::check_task(&snap, task, choice, DEFAULT_SG_THRESHOLD).report;
        if demand_driven != maintained || demand_driven != oracle {
            return Err(fail(format!(
                "lazy check_task diverged for {task:?}: demand-driven={demand_driven:?} vs \
                 all-demanding={maintained:?} vs oracle={oracle:?}"
            )));
        }
    }
    if [GraphModel::Sg, GraphModel::Wfg].into_iter().any(|model| lazy.order_is_live(model)) {
        return Err(fail("a check_task-only engine built a topological order".to_string()));
    }
    Ok(())
}

/// The PL rule a completed op corresponds to.
fn rule_of(op: Op) -> Rule {
    match op {
        Op::Skip => Rule::Skip,
        Op::Arrive(_) => Rule::Adv,
        Op::Await(_) => Rule::Sync,
        Op::Dereg(_) => Rule::Dereg,
    }
}

/// Analyses the PL state, failing if the coinductive oracle and the
/// canonical checker disagree with *each other* (Thms 4.10/4.15).
fn check_model(pl: &State, fail: &impl Fn(String) -> Failure) -> Result<StateVerdict, Failure> {
    let verdict = analyse(pl);
    if !verdict.internally_consistent() {
        return Err(fail(format!(
            "model inconsistency: coinductive oracle says deadlocked={} but the canonical \
             checker says report={:?}",
            verdict.deadlocked(),
            verdict.report.as_ref().map(|r| r.to_string()),
        )));
    }
    Ok(verdict)
}

/// One detection sample: runs `check_now`, then checks report soundness
/// and (publication-conditional) completeness against the PL model.
fn sample(
    pl: &State,
    sim: &Sim,
    scenario: &Scenario,
    task_index: &HashMap<TaskId, usize>,
    fail: &impl Fn(String) -> Failure,
) -> Result<(), Failure> {
    let fresh = sim.verifier().check_now();
    let verdict = check_model(pl, fail)?;
    if let Some(report) = &fresh {
        let Some(set) = &verdict.deadlocked_tasks else {
            return Err(fail(format!("spurious detection report: {report}")));
        };
        for tid in &report.tasks {
            let Some(&ix) = task_index.get(tid) else {
                return Err(fail(format!("report names unknown task {tid}: {report}")));
            };
            if !set.contains(&Scenario::task_name(ix)) {
                return Err(fail(format!(
                    "report names t{ix}, which the model says is not deadlocked: {report}"
                )));
            }
        }
        validate_report(report, &snapshot_of(pl, sim, scenario))
            .map_err(|e| fail(format!("detection report is not a real cycle: {e}: {report}")))?;
    }
    if let Some(set) = &verdict.deadlocked_tasks {
        let all_published = set.iter().all(|name| {
            parse_task(name)
                .map(|ix| sim.verifier().blocked_info(sim.task_id(ix)).is_some())
                .unwrap_or(false)
        });
        if all_published && !sim.verifier().found_deadlock() {
            return Err(fail(format!(
                "detection missed a deadlock: every member of {set:?} published its \
                 blocked status but check_now found nothing"
            )));
        }
    }
    Ok(())
}

/// End-of-run invariants: final alignment, outcome agreement, snapshot
/// equivalence, and the mode's verdict-level guarantee.
fn quiesce_checks(
    scenario: &Scenario,
    pl: &State,
    sim: &Sim,
    task_index: &HashMap<TaskId, usize>,
    oc: &OracleConfig,
) -> Result<(), Failure> {
    let clock = sim.clock;
    let fail = move |message: String| Failure { config: oc.name.to_string(), step: clock, message };
    if !enabled(pl).is_empty() {
        return Err(fail(format!(
            "alignment: sim quiesced but PL still has enabled transitions: {:?}",
            enabled(pl)
        )));
    }
    let stuck = sim.outcome() == SimOutcome::Stuck;
    if stuck == pl.all_finished() {
        return Err(fail(format!(
            "outcome mismatch: sim {:?} vs PL all_finished={}",
            sim.outcome(),
            pl.all_finished()
        )));
    }
    match oc.mode {
        OracleMode::Avoidance => {
            let verdict = check_model(pl, &fail)?;
            if verdict.deadlocked() {
                return Err(fail(format!(
                    "avoidance ended in a deadlocked state: {:?}",
                    verdict.deadlocked_tasks
                )));
            }
            // Nothing cyclic may be left sitting in the registry either.
            let snap = sim.verifier().local_snapshot();
            if let Some(report) =
                checker::check(&snap, ModelChoice::Auto, DEFAULT_SG_THRESHOLD).report
            {
                return Err(fail(format!(
                    "avoidance left an unreported cycle in the registry: {report}"
                )));
            }
            // Every avoidance block is answered exactly once: by an engine
            // check, by the cardinality fast path, or by a static-hint skip.
            let stats = sim.verifier().stats();
            if stats.checks + stats.fastpath_skips + stats.static_skips != stats.blocks {
                return Err(fail(format!(
                    "avoidance accounting broke: checks {} + fastpath skips {} + static skips \
                     {} != blocks {}",
                    stats.checks, stats.fastpath_skips, stats.static_skips, stats.blocks
                )));
            }
        }
        OracleMode::Sampling { .. } => {
            sample(pl, sim, scenario, task_index, &fail)?;
            let verdict = check_model(pl, &fail)?;
            if sim.verifier().found_deadlock() != verdict.deadlocked() {
                return Err(fail(format!(
                    "final verdict mismatch: verifier found_deadlock={} vs model \
                     deadlocked={}",
                    sim.verifier().found_deadlock(),
                    verdict.deadlocked()
                )));
            }
            // At quiescence every parked task has published, so the
            // registry must be *exactly* the ϕ-image of the PL state.
            let derived = normalize(&snapshot_of(pl, sim, scenario));
            let actual = normalize(&sim.verifier().local_snapshot());
            if derived != actual {
                return Err(fail(format!(
                    "registry diverged from ϕ(PL state): derived {derived:?} vs actual \
                     {actual:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Mirrors an avoidance refusal into the PL state: the runtime
/// deregistered the task from the awaited phaser and the task abandoned
/// its script — in PL terms, drop the membership and run the task to
/// `end`.
fn mirror_refusal(pl: &mut State, i: usize, p: usize) {
    let task = Scenario::task_name(i);
    pl.phasers
        .get_mut(&Scenario::phaser_name(p))
        .expect("refused wait targets a scenario phaser")
        .dereg(&task)
        .expect("refused task was a member of its awaited phaser");
    pl.tasks.insert(task, Vec::new());
}

/// Reconstructs the resource-dependency snapshot of the PL state using
/// the *runtime's* task and phaser ids (the `ϕ` of Definition 4.1, keyed
/// for direct comparison with `Verifier::local_snapshot`).
pub fn snapshot_of(pl: &State, sim: &Sim, scenario: &Scenario) -> Snapshot {
    let mut tasks = Vec::new();
    for i in 0..scenario.tasks.len() {
        let name = Scenario::task_name(i);
        let Some(seq) = pl.tasks.get(&name) else { continue };
        let Some(Instr::Await(p)) = seq.first() else { continue };
        let Some(ph) = pl.phasers.get(p) else { continue };
        let Some(n) = ph.phase_of(&name) else { continue };
        let p_ix = parse_phaser(p).expect("scenario PL states use canonical phaser names");
        let waits = vec![Resource::new(sim.phaser_id(p_ix), n)];
        let mut registered = Vec::new();
        for (q, qph) in &pl.phasers {
            if let Some(m) = qph.phase_of(&name) {
                let q_ix = parse_phaser(q).expect("canonical phaser names");
                registered.push(Registration::new(sim.phaser_id(q_ix), m));
            }
        }
        tasks.push(BlockedInfo::new(sim.task_id(i), waits, registered));
    }
    Snapshot::from_tasks(tasks)
}

/// Is the report's witness a real cycle in the given snapshot's graph?
fn validate_report(report: &DeadlockReport, snap: &Snapshot) -> Result<(), String> {
    match &report.witness {
        CycleWitness::Tasks(cycle) => {
            if !wfg::wfg(snap).is_cycle(cycle) {
                return Err(format!("task witness {cycle:?} is not a WFG cycle"));
            }
        }
        CycleWitness::Resources(cycle) => {
            if !sg::sg(snap).is_cycle(cycle) {
                return Err(format!("resource witness {cycle:?} is not an SG cycle"));
            }
        }
    }
    Ok(())
}

/// Canonical comparable form of a snapshot: epochs zeroed (the registry
/// stamps them; the PL reconstruction cannot) and registration order
/// normalised.
fn normalize(snap: &Snapshot) -> Vec<BlockedInfo> {
    let mut tasks = snap.tasks.clone();
    for info in &mut tasks {
        info.epoch = 0;
        info.waits.sort();
        info.registered.sort_by_key(|r| (r.phaser, r.local_phase));
    }
    tasks
}

/// Task index of a canonical `t{i}` name.
fn parse_task(name: &str) -> Option<usize> {
    name.strip_prefix('t').and_then(|s| s.parse().ok())
}

/// Phaser index of a canonical `p{i}` name.
fn parse_phaser(name: &str) -> Option<usize> {
    name.strip_prefix('p').and_then(|s| s.parse().ok())
}

// Asserts the correct verifier's behaviour — fails by design under the
// planted `verifier-mutation` bug (see tests/mutation.rs).
#[cfg(all(test, not(feature = "verifier-mutation")))]
mod tests {
    use super::*;
    use crate::scenario::canonical_scenarios;

    #[test]
    fn every_canonical_scenario_passes_every_config_on_a_few_seeds() {
        for (name, scenario) in canonical_scenarios() {
            for seed in 0..16 {
                if let Err(f) = run_seeded(&scenario, seed) {
                    panic!("{name} seed {seed}: {f}");
                }
            }
        }
    }

    #[test]
    fn detection_reports_exactly_the_deadlocking_scenarios() {
        // run_config asserts verifier ⟺ model agreement; this test pins
        // the *expected* verdict per canonical scenario on top.
        for (name, scenario) in canonical_scenarios() {
            let oc = &oracle_configs()[2]; // "detection"
            assert_eq!(oc.name, "detection");
            run_config(&scenario, oc, &mut crate::sched::SeededChooser::new(9))
                .unwrap_or_else(|f| panic!("{name}: {f}"));
            let deadlocks = matches!(name, "crossed-wait" | "figure1-mini" | "ring-3");
            let mut sim = Sim::new(&scenario, oc.verifier);
            sim.run_to_end(&mut crate::sched::SeededChooser::new(9));
            let _ = sim.verifier().check_now();
            assert_eq!(
                sim.verifier().found_deadlock(),
                deadlocks,
                "{name}: expected deadlocks={deadlocks}"
            );
        }
    }
}
