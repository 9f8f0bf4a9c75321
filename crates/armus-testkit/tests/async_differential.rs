//! The async front-end's differential tiers:
//!
//! * **oracle-under-futures** — the full differential oracle (alignment,
//!   soundness, completeness, model agreement, incremental lockstep) runs
//!   verbatim with every `Await` op driven through an
//!   [`armus_async::AwaitPhase`] future instead of the sync poll seam.
//! * **front-end byte-identity** — the same scenario is stepped through
//!   both front-ends in lockstep under the same schedule, and every
//!   schedulable-option set, every emitted event, every deadlock report,
//!   and the final registry snapshot must be *identical byte for byte*
//!   (after renaming runtime ids into the shared task/phaser index space —
//!   the two runs necessarily draw different fresh ids).
//!
//! Compiled out under `verifier-mutation` like the sync tiers: a planted
//! verifier bug fails them by design.
#![cfg(not(feature = "verifier-mutation"))]

use std::collections::HashMap;

use armus_core::{
    CycleWitness, DeadlockReport, PhaserId, Resource, Snapshot, TaskId, VerifierConfig,
};
use armus_pl::gen::{gen_program, ProgGenConfig};
use armus_testkit::{
    canonical_scenarios, lower_program, run_seeded_with_api, Chooser, Scenario, SeededChooser, Sim,
    SimEvent, WaitApi,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Same bug-heavy generator tuning as the sync seeded tier, so the async
/// tiers see the same mix of deadlocking and clean programs.
fn scenario_for(seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let config = ProgGenConfig {
        missing_adv_prob: 0.8,
        missing_dereg_prob: 0.8,
        ..ProgGenConfig::default()
    };
    let program = gen_program(&mut rng, &config);
    lower_program(&program).expect("generated programs always lower")
}

/// Seeds for the async tiers: capped well below the sync tier's CI count —
/// each seed here runs the scenario under every oracle config *twice over*
/// (once per front-end in the identity test).
fn async_seeds() -> Vec<u64> {
    let count: u64 = std::env::var("ARMUS_TESTKIT_ASYNC_SEEDS")
        .ok()
        .map(|v| v.parse().expect("ARMUS_TESTKIT_ASYNC_SEEDS must be a u64"))
        .unwrap_or(100);
    (0..count).collect()
}

#[test]
fn async_driver_passes_the_full_oracle() {
    for (name, scenario) in canonical_scenarios() {
        for seed in 0..16 {
            if let Err(f) = run_seeded_with_api(&scenario, seed, WaitApi::Future) {
                panic!("{name} seed {seed} under the async front-end: {f}");
            }
        }
    }
    for seed in async_seeds() {
        let scenario = scenario_for(seed);
        if let Err(f) = run_seeded_with_api(&scenario, seed, WaitApi::Future) {
            panic!(
                "generated seed {seed} under the async front-end: {f}\n\
                 replay: ARMUS_TESTKIT_SEED={seed} cargo test -p armus-testkit async_driver"
            );
        }
    }
}

/// Rename maps from one run's fresh runtime ids into the scenario's
/// task/phaser index space, the shared vocabulary both runs compare in.
struct Rename {
    tasks: HashMap<TaskId, u64>,
    phasers: HashMap<PhaserId, u64>,
}

impl Rename {
    fn of(sim: &Sim, scenario: &Scenario) -> Rename {
        Rename {
            tasks: (0..scenario.tasks.len()).map(|i| (sim.task_id(i), i as u64)).collect(),
            phasers: (0..scenario.phasers).map(|p| (sim.phaser_id(p), p as u64)).collect(),
        }
    }

    fn task(&self, t: &TaskId) -> TaskId {
        TaskId(self.tasks[t])
    }

    fn resource(&self, r: &Resource) -> Resource {
        Resource::new(PhaserId(self.phasers[&r.phaser]), r.phase)
    }

    fn report(&self, r: &DeadlockReport) -> DeadlockReport {
        DeadlockReport {
            tasks: r.tasks.iter().map(|t| self.task(t)).collect(),
            resources: r.resources.iter().map(|x| self.resource(x)).collect(),
            model: r.model,
            witness: match &r.witness {
                CycleWitness::Tasks(c) => {
                    CycleWitness::Tasks(c.iter().map(|t| self.task(t)).collect())
                }
                CycleWitness::Resources(c) => {
                    CycleWitness::Resources(c.iter().map(|x| self.resource(x)).collect())
                }
            },
            task_epochs: r.task_epochs.iter().map(|(t, e)| (self.task(t), *e)).collect(),
        }
    }

    fn snapshot(&self, snap: &Snapshot) -> String {
        let mut tasks: Vec<String> = snap
            .tasks
            .iter()
            .map(|info| {
                let waits: Vec<Resource> = info.waits.iter().map(|r| self.resource(r)).collect();
                let mut registered: Vec<(u64, u64)> = info
                    .registered
                    .iter()
                    .map(|reg| (self.phasers[&reg.phaser], reg.local_phase))
                    .collect();
                registered.sort_unstable();
                format!(
                    "{:?} waits {:?} registered {:?} epoch {}",
                    self.task(&info.task),
                    waits,
                    registered,
                    info.epoch
                )
            })
            .collect();
        tasks.sort();
        tasks.join("; ")
    }

    /// The comparable form of an event: indices pass through; reports are
    /// renamed and rendered field by field (`Debug` covers every one).
    fn event(&self, e: &SimEvent) -> String {
        match e {
            SimEvent::Completed(..) | SimEvent::BlockedAt(..) => format!("{e:?}"),
            SimEvent::Refused { task, phaser, report, initiated } => format!(
                "Refused {{ task: {task}, phaser: {phaser}, initiated: {initiated}, report: {:?} }}",
                self.report(report)
            ),
        }
    }
}

/// Steps the scenario through both front-ends under the same schedule and
/// requires identical options, events, reports, verdicts, and registry.
fn assert_front_ends_identical(
    name: &str,
    scenario: &Scenario,
    verifier: VerifierConfig,
    seed: u64,
) {
    let mut sync_sim = Sim::new_with_api(scenario, verifier, WaitApi::Seam);
    let mut async_sim = Sim::new_with_api(scenario, verifier, WaitApi::Future);
    let sync_ids = Rename::of(&sync_sim, scenario);
    let async_ids = Rename::of(&async_sim, scenario);
    let mut sync_chooser = SeededChooser::new(seed);
    let mut async_chooser = SeededChooser::new(seed);
    let at = |clock: u64| format!("{name} seed {seed} step {clock}");

    loop {
        let sync_options = sync_sim.options();
        let async_options = async_sim.options();
        assert_eq!(sync_options, async_options, "{}: schedulable options", at(sync_sim.clock));
        if sync_options.is_empty() {
            break;
        }
        let pick = sync_chooser.choose(sync_options.len());
        assert_eq!(pick, async_chooser.choose(async_options.len()), "choosers are pure");
        let sync_event = sync_sim.step(sync_options[pick]);
        let async_event = async_sim.step(async_options[pick]);
        assert_eq!(
            sync_ids.event(&sync_event),
            async_ids.event(&async_event),
            "{}: event",
            at(sync_sim.clock)
        );
        // The registry the checker sees must agree at *every* step, not
        // just at quiescence — an avoidance decision depends on it.
        assert_eq!(
            sync_ids.snapshot(&sync_sim.verifier().local_snapshot()),
            async_ids.snapshot(&async_sim.verifier().local_snapshot()),
            "{}: registry snapshot",
            at(sync_sim.clock)
        );
    }

    assert_eq!(sync_sim.outcome(), async_sim.outcome(), "{name} seed {seed}: outcome");
    // Detection-style sample on the final state, then the verdict and the
    // accumulated reports must match byte for byte.
    let sync_fresh = sync_sim.verifier().check_now().map(|r| sync_ids.report(&r));
    let async_fresh = async_sim.verifier().check_now().map(|r| async_ids.report(&r));
    assert_eq!(sync_fresh, async_fresh, "{name} seed {seed}: final check_now report");
    assert_eq!(
        sync_sim.verifier().found_deadlock(),
        async_sim.verifier().found_deadlock(),
        "{name} seed {seed}: found_deadlock"
    );
    let sync_reports: Vec<DeadlockReport> =
        sync_sim.verifier().take_reports().iter().map(|r| sync_ids.report(r)).collect();
    let async_reports: Vec<DeadlockReport> =
        async_sim.verifier().take_reports().iter().map(|r| async_ids.report(r)).collect();
    assert_eq!(sync_reports, async_reports, "{name} seed {seed}: accumulated reports");
}

#[test]
fn front_ends_are_byte_identical_on_canonical_scenarios() {
    for (name, scenario) in canonical_scenarios() {
        for seed in 0..16 {
            for verifier in [VerifierConfig::avoidance(), VerifierConfig::publish_only()] {
                assert_front_ends_identical(name, &scenario, verifier, seed);
            }
        }
    }
}

#[test]
fn front_ends_are_byte_identical_on_generated_programs() {
    for seed in async_seeds() {
        let scenario = scenario_for(seed);
        for verifier in [VerifierConfig::avoidance(), VerifierConfig::publish_only()] {
            assert_front_ends_identical("generated", &scenario, verifier, seed);
        }
    }
}
