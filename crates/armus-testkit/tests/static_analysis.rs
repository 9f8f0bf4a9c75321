//! The static-analysis soundness tier: every verdict
//! `armus_pl::analysis` hands out is checked against the dynamic side.
//!
//! * **ProvedSafe** must mean it: bounded-exhaustive exploration of the
//!   PL semantics finds no deadlocked stuck state, a publish-only runtime
//!   run under the seed's schedule — the mode a proof buys — never
//!   reports, and the real avoidance checker agrees with the proof under
//!   the same schedule: it refuses no task, reports nothing, and answers
//!   every block by a check or a fast-path skip
//!   (`checks + fastpath_skips == blocks`).
//! * **DefiniteDeadlock** must mean it: the witness schedule replays
//!   through a real [`Sim`] to a runtime deadlock report the Φ/trace
//!   oracle confirms ([`armus_testkit::replay_witness`]).
//! * **Unknown** claims nothing and is only counted.
//!
//! The corpus is the same bug-heavy seeded generator as the differential
//! tier (`ARMUS_TESTKIT_SEEDS` seeds, CI 10 000); failures shrink against
//! the static checker and print the `ARMUS_TESTKIT_SEED=…` repro line.
//!
//! Compiled out under `verifier-mutation`: the planted runtime bug makes
//! replay legs fail by design.
#![cfg(not(feature = "verifier-mutation"))]

use armus_core::VerifierConfig;
use armus_pl::analysis::{analyse_state, StaticVerdict};
use armus_pl::gen::{gen_program, ProgGenConfig};
use armus_pl::is_deadlocked;
use armus_pl::semantics::explore_stuck_states;
use armus_testkit::{
    canonical_scenarios, lower_program, replay_witness, seeds_from_env, shrink, write_repro,
    Failure, Repro, Scenario, SeededChooser, Sim,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Same bug-heavy knobs as the seeded differential tier, so a healthy
/// share of the corpus actually deadlocks and the `DefiniteDeadlock` /
/// `Unknown` branches get real coverage.
fn gen_config() -> ProgGenConfig {
    ProgGenConfig { missing_adv_prob: 0.8, missing_dereg_prob: 0.8, ..ProgGenConfig::default() }
}

fn scenario_for(seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let program = gen_program(&mut rng, &gen_config());
    lower_program(&program).expect("generated programs always lower")
}

/// PL-side exploration budget for the ProvedSafe exhaustive leg. The
/// generated programs are small; when one exceeds the budget the leg is a
/// bounded spot-check and the seeded runtime legs still apply.
const EXPLORE_BUDGET: usize = 50_000;

/// Checks one scenario's verdict against the dynamic side, returning the
/// first soundness violation. Pure in `(scenario, seed)`, so `shrink`
/// can re-run it on candidates.
fn static_soundness_failure(scenario: &Scenario, seed: u64) -> Option<Failure> {
    let fail = |step: u64, message: String| {
        Some(Failure { config: "static-analysis".into(), step, message })
    };
    match analyse_state(&scenario.initial_pl_state()) {
        StaticVerdict::ProvedSafe => {
            // Leg 1: no reachable PL deadlock within the budget.
            let stuck = explore_stuck_states(scenario.initial_pl_state(), EXPLORE_BUDGET);
            if stuck.iter().any(is_deadlocked) {
                return fail(1, "ProvedSafe but the PL semantics reach a deadlock".into());
            }
            // Leg 2: a publish-only runtime run under the seed's schedule
            // never reports.
            let mut sim = Sim::new(scenario, VerifierConfig::publish_only());
            sim.run_to_end(&mut SeededChooser::new(seed));
            let _ = sim.verifier().check_now();
            if sim.verifier().found_deadlock() {
                return fail(2, "ProvedSafe but the runtime checker reported a deadlock".into());
            }
            // Leg 3: the real avoidance checker agrees with the proof under
            // the same schedule: it refuses nobody, reports nothing, and
            // answers every block by a check or a fast-path skip.
            let mut sim = Sim::new(scenario, VerifierConfig::avoidance());
            sim.run_to_end(&mut SeededChooser::new(seed));
            if let Some(i) = (0..scenario.tasks.len()).find(|&i| sim.is_failed(i)) {
                return fail(3, format!("ProvedSafe but avoidance refused task t{i}"));
            }
            if sim.verifier().found_deadlock() {
                return fail(3, "ProvedSafe but the avoidance run reported a deadlock".into());
            }
            let stats = sim.verifier().stats();
            if stats.checks + stats.fastpath_skips != stats.blocks {
                return fail(
                    3,
                    format!(
                        "avoidance accounting broke: {} checks + {} fastpath skips over {} blocks",
                        stats.checks, stats.fastpath_skips, stats.blocks
                    ),
                );
            }
            None
        }
        StaticVerdict::DefiniteDeadlock { witness } => replay_witness(scenario, &witness)
            .err()
            .and_then(|e| fail(4, format!("DefiniteDeadlock witness failed to replay: {e}"))),
        StaticVerdict::Unknown { .. } => None,
    }
}

#[test]
fn canonical_scenarios_classify_as_pinned() {
    for (name, scenario) in canonical_scenarios() {
        let verdict = analyse_state(&scenario.initial_pl_state());
        match name {
            // Deadlocking shapes: a definite verdict whose witness replays.
            "crossed-wait" | "figure1-mini" | "ring-3" => {
                let StaticVerdict::DefiniteDeadlock { witness } = verdict else {
                    panic!("{name}: expected DefiniteDeadlock, got {verdict:?}");
                };
                replay_witness(&scenario, &witness)
                    .unwrap_or_else(|e| panic!("{name}: witness does not replay: {e}"));
            }
            // Safe shapes — including the missing-participant hang, which
            // is stuck but cycle-free, so deadlock-freedom still holds.
            "figure1-fixed" | "spmd-3" | "missing-participant" => {
                assert!(verdict.is_proved_safe(), "{name}: expected ProvedSafe, got {verdict:?}");
            }
            other => panic!("unclassified canonical scenario {other}"),
        }
    }
}

#[test]
fn corpus_soundness_tier() {
    let seeds = seeds_from_env();
    let (mut safe, mut definite, mut unknown) = (0usize, 0usize, 0usize);
    for &seed in &seeds {
        let scenario = scenario_for(seed);
        if let Some(failure) = static_soundness_failure(&scenario, seed) {
            let (shrunk, failure) =
                shrink(&scenario, failure, |candidate| static_soundness_failure(candidate, seed));
            let schedule_len = shrunk.total_ops() as u64;
            let repro = Repro { scenario: shrunk, failure, seed, schedule_len };
            panic!("static soundness tier failed\n{}", write_repro(&repro));
        }
        match analyse_state(&scenario.initial_pl_state()) {
            StaticVerdict::ProvedSafe => safe += 1,
            StaticVerdict::DefiniteDeadlock { .. } => definite += 1,
            StaticVerdict::Unknown { .. } => unknown += 1,
        }
    }
    eprintln!(
        "static corpus over {} seeds: {safe} proved safe, {definite} definite deadlocks, \
         {unknown} unknown",
        seeds.len()
    );
    // Precision guard: the tier is only meaningful while the analysis
    // keeps deciding a healthy share of the corpus in *both* directions.
    if seeds.len() >= 100 {
        assert!(
            safe * 10 >= seeds.len(),
            "only {safe}/{} proved safe — analysis precision regressed?",
            seeds.len()
        );
        assert!(
            definite * 10 >= seeds.len(),
            "only {definite}/{} definite deadlocks — witness search regressed?",
            seeds.len()
        );
    }
}
