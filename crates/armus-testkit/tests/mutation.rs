//! Proof that the differential oracle catches real verifier bugs: built
//! with `--features verifier-mutation`, armus-core carries two deliberate
//! defects. The avoidance fast path is off by one (cardinality bound 3
//! instead of 2), which silently admits every two-resource deadlock
//! cycle. And the Pearce–Kelly order maintenance skips the
//! affected-region forward search on adjacent-label violations (label gap
//! exactly 1), committing edges that close a cycle — which makes the
//! incremental `check_full` answer "no cycle" on exactly the crossed-wait
//! shape. The oracle must flag both, and the shrinker must reduce each
//! failure to a hand-readable scenario with a short replayable schedule.
//!
//! Run with: `cargo test -p armus-testkit --features verifier-mutation`
//! (the regular tiers are compiled out under the feature — they would
//! fail by design).
#![cfg(feature = "verifier-mutation")]

use armus_pl::gen::{gen_program, ProgGenConfig};
use armus_testkit::{
    canonical_scenarios, lower_program, oracle_configs, run_config, run_seeded, shrink,
    write_repro, Repro, SeededChooser, Sim,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The canonical two-resource cycle the mutation hides.
fn crossed_wait() -> armus_testkit::Scenario {
    canonical_scenarios().into_iter().find(|(n, _)| *n == "crossed-wait").unwrap().1
}

#[test]
fn oracle_catches_the_planted_bug_on_the_crossed_wait() {
    let scenario = crossed_wait();
    let failure = run_seeded(&scenario, 0)
        .expect_err("the mutated fast path admits the two-resource cycle; the oracle must notice");
    assert_eq!(failure.config, "avoidance", "the bug lives in the fast path: {failure}");
    assert!(failure.message.contains("admitted a deadlock"), "unexpected failure shape: {failure}");
    // The no-fastpath config is immune: the mutation is *in* the fast
    // path, so the full-check configuration must still pass.
    let oc = oracle_configs().into_iter().find(|c| c.name == "avoidance-nofastpath").unwrap();
    run_config(&scenario, &oc, &mut SeededChooser::new(0))
        .expect("the mutation must not affect the slow path");
}

/// Runs only the "detection" config: per-step lockstep of the follower
/// engine (where the planted order-maintenance bug lives) without the
/// avoidance configs, whose own planted fast-path bug would fire first.
fn run_detection(
    scenario: &armus_testkit::Scenario,
    seed: u64,
) -> Result<(), armus_testkit::Failure> {
    let oc = oracle_configs().into_iter().find(|c| c.name == "detection").unwrap();
    run_config(scenario, &oc, &mut SeededChooser::new(seed))
}

#[test]
fn lockstep_catches_the_planted_order_maintenance_bug() {
    // The crossed wait inserts the two WFG edges with label gap exactly 1
    // — the edge class whose forward search the mutation skips — so the
    // order answers "no cycle" while the canonical checker sees the
    // 2-cycle. The lockstep is two-way (order vs the canonical checker on
    // the verifier's own snapshot), and that comparison alone must notice:
    // the canonical checker shares no state with the mutated order.
    let failure = run_detection(&crossed_wait(), 0)
        .expect_err("the mutated order maintenance hides the crossed-wait cycle");
    assert_eq!(failure.config, "detection", "{failure}");
    assert!(
        failure.message.contains("check_full diverged"),
        "the lockstep must pin the diverging incremental check: {failure}"
    );
}

#[test]
fn seed_scan_finds_the_order_bug_and_shrinks_below_six_steps() {
    // Scan generated scenarios under the detection config only: every
    // failure there is the order-maintenance bug (the cardinality
    // mutation lives in the avoidance fast path, which publish-only
    // blocks never run).
    let cfg = ProgGenConfig {
        missing_adv_prob: 0.8,
        missing_dereg_prob: 0.8,
        ..ProgGenConfig::default()
    };
    let mut found = None;
    for seed in 0..500u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = gen_program(&mut rng, &cfg);
        let scenario = lower_program(&program).expect("generated programs lower");
        if let Err(failure) = run_detection(&scenario, seed) {
            found = Some((scenario, seed, failure));
            break;
        }
    }
    let (scenario, seed, failure) =
        found.expect("500 buggy-generator seeds must trip the planted order bug");
    assert!(failure.message.contains("check_full diverged"), "{failure}");

    let (shrunk, failure) =
        shrink(&scenario, failure, |candidate| run_detection(candidate, seed).err());
    assert!(failure.message.contains("check_full diverged"), "{failure}");

    // Replay the shrunk scenario and count the schedule: the acceptance
    // bar for this planted bug is a ≤ 6-step repro (the minimal crossed
    // wait: two tasks arriving and parking).
    let oc = oracle_configs().into_iter().find(|c| c.name == failure.config).unwrap();
    let mut sim = Sim::new(&shrunk, oc.verifier);
    let (_, steps) = sim.run_to_end(&mut SeededChooser::new(seed));
    assert!(steps <= 6, "shrunk schedule takes {steps} steps (> 6)");
    assert!(shrunk.total_ops() <= 6, "shrunk to {} ops", shrunk.total_ops());

    let repro = Repro { scenario: shrunk, failure, seed, schedule_len: steps };
    let text = write_repro(&repro);
    assert!(text.contains("ARMUS_TESTKIT_SEED="));
    println!("shrunk order-bug repro:\n{text}");
}

#[test]
fn seed_scan_finds_the_bug_and_shrinks_it_below_ten_steps() {
    // Scan generated scenarios the way the seeded tier does; the planted
    // bug must surface quickly, and the shrunk repro must be tiny.
    let cfg = ProgGenConfig {
        missing_adv_prob: 0.8,
        missing_dereg_prob: 0.8,
        ..ProgGenConfig::default()
    };
    let mut found = None;
    for seed in 0..500u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = gen_program(&mut rng, &cfg);
        let scenario = lower_program(&program).expect("generated programs lower");
        if let Err(failure) = run_seeded(&scenario, seed) {
            found = Some((scenario, seed, failure));
            break;
        }
    }
    let (scenario, seed, failure) =
        found.expect("500 buggy-generator seeds must trip the planted mutation");

    let (shrunk, failure) =
        shrink(&scenario, failure, |candidate| run_seeded(candidate, seed).err());

    // The minimal shape of a two-resource cycle: two tasks, two phasers,
    // two ops each.
    assert!(shrunk.tasks.len() <= 3, "shrunk to {} tasks", shrunk.tasks.len());
    assert!(shrunk.total_ops() <= 6, "shrunk to {} ops", shrunk.total_ops());

    // Replay the shrunk scenario under the failing config and count the
    // schedule: the acceptance bar is a ≤ 10-step repro.
    let oc = oracle_configs().into_iter().find(|c| c.name == failure.config).unwrap();
    let mut sim = Sim::new(&shrunk, oc.verifier);
    let (_, steps) = sim.run_to_end(&mut SeededChooser::new(seed));
    assert!(steps <= 10, "shrunk schedule takes {steps} steps (> 10)");

    let repro = Repro { scenario: shrunk, failure, seed, schedule_len: steps };
    // Exercise the repro path end to end (this is what CI uploads when a
    // *real* bug slips through).
    let text = write_repro(&repro);
    assert!(text.contains("ARMUS_TESTKIT_SEED="));
    println!("shrunk repro:\n{text}");
}
