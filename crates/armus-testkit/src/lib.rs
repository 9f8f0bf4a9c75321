//! # armus-testkit
//!
//! A deterministic simulation testkit for the Armus verifier: replay
//! millions of seeded interleavings of barrier programs — with **no real
//! concurrency and no sleeps** — and differentially check the run-time
//! [`armus_core::Verifier`] against the `armus-pl` formal model on every
//! step.
//!
//! ## Architecture
//!
//! * [`scenario`] — the scenario DSL: phasers, tasks, initial
//!   memberships and straight-line op scripts, mapping 1:1 onto PL's
//!   `skip`/`adv`/`await`/`dereg` core. A scenario denotes both a runtime
//!   program and a PL state.
//! * [`lower`] — lowers `armus-pl` programs (notably the seeded
//!   generator `armus_pl::gen::gen_program`) into scenarios.
//! * [`sim`] — the virtual-time cooperative scheduler: multiplexes task
//!   identities over one OS thread via `armus_sync::ctx::scoped` and
//!   drives blocking through the `Phaser::begin_await`/`poll_await` seam,
//!   so the chooser decides the exact interleaving and every run replays
//!   bit-for-bit from its seed.
//! * [`sched`] — choosers: seeded-random, scripted replay, and the
//!   depth-first bounded-exhaustive enumerator.
//! * [`oracle`] — the differential oracle: avoidance (fast path on and
//!   off) and detection-style sampling (default and tiny-journal
//!   tunings) versus the PL semantics in lockstep;
//!   soundness, completeness, alignment, and model-agreement invariants
//!   per step.
//! * [`replay`] — replays `armus_pl::analysis` deadlock witnesses through
//!   a publish-only [`sim::Sim`] and demands the runtime checker report
//!   the predicted deadlock (the `DefiniteDeadlock` soundness leg).
//! * [`mod@shrink`] — greedy failure minimisation plus the
//!   `ARMUS_TESTKIT_SEED=… cargo test -p armus-testkit seeded` repro line.
//! * [`dist`] — scaffolding for the distributed layer's tests, kept out
//!   of the product crate: [`dist::ChaosStore`], the one fault-injecting
//!   [`armus_dist::Store`] wrapper (seeded drop / duplicate / reorder of
//!   delta publishes plus a switchable whole-store outage), and
//!   [`dist::StoredProcess`], the `armus-stored` child-process glue.
//!   `armus-dist`'s integration tests and the `distributed_detection`
//!   example dev-depend on this crate for them; the scheduler above does
//!   not drive them yet (ROADMAP item 9(c)).
//!
//! ## Seed-replay workflow
//!
//! The seeded tier runs `ARMUS_TESTKIT_SEEDS` (default 400) seeds; CI
//! runs 10 000. On failure the harness shrinks the scenario, writes the
//! repro to `target/testkit-repro.txt`, and panics with a one-liner of
//! the form:
//!
//! ```text
//! ARMUS_TESTKIT_SEED=1234 cargo test -p armus-testkit seeded -- --nocapture
//! ```
//!
//! Re-running with that environment variable replays exactly the failing
//! seed (generation, lowering, and every scheduling choice are pure
//! functions of it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod lower;
pub mod oracle;
pub mod replay;
pub mod scenario;
pub mod sched;
pub mod shrink;
pub mod sim;

pub use lower::{lower_program, LowerError};
pub use oracle::{
    oracle_configs, run_all, run_config, run_config_with_api, run_seeded, run_seeded_with_api,
    Failure, OracleConfig,
};
pub use replay::replay_witness;
pub use scenario::{canonical_scenarios, Op, PhaserIx, Scenario, TaskDef};
pub use sched::{explore_all, Chooser, Exploration, ScriptedChooser, SeededChooser};
pub use shrink::{shrink, Repro};
pub use sim::{Sim, SimEvent, SimOutcome, SimStep, StepKind, WaitApi};

use std::path::PathBuf;

/// Seeds the seeded-random tier should run: a single seed when
/// `ARMUS_TESTKIT_SEED` is set (replay), else `0..ARMUS_TESTKIT_SEEDS`
/// (default `0..400`; CI sets 10 000).
pub fn seeds_from_env() -> Vec<u64> {
    if let Ok(seed) = std::env::var("ARMUS_TESTKIT_SEED") {
        let seed = seed.parse().expect("ARMUS_TESTKIT_SEED must be a u64");
        return vec![seed];
    }
    let count: u64 = std::env::var("ARMUS_TESTKIT_SEEDS")
        .ok()
        .map(|v| v.parse().expect("ARMUS_TESTKIT_SEEDS must be a u64"))
        .unwrap_or(400);
    (0..count).collect()
}

/// Where repro files land: `target/testkit-repro.txt` at the workspace
/// root (CI uploads it as an artifact on failure).
pub fn repro_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/testkit-repro.txt")
}

/// Writes a shrunk repro to [`repro_path`] (best-effort) and returns the
/// rendered text for the panic message.
pub fn write_repro(repro: &shrink::Repro) -> String {
    let text = repro.to_string();
    let path = repro_path();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(&path, &text);
    text
}
