//! The `analysis` experiment: precision and cost of the static deadlock
//! analysis (`armus_pl::analysis`) over seeded program corpora.
//!
//! Two corpora bracket the deployment spectrum:
//!
//! * **default** — the generator's default bug knobs (30% missing-adv /
//!   missing-dereg), i.e. mostly-correct code;
//! * **bug-heavy** — the testkit's soundness-tier knobs (80%/80%), i.e.
//!   code where most programs really deadlock.
//!
//! Per corpus the experiment records how the verdict lattice splits
//! (`ProvedSafe` / `DefiniteDeadlock` / `Unknown`), how many deadlock
//! witnesses re-confirm against the PL semantics by direct schedule
//! replay, and the per-program wall-clock cost of the analysis — the
//! number that must stay negligible for "analyse before you run, skip
//! avoidance checks if proved safe" to be a net win.
//!
//! Generation is a pure function of the seed, so the precision fractions
//! are deterministic per corpus size and CI can gate on them near-exactly
//! (`BENCH_analysis.json`).

use std::time::Instant;

use armus_pl::analysis::{analyse_program, StaticVerdict};
use armus_pl::gen::{gen_program, ProgGenConfig};
use armus_pl::semantics::{apply, enabled};
use armus_pl::{is_deadlocked, State};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

/// One corpus's precision and cost numbers.
#[derive(Clone, Debug, Serialize)]
pub struct AnalysisCell {
    /// Corpus name (`default` or `bug-heavy`).
    pub corpus: String,
    /// Programs analysed (seeds `0..programs`).
    pub programs: usize,
    /// Programs proved deadlock-free.
    pub proved_safe: usize,
    /// Programs with a validated deadlock witness.
    pub definite_deadlock: usize,
    /// Programs the analysis declined to classify.
    pub unknown: usize,
    /// `proved_safe / programs`.
    pub proved_safe_fraction: f64,
    /// `definite_deadlock / programs`.
    pub definite_fraction: f64,
    /// `unknown / programs`.
    pub unknown_fraction: f64,
    /// Witnesses whose schedule replays through the PL semantics to a
    /// state [`armus_pl::is_deadlocked`] confirms — must equal
    /// `definite_deadlock` (the analysis validates before it claims).
    pub witnesses_confirmed: usize,
    /// Mean analysis cost per program, microseconds.
    pub mean_us: f64,
    /// 95th-percentile analysis cost, microseconds.
    pub p95_us: f64,
    /// Worst-case analysis cost, microseconds.
    pub max_us: f64,
}

/// Replays a witness schedule through the PL semantics and confirms the
/// final state is a real deadlock — the bench-side re-validation that
/// keeps `witnesses_confirmed` an independent count rather than an echo
/// of the verdict.
fn witness_confirms(program: &[armus_pl::Instr], witness: &armus_pl::DeadlockWitness) -> bool {
    let mut st = State::initial(program.to_vec());
    for tr in &witness.schedule {
        if !enabled(&st).contains(tr) {
            return false;
        }
        st = apply(&st, tr);
    }
    is_deadlocked(&st)
}

/// Analyses `programs` seeded programs drawn with `cfg`, timing each run.
pub fn run_corpus(corpus: &str, programs: usize, cfg: &ProgGenConfig) -> AnalysisCell {
    let (mut safe, mut definite, mut unknown, mut confirmed) = (0usize, 0usize, 0usize, 0usize);
    let mut costs_us: Vec<f64> = Vec::with_capacity(programs);
    for seed in 0..programs as u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = gen_program(&mut rng, cfg);
        let start = Instant::now();
        let verdict = analyse_program(&program);
        costs_us.push(start.elapsed().as_secs_f64() * 1e6);
        match verdict {
            StaticVerdict::ProvedSafe => safe += 1,
            StaticVerdict::DefiniteDeadlock { witness } => {
                definite += 1;
                if witness_confirms(&program, &witness) {
                    confirmed += 1;
                }
            }
            StaticVerdict::Unknown { .. } => unknown += 1,
        }
    }
    costs_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = programs.max(1) as f64;
    AnalysisCell {
        corpus: corpus.to_string(),
        programs,
        proved_safe: safe,
        definite_deadlock: definite,
        unknown,
        proved_safe_fraction: safe as f64 / n,
        definite_fraction: definite as f64 / n,
        unknown_fraction: unknown as f64 / n,
        witnesses_confirmed: confirmed,
        mean_us: costs_us.iter().sum::<f64>() / n,
        p95_us: costs_us.get(programs.saturating_sub(1) * 95 / 100).copied().unwrap_or(0.0),
        max_us: costs_us.last().copied().unwrap_or(0.0),
    }
}

/// Runs the experiment over both corpora: one cell each, in the order
/// `default`, `bug-heavy` (the `cells` of `BENCH_analysis.json`).
pub fn run(programs: usize) -> Vec<AnalysisCell> {
    let corpora = [
        ("default", ProgGenConfig::default()),
        (
            "bug-heavy",
            ProgGenConfig {
                missing_adv_prob: 0.8,
                missing_dereg_prob: 0.8,
                ..ProgGenConfig::default()
            },
        ),
    ];
    corpora
        .iter()
        .map(|(name, cfg)| {
            eprintln!("  [analysis] corpus = {name}");
            run_corpus(name, programs, cfg)
        })
        .collect()
}

/// Prints the results as a table.
pub fn print_table(cells: &[AnalysisCell]) {
    println!("\nStatic analysis: verdict precision and per-program cost.");
    println!(
        "  {:>10} {:>9} {:>8} {:>9} {:>8} {:>10} {:>9} {:>9} {:>9}",
        "corpus",
        "programs",
        "safe",
        "definite",
        "unknown",
        "confirmed",
        "mean µs",
        "p95 µs",
        "max µs"
    );
    for c in cells {
        println!(
            "  {:>10} {:>9} {:>7.1}% {:>8.1}% {:>7.1}% {:>10} {:>9.1} {:>9.1} {:>9.1}",
            c.corpus,
            c.programs,
            c.proved_safe_fraction * 100.0,
            c.definite_fraction * 100.0,
            c.unknown_fraction * 100.0,
            c.witnesses_confirmed,
            c.mean_us,
            c.p95_us,
            c.max_us
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpora_split_the_lattice_and_confirm_every_witness() {
        let cells = run(120);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert_eq!(c.proved_safe + c.definite_deadlock + c.unknown, c.programs);
            assert_eq!(
                c.witnesses_confirmed, c.definite_deadlock,
                "{}: every witness must re-confirm by PL replay",
                c.corpus
            );
            assert!(c.proved_safe > 0, "{}: some programs prove safe", c.corpus);
            assert!(c.max_us >= c.p95_us && c.p95_us >= 0.0);
        }
        // The bug-heavy corpus must find strictly more deadlocks.
        assert!(cells[1].definite_deadlock > cells[0].definite_deadlock);
        print_table(&cells);
    }

    #[test]
    fn fractions_are_deterministic_per_corpus_size() {
        let a = run_corpus("default", 60, &ProgGenConfig::default());
        let b = run_corpus("default", 60, &ProgGenConfig::default());
        assert_eq!(a.proved_safe, b.proved_safe);
        assert_eq!(a.definite_deadlock, b.definite_deadlock);
        assert_eq!(a.unknown, b.unknown);
    }
}
