//! The adaptive graph-model selection at work (paper §5.1, Table 3): the
//! same verifier, confronted with a many-tasks/one-barrier program and a
//! few-tasks/many-barriers program, picks a different model for each —
//! and the edge counts show why.
//!
//! ```text
//! cargo run --release --example adaptive_models
//! ```

use armus::core::{adaptive, sg, wfg, ModelChoice, VerifierConfig, DEFAULT_SG_THRESHOLD};
use armus::prelude::*;
use armus::workloads::course;
use armus::workloads::Scale;

fn run_with(model: ModelChoice, bench: &course::CourseBench) -> (f64, u64) {
    // Every block checked, as in the paper: the in-edge fast path would
    // leave nearly every block of these programs unchecked.
    let rt = Runtime::new(
        armus::sync::RuntimeConfig::unchecked()
            .with_verifier(VerifierConfig::avoidance().with_fastpath(false).with_model(model)),
    );
    let t0 = std::time::Instant::now();
    let got = (bench.run)(&rt, Scale::Quick);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(got, (bench.expected)(Scale::Quick));
    let stats = rt.stats();
    (dt, stats.edges_sum.checked_div(stats.checks).unwrap_or(0))
}

fn main() {
    // Part 1: static comparison on one captured snapshot. Build the
    // blocked-state of "many tasks, one barrier" by hand and compare.
    println!("— static: one snapshot, two models —");
    use armus::core::{BlockedInfo, Registration, Resource, Snapshot};
    let one_barrier = Snapshot::from_tasks(
        (0..64u64)
            .map(|t| {
                BlockedInfo::new(
                    TaskId(t),
                    vec![Resource::new(PhaserId(1), 1)],
                    vec![
                        Registration::new(PhaserId(1), 1),
                        // Everyone also lags a join phaser, PS-style.
                        Registration::new(PhaserId(2), 0),
                    ],
                )
            })
            .chain(std::iter::once(BlockedInfo::new(
                TaskId(64),
                vec![Resource::new(PhaserId(2), 1)],
                vec![Registration::new(PhaserId(2), 1), Registration::new(PhaserId(1), 0)],
            )))
            .collect(),
    );
    let w = wfg::wfg(&one_barrier);
    let s = sg::sg(&one_barrier);
    let built = adaptive::build(&one_barrier, ModelChoice::Auto, DEFAULT_SG_THRESHOLD);
    println!(
        "many tasks / 2 events : WFG {} edges, SG {} edges → Auto picked {}",
        w.edge_count(),
        s.edge_count(),
        built.model
    );

    // Part 2: dynamic comparison on the course programs of §6.3.
    println!("\n— dynamic: §6.3 programs under avoidance —");
    println!(
        "{:<6} {:>12} {:>12} {:>12}   {:>16}",
        "bench", "Auto (s)", "SG (s)", "WFG (s)", "avg edges (A/S/W)"
    );
    for bench in course::all() {
        let (t_auto, e_auto) = run_with(ModelChoice::Auto, &bench);
        let (t_sg, e_sg) = run_with(ModelChoice::FixedSg, &bench);
        let (t_wfg, e_wfg) = run_with(ModelChoice::FixedWfg, &bench);
        println!(
            "{:<6} {:>12.4} {:>12.4} {:>12.4}   {:>5}/{:<5}/{:<5}",
            bench.name, t_auto, t_sg, t_wfg, e_auto, e_sg, e_wfg
        );
    }
    println!("\nThe shape to look for (paper Table 3): Auto tracks the best fixed");
    println!("model on every row; WFG explodes on PS/BFS, SG on FI/FR.");
}
