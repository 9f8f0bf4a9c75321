//! The §6 experiments: one function per table/figure of the paper.
//!
//! Absolute numbers differ from the paper's 64-core Opteron testbed — the
//! point of reproduction is the *shape*: detection overhead small and flat,
//! avoidance overhead growing with task count, distributed detection free,
//! and the adaptive model at least as good as the best fixed model
//! (dramatically better than the worst).

use std::sync::Arc;
use std::time::{Duration, Instant};

use armus_core::{adaptive, DeadlockReport, ModelChoice, VerifierConfig, DEFAULT_SG_THRESHOLD};
use armus_dist::SiteConfig;
use armus_sync::{Runtime, RuntimeConfig};
use armus_workloads::course::{self, CourseBench};
use armus_workloads::deadlocky;
use armus_workloads::dist;
use armus_workloads::harness::{overhead, percent, Measurement};
use armus_workloads::kernels::{self, Kernel};
use armus_workloads::Scale;
use serde::Serialize;

use crate::synth::{self, SynthShape};

/// Verification mode under measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Mode {
    /// No verification (the baseline).
    Unchecked,
    /// Periodic detection.
    Detection,
    /// Pre-block avoidance.
    Avoidance,
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Problem sizes.
    pub scale: Scale,
    /// Kept samples per cell (the paper keeps 30; the default here is
    /// laptop-sized).
    pub samples: usize,
    /// Thread counts for the kernel grid (paper: 2..64).
    pub threads: Vec<usize>,
    /// Sites for the distributed runs.
    pub sites: usize,
    /// Detection period (paper: 100 ms local / 200 ms distributed).
    pub detection_period: Duration,
}

impl Config {
    /// Minutes-scale configuration.
    pub fn quick() -> Config {
        Config {
            scale: Scale::Quick,
            samples: 3,
            threads: vec![2, 4, 8],
            sites: 2,
            detection_period: Duration::from_millis(20),
        }
    }

    /// The configuration used for EXPERIMENTS.md.
    pub fn full() -> Config {
        Config {
            scale: Scale::Full,
            samples: 5,
            threads: vec![2, 4, 8, 16, 32, 64],
            sites: 4,
            detection_period: Duration::from_millis(100),
        }
    }
}

/// The runtime every paper experiment measures in `mode`. Avoidance runs
/// with the in-edge fast path off: the paper's Armus checks every blocking
/// operation, so Tables 1/2 pay for those checks and Table 3 averages over
/// them (with the fast path on, nearly every block of these programs goes
/// unchecked).
fn runtime_for(mode: Mode, model: ModelChoice, period: Duration) -> Arc<Runtime> {
    let vc = match mode {
        Mode::Unchecked => VerifierConfig::disabled(),
        Mode::Detection => VerifierConfig::detection_every(period),
        Mode::Avoidance => VerifierConfig::avoidance().with_fastpath(false),
    }
    .with_model(model);
    Runtime::new(RuntimeConfig::unchecked().with_verifier(vc))
}

/// Demonstrates the tool end to end: the Figure 1 deadlock is detected
/// and a crossed wait is avoided.
pub fn sanity() {
    /// The report that names `tasks` tasks, once it is there.
    fn await_report(rt: &Runtime, tasks: usize) -> Option<DeadlockReport> {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Some(whole) = rt.take_reports().into_iter().find(|r| r.tasks.len() == tasks) {
                return Some(whole);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    }

    println!("\nSanity: Figure 1 deadlock under detection…");
    let rt = runtime_for(Mode::Detection, ModelChoice::Auto, Duration::from_millis(10));
    const WORKERS: usize = 3;
    deadlocky::figure1(&rt, WORKERS);
    // The monitor reports at the event that closes a cycle, and the parent
    // is deadlocked with the first worker that blocks: on a slow host it
    // tells of the parent and the workers blocked so far before it tells
    // of them all. Figure 1's deadlock is the report that names them all.
    if let Some(report) = await_report(&rt, WORKERS + 1) {
        println!("  detected: {report}");
    }
    rt.shutdown();

    println!("Sanity: crossed waits under avoidance…");
    let rt = Runtime::avoidance();
    deadlocky::crossed_pair(&rt);
    if let Some(report) = await_report(&rt, 2) {
        println!("  avoided: {report}");
    }
}

// ---------------------------------------------------------------------------
// Tables 1 & 2 + Figure 6: the kernel grid.
// ---------------------------------------------------------------------------

/// One (kernel, thread-count) cell with all three modes measured.
#[derive(Clone, Debug, Serialize)]
pub struct KernelCell {
    /// Kernel name.
    pub kernel: String,
    /// Worker count.
    pub threads: usize,
    /// Baseline times.
    pub unchecked: Measurement,
    /// Detection-mode times.
    pub detection: Measurement,
    /// Avoidance-mode times.
    pub avoidance: Measurement,
}

fn measure_kernel(kernel: &Kernel, threads: usize, mode: Mode, cfg: &Config) -> Measurement {
    let scale = cfg.scale;
    let period = cfg.detection_period;
    Measurement::take(cfg.samples, || {
        let rt = runtime_for(mode, ModelChoice::Auto, period);
        std::hint::black_box((kernel.run)(&rt, threads, scale));
        rt.shutdown();
    })
}

/// Measures every kernel × thread count × mode (shared by Table 1,
/// Table 2, and Figure 6).
pub fn kernel_grid(cfg: &Config) -> Vec<KernelCell> {
    let mut out = Vec::new();
    for kernel in kernels::all() {
        // Output validation, once per kernel (paper: "all benchmarks check
        // the validity of the produced output").
        assert!(
            kernels::validate(
                &kernel,
                {
                    let rt = Runtime::unchecked();
                    (kernel.run)(&rt, cfg.threads[0], cfg.scale)
                },
                cfg.scale
            ),
            "{} failed output validation",
            kernel.name
        );
        for &threads in &cfg.threads {
            eprintln!("  [kernels] {} × {threads}", kernel.name);
            out.push(KernelCell {
                kernel: kernel.name.to_string(),
                threads,
                unchecked: measure_kernel(&kernel, threads, Mode::Unchecked, cfg),
                detection: measure_kernel(&kernel, threads, Mode::Detection, cfg),
                avoidance: measure_kernel(&kernel, threads, Mode::Avoidance, cfg),
            });
        }
    }
    out
}

fn print_overhead_table(title: &str, cells: &[KernelCell], pick: impl Fn(&KernelCell) -> f64) {
    println!("\n{title}");
    let threads: Vec<usize> = {
        let mut t: Vec<usize> = cells.iter().map(|c| c.threads).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    print!("{:<8}", "Threads");
    for t in &threads {
        print!("{t:>8}");
    }
    println!();
    let mut names: Vec<&str> = cells.iter().map(|c| c.kernel.as_str()).collect();
    names.dedup();
    for name in names {
        print!("{name:<8}");
        for &t in &threads {
            let cell = cells.iter().find(|c| c.kernel == name && c.threads == t);
            match cell {
                Some(c) => print!("{:>8}", percent(pick(c))),
                None => print!("{:>8}", "-"),
            }
        }
        println!();
    }
}

/// Table 1: relative execution overhead in detection mode.
pub fn print_table1(cells: &[KernelCell]) {
    print_overhead_table("Table 1: Relative execution overhead in detection mode.", cells, |c| {
        overhead(&c.unchecked, &c.detection)
    });
}

/// Table 2: relative execution overhead in avoidance mode.
pub fn print_table2(cells: &[KernelCell]) {
    print_overhead_table("Table 2: Relative execution overhead in avoidance mode.", cells, |c| {
        overhead(&c.unchecked, &c.avoidance)
    });
}

/// Figure 6: per-kernel execution-time series (unchecked / detection /
/// avoidance over thread counts).
pub fn print_fig6(cells: &[KernelCell]) {
    println!("\nFigure 6: comparative execution time for non-distributed benchmarks (seconds, lower means faster).");
    let mut names: Vec<&str> = cells.iter().map(|c| c.kernel.as_str()).collect();
    names.dedup();
    for name in names {
        println!("\n  Benchmark {name}");
        println!("  {:>8} {:>14} {:>14} {:>14}", "tasks", "unchecked", "detection", "avoidance");
        for c in cells.iter().filter(|c| c.kernel == name) {
            println!(
                "  {:>8} {:>11.4}±{:<6.4} {:>10.4}±{:<6.4} {:>10.4}±{:<6.4}",
                c.threads,
                c.unchecked.mean(),
                c.unchecked.ci95(),
                c.detection.mean(),
                c.detection.ci95(),
                c.avoidance.mean(),
                c.avoidance.ci95(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 7: distributed detection.
// ---------------------------------------------------------------------------

/// One distributed benchmark, unchecked vs checked.
#[derive(Clone, Debug, Serialize)]
pub struct DistCell {
    /// Benchmark name.
    pub name: String,
    /// Plain runtimes, no verification.
    pub unchecked: Measurement,
    /// Publish-only sites + distributed checkers.
    pub checked: Measurement,
}

/// Measures the §6.2 suite (Figure 7). The checked configuration keeps
/// the sites' publisher and checker threads running throughout; cluster
/// start/stop is excluded from the timed region (it is tool start-up, not
/// benchmark execution — the Georges et al. methodology discards
/// start-up effects).
pub fn dist_grid(cfg: &Config) -> Vec<DistCell> {
    let site_cfg = SiteConfig {
        publish_period: cfg.detection_period / 2,
        check_period: cfg.detection_period * 2, // paper: 200 ms vs 100 ms local
        ..Default::default()
    };
    dist::all()
        .iter()
        .map(|bench| {
            eprintln!("  [dist] {}", bench.name);
            let scale = cfg.scale;
            let sites = cfg.sites;
            let unchecked = Measurement::take(cfg.samples, || {
                std::hint::black_box(dist::run_unchecked(bench, sites, scale));
            });
            let cluster = armus_dist::Cluster::start(sites, site_cfg);
            let checked = Measurement::take(cfg.samples, || {
                std::hint::black_box(dist::run_on_cluster(bench, &cluster, scale));
            });
            cluster.stop();
            DistCell { name: bench.name.to_string(), unchecked, checked }
        })
        .collect()
}

/// Figure 7: distributed deadlock detection, unchecked vs checked.
pub fn print_fig7(cells: &[DistCell]) {
    println!("\nFigure 7: comparative execution time for distributed deadlock detection (seconds, lower means faster).");
    println!(
        "  {:<10} {:>14} {:>14} {:>10} {:>24}",
        "bench", "unchecked", "checked", "overhead", "95% CIs overlap?"
    );
    for c in cells {
        let ov = overhead(&c.unchecked, &c.checked);
        println!(
            "  {:<10} {:>11.4}±{:<6.4} {:>7.4}±{:<6.4} {:>10} {:>20}",
            c.name,
            c.unchecked.mean(),
            c.unchecked.ci95(),
            c.checked.mean(),
            c.checked.ci95(),
            percent(ov),
            if c.unchecked.overlaps(&c.checked) { "yes (no stat. evidence)" } else { "no" }
        );
    }
}

// ---------------------------------------------------------------------------
// Figures 8 & 9 + Table 3: the graph-model choice.
// ---------------------------------------------------------------------------

/// Measurement + average analysed edges for one (mode, model) pair.
#[derive(Clone, Debug, Serialize)]
pub struct CourseEntry {
    /// Detection or avoidance.
    pub mode: Mode,
    /// Auto / SG / WFG.
    pub model: String,
    /// Times.
    pub time: Measurement,
    /// Average edge count per deadlock check (Table 3's "Edges").
    pub avg_edges: f64,
}

/// One §6.3 benchmark with every mode × model measured.
#[derive(Clone, Debug, Serialize)]
pub struct CourseCell {
    /// Benchmark name.
    pub name: String,
    /// Baseline.
    pub unchecked: Measurement,
    /// All measured (mode, model) entries.
    pub entries: Vec<CourseEntry>,
}

/// The three model choices of Figures 8/9, in display order.
pub const MODELS: [(ModelChoice, &str); 3] =
    [(ModelChoice::Auto, "Auto"), (ModelChoice::FixedSg, "SG"), (ModelChoice::FixedWfg, "WFG")];

fn measure_course(
    bench: &CourseBench,
    mode: Mode,
    model: ModelChoice,
    cfg: &Config,
) -> (Measurement, f64) {
    let mut samples = Vec::with_capacity(cfg.samples);
    let mut edges = 0u64;
    let mut checks = 0u64;
    for k in 0..=cfg.samples {
        let rt = runtime_for(mode, model, cfg.detection_period);
        let t0 = Instant::now();
        let got = (bench.run)(&rt, cfg.scale);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(got, (bench.expected)(cfg.scale), "{} output invalid", bench.name);
        let stats = rt.stats();
        rt.shutdown();
        if k > 0 {
            samples.push(dt);
            edges += stats.edges_sum;
            checks += stats.checks;
        }
    }
    let avg = if checks == 0 { 0.0 } else { edges as f64 / checks as f64 };
    (Measurement::from_samples(samples), avg)
}

/// Measures the §6.3 suite across modes and models (Figures 8/9, Table 3).
pub fn course_grid(cfg: &Config) -> Vec<CourseCell> {
    course::all()
        .iter()
        .map(|bench| {
            eprintln!("  [course] {}", bench.name);
            let (unchecked, _) = measure_course(bench, Mode::Unchecked, ModelChoice::Auto, cfg);
            let mut entries = Vec::new();
            for mode in [Mode::Avoidance, Mode::Detection] {
                for (model, label) in MODELS {
                    let (time, avg_edges) = measure_course(bench, mode, model, cfg);
                    entries.push(CourseEntry { mode, model: label.to_string(), time, avg_edges });
                }
            }
            CourseCell { name: bench.name.to_string(), unchecked, entries }
        })
        .collect()
}

fn print_model_figure(title: &str, cells: &[CourseCell], mode: Mode) {
    println!("\n{title}");
    println!("  {:<6} {:>12} {:>12} {:>12} {:>12}", "bench", "unchecked", "Auto", "SG", "WFG");
    for c in cells {
        let t = |label: &str| {
            c.entries
                .iter()
                .find(|e| e.mode == mode && e.model == label)
                .map(|e| e.time.mean())
                .unwrap_or(f64::NAN)
        };
        println!(
            "  {:<6} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            c.name,
            c.unchecked.mean(),
            t("Auto"),
            t("SG"),
            t("WFG"),
        );
    }
}

/// Figure 8: execution time per graph-model choice, avoidance mode.
pub fn print_fig8(cells: &[CourseCell]) {
    print_model_figure(
        "Figure 8: comparative execution time per graph model (seconds), deadlock avoidance.",
        cells,
        Mode::Avoidance,
    );
}

/// Figure 9: execution time per graph-model choice, detection mode.
pub fn print_fig9(cells: &[CourseCell]) {
    print_model_figure(
        "Figure 9: comparative execution time per graph model (seconds), deadlock detection.",
        cells,
        Mode::Detection,
    );
}

/// Table 3: average edge count and verification overhead per benchmark per
/// graph mode.
pub fn print_table3(cells: &[CourseCell]) {
    println!("\nTable 3: edge count and verification overhead per benchmark per graph mode.");
    print!("{:<18}", "");
    for c in cells {
        print!("{:>10}", c.name);
    }
    println!();
    for (_, label) in MODELS {
        println!("{label}");
        // Edges row (avoidance-mode counts, the heavier sampler).
        print!("  {:<16}", "Edges");
        for c in cells {
            let e = c
                .entries
                .iter()
                .find(|e| e.mode == Mode::Avoidance && e.model == label)
                .map(|e| e.avg_edges)
                .unwrap_or(0.0);
            print!("{e:>10.0}");
        }
        println!();
        for (mode, row) in [(Mode::Avoidance, "Avoidance"), (Mode::Detection, "Detection")] {
            print!("  {:<16}", row);
            for c in cells {
                let t = c
                    .entries
                    .iter()
                    .find(|e| e.mode == mode && e.model == label)
                    .map(|e| overhead(&c.unchecked, &e.time))
                    .unwrap_or(f64::NAN);
                print!("{:>10}", percent(t));
            }
            println!();
        }
    }
}

// ---------------------------------------------------------------------------
// §5.1: the adaptive SG-abort threshold.
// ---------------------------------------------------------------------------

/// Builds timed per sample: one build is microseconds, far below the
/// clock's useful resolution for a single [`Measurement`] sample.
const BUILDS_PER_SAMPLE: usize = 100;

/// One (snapshot shape, build variant) cell of the threshold ablation.
#[derive(Clone, Debug, Serialize)]
pub struct ThresholdCell {
    /// `sg-friendly` (many tasks, few phasers) or `wfg-friendly` (few
    /// tasks, many phasers).
    pub shape: String,
    /// `auto-x<multiplier>`, `fixed-sg` or `fixed-wfg`.
    pub variant: String,
    /// The model the build ended with (an `Auto` build that crosses the
    /// threshold abandons its SG for the WFG).
    pub model: String,
    /// Edges of the graph the build returned.
    pub edges: usize,
    /// Seconds per build.
    pub build: Measurement,
}

/// The §5.1 ablation: the paper fixes the SG-abort multiplier at 2,
/// "obtained based on experiments". Measures graph-build cost across
/// multipliers on a shape that favours each model, against both fixed
/// models.
pub fn threshold_grid(cfg: &Config) -> Vec<ThresholdCell> {
    use ModelChoice::{Auto, FixedSg, FixedWfg};
    let shapes = [
        ("sg-friendly", SynthShape { tasks: 256, phasers: 2, regs_per_task: 2 }),
        ("wfg-friendly", SynthShape { tasks: 16, phasers: 256, regs_per_task: 8 }),
    ];
    let variants = [
        ("auto-x1", Auto, 1),
        ("auto-x2", Auto, 2),
        ("auto-x4", Auto, 4),
        ("auto-x8", Auto, 8),
        ("fixed-wfg", FixedWfg, DEFAULT_SG_THRESHOLD),
        ("fixed-sg", FixedSg, DEFAULT_SG_THRESHOLD),
    ];
    let mut out = Vec::new();
    for (shape, synth) in shapes {
        let snap = synth::acyclic(synth);
        for (variant, choice, threshold) in variants {
            let built = adaptive::build(&snap, choice, threshold);
            let batches = Measurement::take(cfg.samples, || {
                for _ in 0..BUILDS_PER_SAMPLE {
                    std::hint::black_box(adaptive::build(&snap, choice, threshold).edge_count());
                }
            });
            let per_build = batches.samples.iter().map(|s| s / BUILDS_PER_SAMPLE as f64).collect();
            out.push(ThresholdCell {
                shape: shape.to_string(),
                variant: variant.to_string(),
                model: built.model.to_string(),
                edges: built.edge_count(),
                build: Measurement::from_samples(per_build),
            });
        }
    }
    out
}

/// §5.1: graph-build cost per SG-abort multiplier, against the fixed models.
pub fn print_threshold(cells: &[ThresholdCell]) {
    println!("\nSection 5.1: graph-build cost per SG-abort multiplier (the paper fixes x2).");
    println!(
        "  {:<13} {:<10} {:>12} {:>6} {:>8}",
        "shape", "variant", "us/build", "model", "edges"
    );
    for c in cells {
        println!(
            "  {:<13} {:<10} {:>12.1} {:>6} {:>8}",
            c.shape,
            c.variant,
            c.build.mean() * 1e6,
            c.model,
            c.edges
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            scale: Scale::Quick,
            samples: 1,
            threads: vec![2],
            sites: 2,
            detection_period: Duration::from_millis(10),
        }
    }

    #[test]
    fn kernel_grid_produces_all_cells() {
        let cfg = tiny();
        let cells = kernel_grid(&cfg);
        assert_eq!(cells.len(), 6);
        for c in &cells {
            assert_eq!(c.unchecked.samples.len(), 1);
            assert!(c.unchecked.mean() > 0.0);
        }
        print_table1(&cells);
        print_table2(&cells);
        print_fig6(&cells);
    }

    #[test]
    fn course_grid_measures_edges() {
        let cfg = tiny();
        let cells = course_grid(&cfg);
        assert_eq!(cells.len(), 5);
        // Avoidance checks on every block: PS must have analysed edges.
        let ps = cells.iter().find(|c| c.name == "PS").unwrap();
        let wfg =
            ps.entries.iter().find(|e| e.mode == Mode::Avoidance && e.model == "WFG").unwrap();
        assert!(wfg.avg_edges > 0.0, "PS WFG avoidance must analyse edges");
        print_fig8(&cells);
        print_fig9(&cells);
        print_table3(&cells);
    }

    #[test]
    fn threshold_grid_shows_auto_tracking_the_cheaper_model() {
        let cells = threshold_grid(&tiny());
        assert_eq!(cells.len(), 12);
        let cell = |shape: &str, variant: &str| {
            cells.iter().find(|c| c.shape == shape && c.variant == variant).unwrap()
        };
        // The paper's multiplier keeps the SG where it is small and
        // abandons it for the WFG where it explodes.
        assert_eq!(cell("sg-friendly", "auto-x2").model, "SG");
        assert_eq!(cell("sg-friendly", "auto-x2").edges, cell("sg-friendly", "fixed-sg").edges);
        assert_eq!(cell("wfg-friendly", "auto-x2").model, "WFG");
        assert_eq!(cell("wfg-friendly", "auto-x2").edges, cell("wfg-friendly", "fixed-wfg").edges);
        assert!(cells.iter().all(|c| c.build.samples.len() == 1 && c.build.mean() > 0.0));
        print_threshold(&cells);
    }
}
