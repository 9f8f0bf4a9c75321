//! `armus-bench` — the one binary that keeps what reproduces the paper:
//! `paper` (§6's tables and figures, §5.1's threshold), `analysis` (the
//! static analysis' precision and cost) and `analyze` (the post-mortem
//! tool). Run it without arguments for the usage text.
//!
//! Exit codes: 0 done (`analyze`: no deadlock), 1 unreadable or invalid
//! input, 2 usage error, 3 `analyze` found a deadlock.

use std::io::Read;
use std::time::Duration;

use armus_bench::{analysis, experiments, Config};
use armus_core::{checker, ModelChoice, Snapshot, DEFAULT_SG_THRESHOLD};
use serde::{Serialize, Value};

const USAGE: &str = "\
usage: armus-bench <subcommand> [options]

  paper [options] [commands…]   regenerate the paper's tables and figures
    commands: table1 table2 table3 fig6 fig7 fig8 fig9 threshold sanity all
              (default: all)
    --full           full problem sizes & the paper's thread grid
    --samples N      kept samples per cell (default: 3 quick, 5 full)
    --threads a,b,c  kernel-grid thread counts
    --sites N        distributed sites (default: 2 quick, 4 full)
    --period-ms N    detection period
    --json PATH      dump all measured cells as JSON (BENCH_paper.json)

  analysis [options]            static analysis: verdict precision and cost
    --programs N     programs per corpus (default: 2000)
    --json PATH      dump the cells as JSON (BENCH_analysis.json)

  analyze [options] [FILE]      offline deadlock analysis of a dumped
                                armus_core::Snapshot (FILE or stdin)
    --example        print a sample snapshot (the paper's Example 4.1)
    --model M        auto | sg | wfg (default: auto)
    --threshold N    SG-abort multiplier (default: 2)";

const PAPER_COMMANDS: [&str; 10] =
    ["table1", "table2", "table3", "fig6", "fig7", "fig8", "fig9", "threshold", "sanity", "all"];

/// Why a subcommand stops early.
enum Fail {
    /// Exit 2, with the usage text.
    Usage(String),
    /// Exit 1: a file that cannot be read or written, or invalid JSON.
    Input(String),
}

impl From<String> for Fail {
    fn from(message: String) -> Fail {
        Fail::Usage(message)
    }
}

/// A subcommand's command line, split by the one parser.
struct Args {
    /// `(option, value)`; a switch has an empty value.
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Splits `args` into the `switches` and `valued` options the
    /// subcommand takes and its positional arguments; anything else that
    /// starts with `-` is a usage error.
    fn parse(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Args, String> {
        let mut out = Args { options: Vec::new(), positional: Vec::new() };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                out.options.push((arg.clone(), String::new()));
            } else if valued.contains(&arg.as_str()) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.options.push((arg.clone(), value.clone()));
            } else if arg.starts_with('-') {
                return Err(format!("unknown option {arg}"));
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    fn text(&self, option: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == option).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, option: &str) -> Result<Option<T>, String> {
        self.text(option)
            .map(|v| v.parse().map_err(|_| format!("{option}: `{v}` is not a valid number")))
            .transpose()
    }
}

/// Serialises `cells`, each tagged with the grid it belongs to.
fn tagged<T: Serialize>(grid: &str, cells: &[T]) -> Vec<Value> {
    let tag = |cell: &T| match cell.to_value() {
        Value::Map(mut fields) => {
            fields.insert(0, ("grid".into(), Value::Str(grid.into())));
            Value::Map(fields)
        }
        other => other,
    };
    cells.iter().map(tag).collect()
}

/// Writes the one JSON envelope every subcommand shares — `{ "command",
/// "host_cores", "cells": [...] }` — one cell a line, so a regenerated
/// record diffs by cell.
fn write_json(path: &str, command: &[String], cells: &[Value]) -> Result<(), Fail> {
    let lines: Vec<String> =
        cells.iter().map(|c| serde_json::to_string(c).expect("serialise")).collect();
    let text = format!(
        "{{\n\"command\": {},\n\"host_cores\": {},\n\"cells\": [\n{}\n]\n}}\n",
        serde_json::to_string(&command.join(" ")).expect("serialise"),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        lines.join(",\n")
    );
    std::fs::write(path, text).map_err(|e| Fail::Input(format!("cannot write {path}: {e}")))?;
    eprintln!("wrote {path}");
    Ok(())
}

fn main() {
    let command: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match command.split_first() {
        Some((sub, rest)) => match sub.as_str() {
            "paper" => paper(&command, rest),
            "analysis" => analysis(&command, rest),
            "analyze" => analyze(rest),
            other => Err(Fail::Usage(format!("unknown subcommand {other}"))),
        },
        None => Err(Fail::Usage("missing subcommand".to_string())),
    };
    std::process::exit(match outcome {
        Ok(code) => code,
        Err(Fail::Input(message)) => {
            eprintln!("armus-bench: {message}");
            1
        }
        Err(Fail::Usage(message)) => {
            eprintln!("armus-bench: {message}\n\n{USAGE}");
            2
        }
    });
}

fn paper(command: &[String], rest: &[String]) -> Result<i32, Fail> {
    let valued = ["--samples", "--threads", "--sites", "--period-ms", "--json"];
    let args = Args::parse(rest, &["--full"], &valued)?;
    if let Some(unknown) = args.positional.iter().find(|c| !PAPER_COMMANDS.contains(&c.as_str())) {
        return Err(Fail::Usage(format!("unknown paper command {unknown}")));
    }
    let mut cfg = if args.text("--full").is_some() { Config::full() } else { Config::quick() };
    if let Some(samples) = args.number("--samples")? {
        cfg.samples = samples;
    }
    if let Some(threads) = args.text("--threads") {
        cfg.threads = threads
            .split(',')
            .map(|t| t.trim().parse().map_err(|_| format!("--threads: `{t}` is not a count")))
            .collect::<Result<_, _>>()?;
    }
    if let Some(sites) = args.number("--sites")? {
        cfg.sites = sites;
    }
    if let Some(period) = args.number("--period-ms")? {
        cfg.detection_period = Duration::from_millis(period);
    }
    let all = args.positional.is_empty() || args.positional.iter().any(|c| c == "all");
    let wants = |c: &str| all || args.positional.iter().any(|p| p == c);

    eprintln!(
        "paper harness: scale={:?} samples={} threads={:?} sites={} period={:?}",
        cfg.scale, cfg.samples, cfg.threads, cfg.sites, cfg.detection_period
    );

    if wants("sanity") {
        experiments::sanity();
    }
    let (mut kernels, mut dist, mut course, mut threshold) = Default::default();
    if wants("table1") || wants("table2") || wants("fig6") {
        eprintln!("running the kernel grid (Tables 1-2, Figure 6)…");
        kernels = experiments::kernel_grid(&cfg);
    }
    if wants("fig7") {
        eprintln!("running the distributed grid (Figure 7)…");
        dist = experiments::dist_grid(&cfg);
    }
    if wants("fig8") || wants("fig9") || wants("table3") {
        eprintln!("running the course grid (Figures 8-9, Table 3)…");
        course = experiments::course_grid(&cfg);
    }
    if wants("threshold") {
        eprintln!("running the threshold ablation (Section 5.1)…");
        threshold = experiments::threshold_grid(&cfg);
    }

    let printers: [(&str, &dyn Fn()); 8] = [
        ("table1", &|| experiments::print_table1(&kernels)),
        ("table2", &|| experiments::print_table2(&kernels)),
        ("fig6", &|| experiments::print_fig6(&kernels)),
        ("fig7", &|| experiments::print_fig7(&dist)),
        ("fig8", &|| experiments::print_fig8(&course)),
        ("fig9", &|| experiments::print_fig9(&course)),
        ("table3", &|| experiments::print_table3(&course)),
        ("threshold", &|| experiments::print_threshold(&threshold)),
    ];
    for (name, print) in printers {
        if wants(name) {
            print();
        }
    }

    if let Some(path) = args.text("--json") {
        let mut cells = tagged("kernels", &kernels);
        cells.extend(tagged("dist", &dist));
        cells.extend(tagged("course", &course));
        cells.extend(tagged("threshold", &threshold));
        write_json(path, command, &cells)?;
    }
    Ok(0)
}

fn analysis(command: &[String], rest: &[String]) -> Result<i32, Fail> {
    let args = Args::parse(rest, &[], &["--programs", "--json"])?;
    if let Some(stray) = args.positional.first() {
        return Err(Fail::Usage(format!("analysis takes no argument (got {stray})")));
    }
    let cells = analysis::run(args.number("--programs")?.unwrap_or(2000));
    analysis::print_table(&cells);
    if let Some(path) = args.text("--json") {
        let cells: Vec<Value> = cells.iter().map(Serialize::to_value).collect();
        write_json(path, command, &cells)?;
    }
    Ok(0)
}

/// The paper's Example 4.1, as a snapshot `analyze` accepts.
fn sample() -> Snapshot {
    use armus_core::{BlockedInfo, PhaserId, Registration, Resource, TaskId};
    let worker = |t: u64| {
        BlockedInfo::new(
            TaskId(t),
            vec![Resource::new(PhaserId(1), 1)],
            vec![Registration::new(PhaserId(1), 1), Registration::new(PhaserId(2), 0)],
        )
    };
    let driver = BlockedInfo::new(
        TaskId(4),
        vec![Resource::new(PhaserId(2), 1)],
        vec![Registration::new(PhaserId(1), 0), Registration::new(PhaserId(2), 1)],
    );
    Snapshot::from_tasks(vec![worker(1), worker(2), worker(3), driver])
}

fn analyze(rest: &[String]) -> Result<i32, Fail> {
    let args = Args::parse(rest, &["--example"], &["--model", "--threshold"])?;
    let model = match args.text("--model") {
        None | Some("auto") => ModelChoice::Auto,
        Some("sg") => ModelChoice::FixedSg,
        Some("wfg") => ModelChoice::FixedWfg,
        Some(other) => return Err(Fail::Usage(format!("--model auto|sg|wfg (got {other})"))),
    };
    let threshold = args.number("--threshold")?.unwrap_or(DEFAULT_SG_THRESHOLD);
    if args.positional.len() > 1 {
        return Err(Fail::Usage(format!("analyze takes one file (got {:?})", args.positional)));
    }
    if args.text("--example").is_some() {
        println!("{}", serde_json::to_string_pretty(&sample()).expect("serialise sample"));
        return Ok(0);
    }

    let text = match args.positional.first() {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map(|_| buf)
                .map_err(|e| format!("stdin: {e}"))
        }
    }
    .map_err(|e| Fail::Input(format!("cannot read {e}")))?;
    // Hand-written JSON may list tasks in any order; deserialisation
    // sorts, so `Snapshot::get`'s invariant holds from here on.
    let snapshot: Snapshot = serde_json::from_str(&text)
        .map_err(|e| Fail::Input(format!("invalid snapshot JSON: {e}")))?;

    eprintln!("{} blocked task(s)", snapshot.len());
    let outcome = checker::check(&snapshot, model, threshold);
    eprintln!(
        "analysed a {} with {} nodes / {} edges{}",
        outcome.stats.model,
        outcome.stats.nodes,
        outcome.stats.edges,
        if outcome.stats.sg_aborted { " (SG attempt aborted)" } else { "" }
    );
    match outcome.report {
        None => println!("no deadlock"),
        Some(report) => {
            println!("DEADLOCK: {report}");
            return Ok(3);
        }
    }
    Ok(0)
}
