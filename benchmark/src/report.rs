//! Result lines, result files, and `compare`.
//!
//! A single run ends with one JSON object on its last line of standard
//! output. `all` runs every workload, each in a fresh child process,
//! gathers those lines into a result file (host cores and load average
//! recorded with it) and prints the table. `compare A.json B.json` is the
//! A/A and A/B tool: per workload and end-to-end metric it prints both
//! medians, the change, the bound, and whether that is a pass, a
//! regression, or unresolved because the runs spread wider than the bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use serde::Value;

use crate::e2e::Outcome;
use crate::gen::Workload;
use crate::host;
use crate::metrics::{self, Better, EndToEnd, END_TO_END};
use crate::stats;

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value (all digits) and unit.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .values
        .iter()
        .map(|(name, value)| {
            let unit = metrics::unit(name).expect("reported metrics are in the tables");
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::UInt(outcome.attempted.max(1))),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serialises")
}

pub struct AllOptions {
    pub seed: u64,
    pub seconds: u64,
    pub runs: usize,
    pub smoke: bool,
    pub trace: bool,
    pub out: String,
}

fn child(workload: Workload, opts: &AllOptions, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{} (trace {}) printed no result ({e}); exit {}",
            workload.name(),
            trace,
            output.status
        )
    })?;
    let Value::Map(mut fields) = result else {
        return Err(format!("{}: the result line is not an object", workload.name()));
    };
    fields.insert(0, ("workload".into(), Value::Str(workload.name().into())));
    fields.insert(1, ("trace".into(), Value::Bool(trace)));
    fields.insert(2, ("exit_ok".into(), Value::Bool(output.status.success())));
    Ok(Value::Map(fields))
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn metric(run: &Value, name: &str) -> Option<f64> {
    number(run.get("metrics")?.get(name)?.get("value"))
}

fn print_table(runs: &[Value]) {
    println!("\n{:<52}{}", "end-to-end (median of runs)", {
        Workload::ALL.iter().map(|w| format!("{:>16}", w.name())).collect::<String>()
    });
    let by = |w: Workload, trace: bool, name: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| {
                r.get("workload") == Some(&Value::Str(w.name().into()))
                    && r.get("trace") == Some(&Value::Bool(trace))
            })
            .filter_map(|r| metric(r, name))
            .collect()
    };
    let row = |label: String, trace: bool, name: &str| {
        let cells: String = Workload::ALL
            .iter()
            .map(|&w| match by(w, trace, name) {
                v if v.is_empty() => format!("{:>16}", "-"),
                v => format!("{:>16.4}", stats::median(&v)),
            })
            .collect();
        println!("{label:<52}{cells}");
    };
    for m in &END_TO_END {
        row(format!("{} [{}, {}]", m.name, m.unit, m.better.as_str()), false, m.name);
    }
    if runs.iter().any(|r| r.get("trace") == Some(&Value::Bool(true))) {
        println!("\nper-layer (traced run)");
        for m in &metrics::PER_LAYER {
            row(format!("{} [{}, {}]", m.name, m.unit, m.better.as_str()), true, m.name);
        }
    }
}

/// Runs every workload (`runs` untraced runs and, unless disabled, one
/// traced run each), writes the result file, prints the table. Returns
/// whether every run was correct.
pub fn all(opts: &AllOptions) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in std::iter::repeat_n(false, opts.runs).chain(opts.trace.then_some(true)) {
            eprintln!("running {} (trace {})", workload.name(), u8::from(trace));
            let run = child(workload, opts, trace)?;
            ok &= run.get("correct") == Some(&Value::Bool(true))
                && run.get("exit_ok") == Some(&Value::Bool(true));
            runs.push(run);
        }
    }
    let doc = Value::Map(vec![
        ("host_cores".into(), Value::UInt(host::cores() as u64)),
        ("load_average_1m".into(), Value::Float(host::load_average_1m())),
        ("seed".into(), Value::UInt(opts.seed)),
        ("seconds".into(), Value::UInt(opts.seconds)),
        ("size".into(), Value::Str(if opts.smoke { "smoke" } else { "full" }.into())),
        ("runs".into(), Value::Seq(runs.clone())),
    ]);
    let path = Path::new(&opts.out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    print_table(&runs);
    println!(
        "\nhost: {} core(s), 1-min load {:.2}; results in {}",
        host::cores(),
        host::load_average_1m(),
        path.display()
    );
    Ok(ok)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    Unresolved,
}

/// Judges one metric of one workload: `a` are the parent's runs, `b` the
/// change's. The change regressed when its median is worse than the
/// parent's by more than the bound. Where either side's run-to-run spread
/// (quartile distance over median) is wider than the bound the result is
/// unresolved instead — unless every run of `b` reads better than every
/// run of `a`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let clean_win = match m.better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if stats::spread(a).max(stats::spread(b)) > m.bound && !clean_win {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

type Samples = BTreeMap<(String, &'static str), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Seq(runs)) = doc.get("runs") else {
        return Err(format!("{path}: no `runs` array (is this a result file written by `all`?)"));
    };
    let mut out = Samples::new();
    for run in runs.iter().filter(|r| r.get("trace") == Some(&Value::Bool(false))) {
        let Some(Value::Str(workload)) = run.get("workload") else { continue };
        for m in &END_TO_END {
            if let Some(value) = metric(run, m.name) {
                out.entry((workload.clone(), m.name)).or_default().push(value);
            }
        }
    }
    Ok(out)
}

/// Prints the comparison; returns whether nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<16}{:<22}{:>14}{:>14}{:>9}{:>8}{:>9}{:>9}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound", "spread A", "spread B"
    );
    let mut clean = true;
    for ((workload, name), runs_a) in &a {
        let Some(runs_b) = b.get(&(workload.clone(), *name)) else { continue };
        let m = metrics::end_to_end(name).expect("loaded by table name");
        let verdict = judge(m, runs_a, runs_b);
        clean &= verdict != Verdict::Regressed;
        let (ma, mb) = (stats::median(runs_a), stats::median(runs_b));
        println!(
            "{workload:<16}{name:<22}{ma:>14.4}{mb:>14.4}{:>+8.1}%{:>7.0}%{:>8.1}%{:>8.1}%  {}",
            (mb - ma) / ma.abs() * 100.0,
            m.bound * 100.0,
            stats::spread(runs_a) * 100.0,
            stats::spread(runs_b) * 100.0,
            match verdict {
                Verdict::Pass => "pass",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Values;

    const LOWER: EndToEnd =
        EndToEnd { name: "cpu_us_per_op", unit: "us", better: Better::Lower, bound: 0.10 };
    const HIGHER: EndToEnd =
        EndToEnd { name: "checked_ops_per_s", unit: "op/s", better: Better::Higher, bound: 0.10 };

    #[test]
    fn within_the_bound_passes_and_beyond_it_regresses() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&LOWER, &a, &[105.0, 106.0, 104.0, 105.0, 105.5]), Verdict::Pass);
        assert_eq!(judge(&LOWER, &a, &[115.0, 116.0, 114.0, 115.0, 115.5]), Verdict::Regressed);
        // For a higher-is-better metric the same numbers read the other way.
        assert_eq!(judge(&HIGHER, &a, &[115.0, 116.0, 114.0, 115.0, 115.5]), Verdict::Pass);
        assert_eq!(judge(&HIGHER, &a, &[85.0, 86.0, 84.0, 85.0, 85.5]), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&LOWER, &noisy, &[100.0, 101.0, 99.0, 100.0, 100.0]), Verdict::Unresolved);
        // Every run of B below every run of A: resolved in B's favour.
        assert_eq!(judge(&LOWER, &noisy, &[50.0, 60.0, 55.0, 52.0, 58.0]), Verdict::Pass);
        // A single run per side has no spread to be unresolved by.
        assert_eq!(judge(&LOWER, &[100.0], &[120.0]), Verdict::Regressed);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.8127);
        let line = result_line(&Outcome { attempted: 10, failed: 0, values, notes: vec![] });
        let parsed: Value = serde_json::from_str(&line).unwrap();
        let Value::Map(fields) = &parsed else { panic!("object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(metric(&parsed, "setup_s"), Some(0.8127));
        let unit = parsed.get("metrics").and_then(|m| m.get("setup_s")).and_then(|m| m.get("unit"));
        assert_eq!(unit, Some(&Value::Str("s".into())));
        assert!(!line.contains('\n'));
    }
}
