//! `armus-benchmark`: the end-to-end + per-layer benchmark every later
//! performance claim about this repository is measured with. See
//! `README.md` beside this crate for the metrics, the workloads and why
//! each exists.
//!
//! ```text
//! armus-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--workers N]
//! armus-benchmark all [--seed N] [--seconds S] [--runs R] [--smoke] [--no-trace] [--out FILE]
//! armus-benchmark compare A.json B.json
//! ```

mod api;
mod e2e;
mod gen;
mod host;
mod ladder;
mod layers;
mod metrics;
mod program;
mod report;
mod rig;
mod stats;
mod trace;
mod verdict;

use std::process::ExitCode;

use gen::{Size, Workload};

const USAGE: &str = "usage:
  armus-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--workers N]
  armus-benchmark all [--seed N] [--seconds S] [--runs R] [--smoke] [--no-trace] [--out FILE]
  armus-benchmark compare A.json B.json
workloads: npb-spmd stencil-avoid stencil-detect fanin-avoid dist-tcp";

/// `--key value` pairs and bare `--flag`s, in any order.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else { return Ok(None) };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse().map(Some).map_err(|_| format!("{name}: cannot read `{raw}`"))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }
}

fn single(mut args: Args) -> Result<bool, String> {
    let name: String = args.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let smoke = args.flag("--smoke");
    let seconds: f64 =
        args.value("--seconds")?.unwrap_or(if smoke { 2.0 } else { metrics::RUN_SECONDS as f64 });
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match args.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let opts = e2e::Options {
        workload,
        seed: args.value("--seed")?.unwrap_or(1),
        seconds,
        size: if smoke { Size::Smoke } else { Size::Full },
        workers: host::workers(args.value("--workers")?, trace, host::cores())?,
    };
    args.finish()?;

    let outcome = if trace { layers::run(&opts)? } else { e2e::run(&opts)? };
    println!(
        "{} seed {} on {} worker(s), {} core(s), 1-min load {:.2}",
        workload.name(),
        opts.seed,
        opts.workers,
        host::cores(),
        host::load_average_1m()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value) in outcome.values.iter() {
        println!("{name:<40}{value:>18.4} {}", metrics::unit(name).unwrap_or(""));
    }
    let expected: Vec<&str> = if trace {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing = outcome.values.missing(expected.into_iter());
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {}", missing.join(", ")));
    }
    println!("{}", report::result_line(&outcome));
    Ok(outcome.failed == 0)
}

fn all(mut args: Args) -> Result<bool, String> {
    let smoke = args.flag("--smoke");
    let opts = report::AllOptions {
        seed: args.value("--seed")?.unwrap_or(1),
        seconds: args.value("--seconds")?.unwrap_or(if smoke { 2 } else { metrics::RUN_SECONDS }),
        runs: args.value("--runs")?.unwrap_or(1),
        smoke,
        trace: !args.flag("--no-trace"),
        out: args.value("--out")?.unwrap_or_else(|| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/out/results.json").to_string()
        }),
    };
    args.finish()?;
    report::all(&opts)
}

fn run(mut argv: Vec<String>) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("all") => all(Args(argv.split_off(1))),
        Some("compare") => match &argv[1..] {
            [a, b] => report::compare(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) => single(Args(argv)),
    }
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        // A run that measured but found violations (or a comparison that
        // found a regression) has printed its result; the exit code says
        // it must not be trusted.
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("armus-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
