//! The untraced run: cycles of a paired round, a set-up and a slice of
//! verdict trials, with the correctness gates, producing every end-to-end
//! metric of one workload.

use std::time::{Duration, Instant};

use crate::gen::{self, Size, Trials, Workload};
use crate::host;
use crate::metrics::Values;
use crate::rig::{self, Mode, Rig};
use crate::stats;

/// Paired rounds a run measures at least, whatever `--seconds` says.
const MIN_PAIRS: usize = 8;
/// Trials a run needs at least: a p90 must leave ten samples beyond it.
const MIN_TRIALS: usize = 100;
/// Share of a run given to the paired rounds and set-ups; the trials get
/// the rest.
const ROUNDS_SHARE: f64 = 0.55;

const UNCHECKED: usize = 0;
const CHECKED: usize = 1;

/// One side's share of a pair. A round shorter than [`Turn::TARGET_S`]
/// is at the mercy of what ran just before it (after a 350 ms checked
/// round the unchecked program's 20 ms round starts on cold caches) and of
/// where the 20 ms monitor's checks happen to fall in it, so a short round
/// is repeated: one unmeasured lead-in, then enough rounds to fill the
/// target, their mean standing for the turn — the turn is one long round
/// cut into pieces. A long round is its own turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Turn {
    lead_in: bool,
    rounds: usize,
}

impl Turn {
    const TARGET_S: f64 = 0.2;
    const MAX_ROUNDS: usize = 12;
    const WARM_UP: Turn = Turn { lead_in: false, rounds: 1 };

    fn sized_for(round_s: f64) -> Turn {
        if round_s >= Turn::TARGET_S {
            return Turn::WARM_UP;
        }
        let rounds = (Turn::TARGET_S / round_s).ceil() as usize;
        Turn { lead_in: true, rounds: rounds.clamp(1, Turn::MAX_ROUNDS) }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub workers: usize,
}

/// What a run hands back: the contract's `correct` / `attempted` /
/// `failed`, the metrics, and the sample counts behind them.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable lines (sample counts, violations) printed before
    /// the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one failed correctness gate and keeps its description.
    pub fn violation(&mut self, what: impl std::fmt::Display) {
        self.failed += 1;
        if self.notes.len() < 40 {
            self.notes.push(format!("VIOLATION: {what}"));
        }
    }
}

/// Reports the sites have recorded so far (`dist-tcp`; the other modes
/// hand theirs over through `take_reports`). Read before a checked round
/// and handed to [`gates_after_round`].
pub fn site_reports(rig: &Rig) -> u64 {
    rig.dist
        .iter()
        .flat_map(|d| &d.sites)
        .map(|s| s.reports().len() as u64 + s.reports_dropped())
        .sum()
}

/// The correctness gates that run after every checked round: nothing may
/// have been reported (the rounds are deadlock-free), the parked
/// population must be exactly the program's tasks, and under avoidance
/// every block must be accounted for by a check or a counted skip.
/// Returns the violations found.
pub fn gates_after_round(rig: &Rig, site_reports_before: u64) -> Vec<String> {
    let mut violations = Vec::new();
    for rt in &rig.runtimes {
        let reports = rt.take_reports();
        if !reports.is_empty() {
            violations.push(format!("{} report(s) during a deadlock-free round", reports.len()));
        }
    }
    if let Some(dist) = &rig.dist {
        if dist.subscription.recv(Duration::ZERO).is_some() {
            violations.push("the server streamed a report during a deadlock-free round".into());
        }
    }
    if site_reports(rig) != site_reports_before {
        violations.push("a site reported during a deadlock-free round".into());
    }
    if let Err(v) = settle(rig) {
        violations.push(v);
    }
    violations
}

/// Waits (briefly: the last tasks re-park just after the round's clock
/// stops) until the verifier counters are at rest, then checks them.
pub fn settle(rig: &Rig) -> Result<(), String> {
    let population = rig.checked.population() as u64;
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let mut blocked = 0;
        let mut unaccounted = 0;
        for rt in &rig.runtimes {
            let s = rt.stats();
            // An avoidance verdict withdraws the refused block without an
            // unblock, so each delivered report is one block fewer.
            let withdrawn = if rig.mode == Mode::Avoidance { s.deadlocks } else { 0 };
            blocked += s.blocks - s.unblocks - withdrawn;
            if rig.mode == Mode::Avoidance {
                unaccounted += s.blocks.abs_diff(s.checks + s.fastpath_skips + s.static_skips);
            }
        }
        if blocked == population && unaccounted == 0 {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "accounting at rest: {blocked} blocked (expected {population}), \
                 {unaccounted} block(s) neither checked nor skipped"
            ));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The exact blocked set of the checked instance (sorted task ids per
/// runtime) — compared before and after the trials.
fn blocked_sets(rig: &Rig) -> Vec<Vec<u64>> {
    rig.runtimes
        .iter()
        .map(|rt| rt.verifier().local_snapshot().tasks.iter().map(|b| b.task.0).collect())
        .collect()
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = gen::spec(opts.workload, opts.size);
    let inputs = gen::inputs(opts.workload, opts.size, opts.seed);
    let mut out = Outcome::default();
    host::confine_harness();

    let timed_setup = || -> Result<(Rig, f64), String> {
        let t0 = Instant::now();
        let rig = rig::setup(opts.workload, &inputs, &spec, opts.size, opts.workers)?;
        Ok((rig, t0.elapsed().as_secs_f64()))
    };
    let (mut rig, first_setup_s) = timed_setup()?;
    let mut setup_s = vec![first_setup_s];
    let measuring = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);

    // The run is a sequence of cycles, each a paired round, a set-up and
    // a slice of verdict trials, so that every metric's samples span the
    // whole run: the host's slow phases last seconds, and a metric
    // measured in one stretch of the run would sit inside one or not.
    let ops = rig.checked.ops_per_round();
    let before = blocked_sets(&rig);
    let (mut unchecked_s, mut checked_s, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut checked_cpu_us_per_op = Vec::new();
    let mut verdict_us = Vec::new();
    let mut shapes = Trials::new(opts.seed);
    let mut trials = 0u64;
    let mut turns = [Turn::WARM_UP; 2];
    let mut pair = 0usize;
    loop {
        let cycle = Instant::now();

        // The same fixed work unchecked and checked, order alternating so
        // drift cancels inside a pair; the first pair is the warm-up, and
        // sizes each side's turn.
        let mut side_s = [0.0; 2];
        let mut checked_cpu_s = 0.0;
        let checked_first = pair % 2 == 1;
        for side in [usize::from(checked_first), usize::from(!checked_first)] {
            let turn = turns[side];
            for round in 0..turn.rounds + usize::from(turn.lead_in) {
                let keep = round >= usize::from(turn.lead_in);
                let cpu0 = host::cpu_seconds();
                let elapsed = if side == CHECKED {
                    let quiet = site_reports(&rig);
                    let elapsed = rig.checked.round()?;
                    for violation in gates_after_round(&rig, quiet) {
                        out.violation(violation);
                    }
                    elapsed
                } else {
                    rig.unchecked.round()?
                };
                if keep {
                    side_s[side] += elapsed.as_secs_f64() / turn.rounds as f64;
                    if side == CHECKED {
                        checked_cpu_s += host::cpu_seconds() - cpu0;
                    }
                }
            }
        }
        if pair == 0 {
            turns = [Turn::sized_for(side_s[UNCHECKED]), Turn::sized_for(side_s[CHECKED])];
        } else {
            unchecked_s.push(side_s[UNCHECKED]);
            checked_s.push(side_s[CHECKED]);
            ratio.push(side_s[CHECKED] / side_s[UNCHECKED]);
            let checked_ops = turns[CHECKED].rounds as u64 * ops;
            checked_cpu_us_per_op.push(checked_cpu_s * 1e6 / checked_ops as f64);
        }
        pair += 1;

        // Set-up once more: a complete second rig, set up and torn down
        // while the first stays parked.
        let (again, again_s) = timed_setup()?;
        setup_s.push(again_s);
        for _ in 0..again.teardown() {
            out.violation("a task of a repeated set-up ended in an error");
        }

        // Verdict trials against the standing population, for the share
        // of the cycle the rounds leave them.
        let slice = cycle.elapsed().mul_f64((1.0 - ROUNDS_SHARE) / ROUNDS_SHARE);
        let trying = Instant::now();
        while trying.elapsed() < slice && out.failed <= 20 {
            trials += 1;
            match rig.trial(shapes.next().expect("the shape stream is endless")) {
                Ok(elapsed) => verdict_us.push(elapsed.as_secs_f64() * 1e6),
                Err(why) => out.violation(format!("trial {trials}: {why}")),
            }
        }
        rig.after_trials();
        if let Err(v) = settle(&rig) {
            out.violation(format!("after a slice of trials: {v}"));
        }

        // Another cycle starts only if at least half of it fits the
        // budget. A lost run does not sit out a deadline per trial.
        let enough = checked_s.len() >= MIN_PAIRS && verdict_us.len() >= MIN_TRIALS;
        let next_ends = measuring.elapsed() + cycle.elapsed() / 2;
        if (enough && next_ends >= budget) || out.failed > 20 {
            break;
        }
    }
    if blocked_sets(&rig) != before {
        out.violation("the standing population changed across the trials");
    }

    let pairs = checked_s.len() as u64;
    let mode = rig.mode;
    let peak_rss_mb = host::peak_rss_mb();
    let leftovers = rig.teardown();
    for _ in 0..leftovers {
        out.violation("a task ended in an error or a checksum missed its reference");
    }

    // Times are read where the host was calmest (see `stats::calm`); the
    // ratio is paired, so a slow phase cancels inside it and the median
    // serves.
    let values = &mut out.values;
    values.set("setup_s", stats::calm(&setup_s));
    values.set("unchecked_ops_per_s", ops as f64 / stats::calm(&unchecked_s));
    values.set("checked_ops_per_s", ops as f64 / stats::calm(&checked_s));
    values.set("overhead_ratio", stats::median(&ratio));
    values.set("cpu_us_per_op", stats::calm(&checked_cpu_us_per_op));
    // An avoidance verdict is work on the calling thread, as slow as the
    // host makes it: it is read at the calmest block of trials. A
    // periodic checker's verdict is the wait for its next tick, which the
    // host hardly moves; there sampling is the only noise and the whole
    // series the best estimate.
    let percentile = |p| match mode {
        Mode::Avoidance => stats::blockwise_percentile(&verdict_us, p),
        Mode::Detection | Mode::Dist => stats::percentile(&verdict_us, p),
    };
    match (percentile(50.0), percentile(90.0)) {
        (Ok(p50), Ok(p90)) => {
            values.set("verdict_p50_us", p50);
            values.set("verdict_p90_us", p90);
        }
        (Err(why), _) | (_, Err(why)) => out.violation(format!("verdict percentiles: {why}")),
    }
    out.values.set("peak_rss_mb", peak_rss_mb);

    out.notes.push(format!(
        "samples: {} set-ups, {pairs} pairs ({} + {} rounds a pair, {ops} ops a round), \
         {} verdicts of {trials} trials",
        setup_s.len(),
        turns[UNCHECKED].rounds,
        turns[CHECKED].rounds,
        verdict_us.len()
    ));
    let rounds_a_pair = (turns[UNCHECKED].rounds + turns[CHECKED].rounds) as u64;
    out.attempted = pairs * rounds_a_pair * ops + trials;
    Ok(out)
}
