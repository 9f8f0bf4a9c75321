//! The metrics the benchmark reports, by name, with their units — the
//! same tables `BENCHMARK.json` carries (a unit test holds the two
//! together). End-to-end metrics come from the untraced run and have a
//! bound; per-layer metrics come from the traced run and have none.

/// How long one run measures unless told otherwise — `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// the change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("unchecked_ops_per_s", "op/s", Better::Higher, 0.25),
    e2e("checked_ops_per_s", "op/s", Better::Higher, 0.25),
    e2e("overhead_ratio", "ratio", Better::Lower, 0.25),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("verdict_p50_us", "us", Better::Lower, 0.25),
    e2e("verdict_p90_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

pub const PER_LAYER: [PerLayer; 63] = [
    low("core.deps.block_ns", "ns"),
    low("core.deps.unblock_ns", "ns"),
    low("core.deps.snapshot_us", "us"),
    low("core.deps.journal_behind", "count"),
    low("core.engine.sync_ns_per_delta", "ns"),
    low("core.engine.check_task_ns", "ns"),
    low("core.engine.check_full_us", "us"),
    low("core.engine.reset_us", "us"),
    low("core.engine.deltas_applied", "count"),
    low("core.engine.resyncs", "count"),
    low("core.engine.order_rebuilds", "count"),
    high("core.engine.incremental_share", "share"),
    low("core.engine.sg_edges", "count"),
    low("core.engine.wfg_edges", "count"),
    low("core.checker.rebuild_us", "us"),
    low("core.checker.full_rebuilds", "count"),
    low("core.verifier.block_ns", "ns"),
    low("core.verifier.unblock_ns", "ns"),
    low("core.verifier.self_ns", "ns"),
    low("core.verifier.checks", "count"),
    high("core.verifier.fastpath_share", "share"),
    low("core.verifier.engine_lock_waits", "count"),
    low("core.verifier.combined_checks", "count"),
    low("sync.phaser.seam_op_ns", "ns"),
    low("sync.phaser.resolve_ns_per_waiter", "ns"),
    low("sync.phaser.register_ns", "ns"),
    low("async.executor.spawn_ns", "ns"),
    low("async.executor.switch_ns", "ns"),
    low("async.executor.wakes_per_wait", "ratio"),
    low("async.frontend.round_p50_us", "us"),
    low("async.frontend.round_p99_us", "us"),
    low("dist.wire.encode_ns_per_delta", "ns"),
    low("dist.wire.decode_ns_per_delta", "ns"),
    low("dist.wire.bytes_per_delta", "B"),
    low("dist.store.apply_ns_per_delta", "ns"),
    low("dist.store.publish_full_us", "us"),
    low("dist.store.fetch_all_us", "us"),
    low("dist.tcp.publish_rtt_p50_us", "us"),
    low("dist.tcp.publish_rtt_p99_us", "us"),
    low("dist.tcp.fetch_rtt_p50_us", "us"),
    high("dist.tcp.frames_per_flush", "ratio"),
    low("dist.tcp.failures", "count"),
    low("dist.server.served", "count"),
    low("dist.server.protocol_errors", "count"),
    low("dist.server.reply_queue_max", "count"),
    low("dist.detector.round_us", "us"),
    low("dist.detector.merge_us", "us"),
    low("dist.detector.confirm_fetches", "count"),
    high("dist.detector.incremental_share", "share"),
    low("dist.site.publish_resyncs", "count"),
    low("workloads.kernels.solve_ms.BT", "ms"),
    low("workloads.kernels.solve_ms.CG", "ms"),
    low("workloads.kernels.solve_ms.FT", "ms"),
    low("workloads.kernels.solve_ms.MG", "ms"),
    low("workloads.kernels.solve_ms.RT", "ms"),
    low("workloads.kernels.solve_ms.SP", "ms"),
    low("workloads.kernels.blocks_per_solve", "count"),
    low("attrib.added_ns_per_op", "ns"),
    high("attrib.explained_share", "share"),
    low("attrib.wait_ns_per_op", "ns"),
    low("trace.overhead_share", "share"),
    high("contended.unchecked_ops_per_s", "op/s"),
    high("contended.checked_ops_per_s", "op/s"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of any reported metric.
pub fn unit(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Named measured values, in report order.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit(name).is_some(), "unknown metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// The metric names of `expected` that are missing or not finite.
    pub fn missing<'a>(&self, expected: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
        expected.filter(|n| !self.get(n).is_some_and(f64::is_finite)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(list: &Value) -> Vec<(String, String, String, Option<f64>)> {
        let Value::Seq(items) = list else { panic!("metric list") };
        items
            .iter()
            .map(|m| {
                let text = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                let bound = match m.get("bound") {
                    Some(Value::Float(b)) => Some(*b),
                    Some(Value::UInt(b)) => Some(*b as f64),
                    _ => None,
                };
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect()
    }

    /// `BENCHMARK.json` (one directory up, at the repo root) must list
    /// exactly the metrics and workloads the harness reports.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(json.get("run_seconds"), Some(&Value::UInt(RUN_SECONDS)));
        let e2e = names(json.get("end_to_end").expect("end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit, better, bound)) in END_TO_END.iter().zip(&e2e) {
            assert_eq!((m.name, m.unit, m.better.as_str()), (&**name, &**unit, &**better));
            assert_eq!(Some(m.bound), *bound, "{name}");
        }
        let layers = names(json.get("per_layer").expect("per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better, _)) in PER_LAYER.iter().zip(&layers) {
            assert_eq!((m.name, m.unit, m.better.as_str()), (&**name, &**unit, &**better));
        }
        let Some(Value::Seq(workloads)) = json.get("workloads") else { panic!("workloads") };
        let listed: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let ours: Vec<Value> =
            crate::gen::Workload::ALL.iter().map(|w| Value::Str(w.name().into())).collect();
        assert_eq!(listed, ours.iter().collect::<Vec<_>>());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn values_report_what_is_missing() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        v.set("peak_rss_mb", f64::NAN);
        let missing = v.missing(["setup_s", "peak_rss_mb", "cpu_us_per_op"].into_iter());
        assert_eq!(missing, vec!["peak_rss_mb", "cpu_us_per_op"]);
    }
}
