//! Spans recorded by the harness around its calls into each layer (spans
//! inside the product are a later change): name, start, end, the span
//! that caused it, and the id of the operation they all belong to. Spans
//! stay in memory for the whole run and are written out, sampled, when the
//! benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation (one replayed delta, one batch, one round) the span
    /// belongs to; spans of one operation share it.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    pub fn enter(&mut self, name: &'static str, op: u32) -> Open {
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(index);
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        Open(index)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        let end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its child spans cover.
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A span's self time: its duration minus what its direct children cover
/// (children nest and do not overlap each other, so their durations add).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += own;
    }
    out
}

/// What one pair of clock reads costs: subtracted from every span mean,
/// since a 30 ns timer is a fifth of a 150 ns registry insert.
pub fn clock_overhead_ns() -> f64 {
    let mut tracer = Tracer::new();
    for op in 0..20_000 {
        tracer.span("clock", op, || {});
    }
    let mut durations: Vec<f64> = tracer.spans().iter().map(|s| s.duration_ns() as f64).collect();
    durations.sort_by(f64::total_cmp);
    durations[durations.len() / 2]
}

/// The spans as JSON, at most `per_name` of each name (the first ones:
/// whole operations stay together).
pub fn sampled_json(spans: &[Span], per_name: usize) -> Value {
    let mut kept: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        let seen = kept.entry(span.name).or_default();
        if *seen >= per_name {
            continue;
        }
        *seen += 1;
        out.push(Value::Map(vec![
            ("id".into(), Value::UInt(index as u64)),
            ("name".into(), Value::Str(span.name.into())),
            ("start_ns".into(), Value::UInt(span.start_ns)),
            ("end_ns".into(), Value::UInt(span.end_ns)),
            ("parent".into(), span.parent.map_or(Value::Null, |p| Value::UInt(p.into()))),
            ("op".into(), Value::UInt(span.op.into())),
        ]));
    }
    Value::Seq(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] > block [10,40] > shard [15,25]; op > sync [50,90].
        let spans = vec![
            span("op", 0, 100, None),
            span("block", 10, 40, Some(0)),
            span("shard", 15, 25, Some(1)),
            span("sync", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 40, 30 - 10, 10, 40]);
        let t = totals(&spans);
        assert_eq!(t["op"], Totals { count: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(t["block"], Totals { count: 1, total_ns: 30, self_ns: 20 });
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut tracer = Tracer::new();
        tracer.span("outer", 7, || {});
        let outer = tracer.enter("outer", 8);
        tracer.span("inner", 8, || {});
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[1].op, spans[2].op), (8, 8));
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn sampling_keeps_the_first_of_each_name() {
        let spans: Vec<Span> =
            (0..10).map(|i| span(if i % 2 == 0 { "a" } else { "b" }, i, i + 1, None)).collect();
        let Value::Seq(kept) = sampled_json(&spans, 2) else { panic!("sequence") };
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].get("id"), Some(&Value::UInt(0)));
        assert_eq!(kept[3].get("id"), Some(&Value::UInt(3)));
    }
}
