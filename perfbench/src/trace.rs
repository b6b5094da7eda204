//! In-memory span recorder for the traced run.
//!
//! Every span is a (name, start, end, parent) record kept in a `Vec` and
//! written out once at exit as Chrome trace-event JSON (opens in Perfetto
//! or `chrome://tracing`). Per-layer totals, self times and counts are
//! rolled up from the same records. When tracing is off, [`Tracer::span`]
//! calls straight through and records nothing, so untraced runs pay one
//! branch per call.

use serde::Content;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans beyond this many are still rolled up but not exported, which keeps
/// the trace file of a long run to a few tens of megabytes.
const EXPORT_LIMIT: usize = 100_000;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Spans {
    done: Vec<Span>,
    open: Vec<usize>,
}

/// Records nested spans on the benchmark's own thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Spans>,
}

/// Rolled-up time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    /// Sum of the spans' durations.
    pub total: f64,
    /// `total` minus the time covered by direct children.
    pub self_time: f64,
    /// Number of spans.
    pub count: u64,
}

impl Tracer {
    /// A tracer that records when `on`, and is a pass-through otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: RefCell::new(Spans::default()) }
    }

    /// True when spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = spans.open.last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            spans.done.push(Span { name, start, end: start, parent });
            let index = spans.done.len() - 1;
            spans.open.push(index);
            index
        };
        let out = f();
        let mut spans = self.spans.borrow_mut();
        spans.done[index].end = self.origin.elapsed().as_secs_f64();
        spans.open.pop();
        out
    }

    /// Time each span's direct children cover, by span index.
    fn child_time(spans: &Spans) -> Vec<f64> {
        let mut covered = vec![0.0f64; spans.done.len()];
        for s in &spans.done {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        covered
    }

    /// Total, self time and count per span name.
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let spans = self.spans.borrow();
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (s, children) in spans.done.iter().zip(Self::child_time(&spans)) {
            let r = out.entry(s.name).or_default();
            r.total += s.end - s.start;
            r.self_time += s.end - s.start - children;
            r.count += 1;
        }
        out
    }

    /// For every span called `phase`, the share of its duration covered by
    /// its direct children; the smallest share over all such spans (1.0
    /// when there are none).
    pub fn min_coverage(&self, phase: &str) -> f64 {
        let spans = self.spans.borrow();
        spans
            .done
            .iter()
            .zip(Self::child_time(&spans))
            .filter(|(s, _)| s.name == phase && s.end > s.start)
            .map(|(s, c)| c / (s.end - s.start))
            .fold(1.0, f64::min)
    }

    /// Chrome trace-event JSON (`"ph": "X"` complete events, microseconds).
    /// Each event's args carry the workload and the parent span's name.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let spans = self.spans.borrow();
        let events: Vec<Content> = spans
            .done
            .iter()
            .take(EXPORT_LIMIT)
            .map(|s| {
                let parent = s.parent.map(|p| spans.done[p].name).unwrap_or("");
                Content::Map(vec![
                    ("name".into(), Content::Str(s.name.into())),
                    ("ph".into(), Content::Str("X".into())),
                    ("ts".into(), Content::F64(s.start * 1e6)),
                    ("dur".into(), Content::F64((s.end - s.start) * 1e6)),
                    ("pid".into(), Content::U64(1)),
                    ("tid".into(), Content::U64(1)),
                    (
                        "args".into(),
                        Content::Map(vec![
                            ("workload".into(), Content::Str(workload.into())),
                            ("parent".into(), Content::Str(parent.into())),
                        ]),
                    ),
                ])
            })
            .collect();
        let dropped = spans.done.len().saturating_sub(EXPORT_LIMIT) as u64;
        let doc = Content::Map(vec![
            ("traceEvents".into(), Content::Seq(events)),
            ("displayTimeUnit".into(), Content::Str("ms".into())),
            (
                "otherData".into(),
                Content::Map(vec![("dropped_events".into(), Content::U64(dropped))]),
            ),
        ]);
        serde_json::to_string(&doc).expect("trace events serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_roll_up_total_and_self_time() {
        let tr = Tracer::new(true);
        tr.span("outer", || {
            tr.span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
            tr.span("inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let r = tr.rollup();
        assert_eq!(r["inner"].count, 2);
        assert!(r["outer"].total >= r["inner"].total);
        assert!(r["outer"].self_time < 0.01, "children cover the outer span");
        assert!(tr.min_coverage("outer") > 0.9);
        assert!(tr.to_chrome_json("w").contains("\"parent\":\"outer\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 7), 7);
        assert!(tr.rollup().is_empty());
    }
}
