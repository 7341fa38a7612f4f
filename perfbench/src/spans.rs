//! In-memory span recorder for the traced run.
//!
//! Each benchmark-owned thread (the driver, the reader) keeps its own
//! [`Recorder`]; the spans stay in memory and are written out once the
//! workload ends. A span has a name, a start, an end, its parent, the
//! thread that recorded it and the workload-run (repetition) id.
//!
//! Work that happens many times per second — one pull of the event
//! iterator, one query — is recorded as an [`Aggregate`]: the summed
//! duration of many short intervals under one parent span. A span per
//! event would cost more than the work it brackets. The intervals an
//! aggregate sums are disjoint from each other and from the parent's
//! other children, because one thread records them one after another.
//!
//! Self time is a span's duration minus the part of it covered by its
//! children (the union of their intervals, clipped to the span) minus its
//! aggregates. On one thread the self times of all spans plus all
//! aggregate totals add up to the root spans' durations, which is how the
//! run checks that no time went unnamed.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span within its recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

/// The summed duration of many short intervals under one parent span.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub name: &'static str,
    pub parent: SpanId,
    pub total_ns: u64,
    pub count: u64,
}

/// A per-thread span recorder. Times are nanoseconds since a shared
/// origin, so recorders of different threads can be merged.
pub struct Recorder {
    origin: Instant,
    thread: &'static str,
    run: u32,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    stack: Vec<SpanId>,
}

impl Recorder {
    /// An empty recorder for `thread`, timing from `origin`.
    pub fn new(origin: Instant, thread: &'static str) -> Self {
        Recorder {
            origin,
            thread,
            run: 0,
            spans: Vec::new(),
            aggregates: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The thread this recorder traces.
    pub fn thread(&self) -> &'static str {
        self.thread
    }

    /// Tag spans opened from now on with workload-run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span starting now, as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        self.open_at(name, Instant::now())
    }

    /// Open a span that started at `start`.
    pub fn open_at(&mut self, name: &'static str, start: Instant) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` now; it must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        self.close_at(id, Instant::now());
    }

    /// Close span `id` at `end`; it must be the innermost open span.
    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.ns(end);
    }

    /// A closed span from `start` to `end` under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.open_at(name, start);
        self.close_at(id, end);
    }

    /// Attach `count` intervals totalling `total` to the innermost open
    /// span.
    pub fn aggregate(&mut self, name: &'static str, total: Duration, count: u64) {
        let parent = *self.stack.last().expect("an aggregate needs an open parent span");
        self.aggregates.push(Aggregate { name, parent, total_ns: total.as_nanos() as u64, count });
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Totals in seconds of every aggregate named `name`, one per parent.
    pub fn aggregate_totals(&self, name: &str) -> Vec<f64> {
        self.aggregates
            .iter()
            .filter(|a| a.name == name)
            .map(|a| a.total_ns as f64 * 1e-9)
            .collect()
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<i128> {
        self_times(&self.spans, &self.aggregates)
    }

    /// Wall time of the root spans minus the self times of all spans and
    /// the aggregate totals: zero when every nanosecond of the thread's
    /// traced time is attributed to exactly one span or aggregate.
    pub fn unattributed_ns(&self) -> i128 {
        let roots: i128 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .sum();
        let selves: i128 = self.self_times().iter().sum();
        let aggs: i128 = self.aggregates.iter().map(|a| i128::from(a.total_ns)).sum();
        roots - selves - aggs
    }

    /// Append the spans and aggregates as JSON lines to `out`.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        let selves = self.self_times();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"thread\":\"{}\",\"run\":{},\"id\":{id},\
                 \"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                self.thread, s.run, s.name, s.start_ns, s.end_ns, selves[id]
            );
        }
        for a in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"thread\":\"{}\",\"aggregate\":\"{}\",\
                 \"parent\":{},\"total_ns\":{},\"count\":{}}}",
                self.thread, a.name, a.parent, a.total_ns, a.count
            );
        }
    }
}

/// Self time of each span: its duration minus the length of the union of
/// its children's intervals (clipped to the span) minus the totals of its
/// aggregates. Negative only when the aggregates claim more time than the
/// span had left, which is a recording error the caller can detect.
pub fn self_times(spans: &[Span], aggregates: &[Aggregate]) -> Vec<i128> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    let mut agg = vec![0i128; spans.len()];
    for a in aggregates {
        agg[a.parent] += i128::from(a.total_ns);
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .zip(agg)
        .map(|((s, kids), agg)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            i128::from(s.end_ns - s.start_ns) - i128::from(covered) - agg
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, run: 0 }
    }

    #[test]
    fn self_time_handles_nested_overlapping_and_disjoint_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Two overlapping children (as spans from two threads under one
            // parent would be): [10, 40) and [30, 50) cover 40, not 50.
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            // A disjoint child, and one that runs past its parent's end and
            // is clipped to it.
            span("c", 60, 70, Some(0)),
            span("d", 90, 120, Some(0)),
            // A grandchild nested inside "a" only counts against "a".
            span("a.1", 12, 20, Some(1)),
        ];
        let aggs = vec![Aggregate { name: "idle", parent: 3, total_ns: 4, count: 2 }];
        let st = self_times(&spans, &aggs);
        assert_eq!(st, vec![100 - 40 - 10 - 10, 30 - 8, 20, 10 - 4, 30, 8]);
    }

    #[test]
    fn a_childless_span_is_all_self_time_and_aggregates_can_overdraw() {
        let spans = vec![span("leaf", 5, 25, None)];
        assert_eq!(self_times(&spans, &[]), vec![20]);
        let over = vec![Aggregate { name: "x", parent: 0, total_ns: 30, count: 1 }];
        assert_eq!(self_times(&spans, &over), vec![-10]);
    }

    #[test]
    fn sequential_recording_on_one_thread_attributes_every_nanosecond() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, "driver");
        let root = rec.open_at("driver", origin);
        rec.set_run(1);
        let t = |us: u64| origin + Duration::from_micros(us);
        let rep = rec.open_at("rep", t(10));
        rec.record("setup", t(10), t(15));
        let stream = rec.open_at("stream", t(15));
        rec.aggregate("feed", Duration::from_micros(30), 100);
        rec.aggregate("driver", Duration::from_micros(50), 100);
        rec.close_at(stream, t(95));
        rec.close_at(rep, t(99));
        rec.close_at(root, t(100));
        assert_eq!(rec.unattributed_ns(), 0);
        let st = rec.self_times();
        assert_eq!(st[stream], 0);
        assert_eq!(st[rep], 4_000);
        assert_eq!(st[root], 11_000);
        assert_eq!(rec.durations("setup"), vec![5e-6]);
        assert_eq!(rec.aggregate_totals("feed"), vec![30e-6]);
        assert_eq!(rec.spans[rep].run, 1);
        let mut out = String::new();
        rec.write_jsonl("w", &mut out);
        assert_eq!(out.lines().count(), 6);
        assert!(out.contains("\"name\":\"rep\""));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::new(Instant::now(), "driver");
        let a = rec.open("a");
        let _b = rec.open("b");
        rec.close(a);
    }
}
