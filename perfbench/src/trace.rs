//! Bench-owned tracing for the traced run.
//!
//! The program itself is not instrumented here: the benchmark wraps its own
//! spans around each call it makes into a layer's public functions. Every
//! op is one root span (its wall time, timed by the client that issued
//! it) whose children are the layer calls the op made. Totals cover every
//! span; the span records themselves are kept in memory only up to
//! [`SPAN_BUFFER`] per client and written out once, at the end, through
//! `heteromap_obs::export`.

use heteromap_obs::util::UtilizationReport;
use heteromap_obs::{SpanRecord, TraceSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span records kept per client for the Chrome-trace file.
pub const SPAN_BUFFER: usize = 20_000;

/// Largest share of op wall time the layer spans may leave unattributed
/// (bench glue between layer calls) before the traced run is rejected.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// Aggregated durations of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration of direct child spans.
    pub child_ns: u64,
}

impl Totals {
    /// Time not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }

    /// Mean duration per span.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }
}

/// One client's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    next_id: u64,
    /// The open op: its id and name. Layer spans attach to it.
    root: Option<(u64, &'static str)>,
    spans: Vec<SpanRecord>,
    dropped: u64,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; `thread` labels its
    /// spans in the Chrome trace.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Tracer {
            epoch,
            thread,
            next_id: 1,
            root: None,
            spans: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    /// Opens an op: spans recorded until [`Tracer::end_op`] are its
    /// children.
    pub fn begin_op(&mut self, name: &'static str) {
        let id = self.fresh_id();
        self.root = Some((id, name));
    }

    /// Closes the open op with the client's own timestamps.
    pub fn end_op(&mut self, cat: &'static str, start: Instant, end: Instant) {
        let (id, name) = self.root.take().expect("end_op without begin_op");
        self.push(id, name, cat, start, end, 0);
    }

    /// Times `f` as a span named `name` under the open op (or as a root of
    /// its own when no op is open).
    pub fn span<R>(&mut self, name: &'static str, cat: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, cat, start, Instant::now());
        out
    }

    /// Records an already-timed span under the open op.
    pub fn record(&mut self, name: &'static str, cat: &'static str, start: Instant, end: Instant) {
        let id = self.fresh_id();
        let parent = match self.root {
            Some((root_id, root_name)) => {
                let dur = end.saturating_duration_since(start).as_nanos() as u64;
                self.totals.entry(root_name).or_default().child_ns += dur;
                root_id
            }
            None => 0,
        };
        self.push(id, name, cat, start, end, parent);
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        (u64::from(self.thread) << 40) | self.next_id
    }

    fn push(
        &mut self,
        id: u64,
        name: &'static str,
        cat: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
    ) {
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        let totals = self.totals.entry(name).or_default();
        totals.count += 1;
        totals.total_ns += dur_ns;
        if self.spans.len() < SPAN_BUFFER {
            self.spans.push(SpanRecord {
                name,
                cat,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
                thread: self.thread,
                id,
                parent,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Totals of one span name (zero when it never closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Folds another client's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.child_ns += t.child_ns;
        }
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    /// Share of the `root` ops' wall time that no layer span covers. The
    /// layer self times plus this remainder add up to the op wall time.
    pub fn unattributed_ratio(&self, root: &str) -> f64 {
        let t = self.totals(root);
        crate::stats::ratio(t.self_ns() as f64, t.total_ns as f64)
    }

    /// The recorded spans as an observability snapshot, ordered by start,
    /// ready for `chrome_trace_json` and `phase_table`.
    pub fn into_snapshot(mut self) -> TraceSnapshot {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        TraceSnapshot {
            spans: self.spans,
            spans_dropped: self.dropped,
            events: Vec::new(),
            events_dropped: 0,
            utilization: UtilizationReport::from_regions(&[], 0),
        }
    }
}

/// Times `f` as a span when tracing; otherwise just runs it.
pub fn span_opt<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    cat: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, cat, f),
        None => f(),
    }
}

/// Splits a serve call into the layers it runs, from re-issued component
/// timings: `ivector` (model), `predict` (charged only for the share of
/// requests that missed the cache) and `deploy` (core, including the
/// accelerator cost model). Returns serve's own remainder, which is
/// negative when the components over-account the call.
pub fn serve_self_ns(
    call_ns: f64,
    ivector_ns: f64,
    predict_ns: f64,
    miss_share: f64,
    deploy_ns: f64,
) -> f64 {
    call_ns - ivector_ns - predict_ns * miss_share - deploy_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, ns: u64) -> Instant {
        epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 1);
        // Op 1: 100 ns wall, children 30 + 50 ns.
        t.begin_op("op");
        t.record("graph.measure", "graph", at(epoch, 0), at(epoch, 30));
        t.record("kernels.run", "kernels", at(epoch, 35), at(epoch, 85));
        t.end_op("bench", at(epoch, 0), at(epoch, 100));
        // Op 2: 50 ns wall, one 45 ns child.
        t.begin_op("op");
        t.record("kernels.run", "kernels", at(epoch, 200), at(epoch, 245));
        t.end_op("bench", at(epoch, 200), at(epoch, 250));

        let op = t.totals("op");
        assert_eq!((op.count, op.total_ns, op.child_ns), (2, 150, 125));
        assert_eq!(op.self_ns(), 25);
        assert_eq!(t.totals("kernels.run").total_ns, 95);
        assert_eq!(
            t.totals("kernels.run").self_ns(),
            95,
            "leaf spans are all self"
        );
        // Reconciliation: layer self times + op remainder = op wall.
        let layers: u64 = ["graph.measure", "kernels.run"]
            .iter()
            .map(|n| t.totals(n).self_ns())
            .sum();
        assert_eq!(layers + op.self_ns(), op.total_ns);
        assert!((t.unattributed_ratio("op") - 25.0 / 150.0).abs() < 1e-12);

        let snap = t.into_snapshot();
        assert_eq!(snap.spans.len(), 5);
        let root = snap.spans.iter().find(|s| s.name == "op").unwrap();
        assert!(snap
            .spans
            .iter()
            .filter(|s| s.name != "op" && s.start_ns < 100)
            .all(|s| s.parent == root.id));
    }

    #[test]
    fn merge_sums_totals_and_buffers_are_bounded() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 1);
        let mut b = Tracer::new(epoch, 2);
        for _ in 0..SPAN_BUFFER + 5 {
            b.record("x", "bench", at(epoch, 0), at(epoch, 2));
        }
        a.record("x", "bench", at(epoch, 0), at(epoch, 4));
        a.merge(b);
        let x = a.totals("x");
        assert_eq!(
            (x.count, x.total_ns),
            (SPAN_BUFFER as u64 + 6, 2 * SPAN_BUFFER as u64 + 14)
        );
        let snap = a.into_snapshot();
        assert_eq!(snap.spans.len(), SPAN_BUFFER + 1);
        assert_eq!(snap.spans_dropped, 5);
        assert!(snap.chrome_trace_json().contains("\"x\""));
    }

    #[test]
    fn serve_split_arithmetic() {
        // 1400 ns call: 250 ivector + 800 deploy, 2% of requests missed a
        // 15 µs predictor call.
        let own = serve_self_ns(1_400.0, 250.0, 15_000.0, 0.02, 800.0);
        assert!((own - 50.0).abs() < 1e-9);
        assert!(serve_self_ns(1_000.0, 500.0, 0.0, 0.0, 700.0) < 0.0);
    }
}
