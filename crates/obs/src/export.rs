//! Trace exporters: chrome://tracing file and flat phase table.

use crate::event::{snapshot_events, EventRecord};
use crate::json::{Object, Value};
use crate::recorder::{snapshot_spans, SpanRecord};
use crate::util::{utilization_report, UtilizationReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

/// Environment variable naming the chrome trace output file.
pub const TRACE_FILE_ENV_VAR: &str = "HETEROMAP_TRACE_FILE";

/// Default chrome trace output file.
pub const DEFAULT_TRACE_FILE: &str = "heteromap_trace.json";

/// The chrome trace path: `$HETEROMAP_TRACE_FILE` or the default.
pub fn trace_file_path() -> PathBuf {
    std::env::var_os(TRACE_FILE_ENV_VAR)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(DEFAULT_TRACE_FILE))
}

/// A coherent copy of everything the observability layer has recorded.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// All stable spans, ordered by start time.
    pub spans: Vec<SpanRecord>,
    /// Spans lost to ring wraparound.
    pub spans_dropped: u64,
    /// Structured events, oldest first.
    pub events: Vec<EventRecord>,
    /// Events lost to the log bound.
    pub events_dropped: u64,
    /// Aggregated per-worker utilization.
    pub utilization: UtilizationReport,
}

/// Captures the current spans, events, and utilization in one snapshot.
pub fn snapshot() -> TraceSnapshot {
    let (spans, spans_dropped) = snapshot_spans();
    let (events, events_dropped) = snapshot_events();
    TraceSnapshot {
        spans,
        spans_dropped,
        events,
        events_dropped,
        utilization: utilization_report(),
    }
}

/// Discards all recorded spans, events, and utilization samples.
pub fn reset() {
    crate::recorder::reset_spans();
    crate::event::reset_events();
    crate::util::reset_regions();
}

impl TraceSnapshot {
    /// Renders the snapshot in chrome://tracing `trace_event` format
    /// (load the file at `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Spans become complete (`ph:"X"`) events with microsecond
    /// timestamps; structured events become instants (`ph:"i"`).
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans.iter().map(|span| {
            Object::new()
                .field("name", span.name)
                .field("cat", span.cat)
                .field("ph", "X")
                .field("ts", span.start_ns as f64 / 1_000.0)
                .field("dur", span.dur_ns as f64 / 1_000.0)
                .field("pid", 1)
                .field("tid", span.thread)
                .field(
                    "args",
                    Object::new()
                        .field("id", span.id)
                        .field("parent", span.parent),
                )
        });
        let events = self.events.iter().map(|event| {
            Object::new()
                .field("name", event.kind)
                .field("cat", "event")
                .field("ph", "i")
                .field("ts", event.ts_ns as f64 / 1_000.0)
                .field("s", "t")
                .field("pid", 1)
                .field("tid", event.thread)
                .field("args", Object::new().field("detail", event.detail.as_str()))
        });
        Object::new()
            .field("traceEvents", spans.chain(events).collect::<Value>())
            .field("displayTimeUnit", "ms")
            .field(
                "otherData",
                Object::new()
                    .field("spans_dropped", self.spans_dropped)
                    .field("events_dropped", self.events_dropped),
            )
            .to_document()
    }

    /// Aggregates spans into per-(category, name) phase totals.
    pub fn phase_breakdown(&self) -> Vec<PhaseStat> {
        let mut phases: BTreeMap<(&'static str, &'static str), PhaseStat> = BTreeMap::new();
        for span in &self.spans {
            let stat = phases
                .entry((span.cat, span.name))
                .or_insert_with(|| PhaseStat {
                    cat: span.cat,
                    name: span.name,
                    count: 0,
                    total_ns: 0,
                    max_ns: 0,
                });
            stat.count += 1;
            stat.total_ns += span.dur_ns;
            stat.max_ns = stat.max_ns.max(span.dur_ns);
        }
        let mut out: Vec<PhaseStat> = phases.into_values().collect();
        out.sort_by_key(|stat| std::cmp::Reverse(stat.total_ns));
        out
    }

    /// Renders the phase breakdown as an aligned text table (bench bins
    /// print this after a run).
    pub fn phase_table(&self) -> String {
        let phases = self.phase_breakdown();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:<10} {:>8} {:>12} {:>12} {:>12}",
            "phase", "cat", "count", "total_ms", "mean_us", "max_us"
        );
        for p in &phases {
            let _ = writeln!(
                out,
                "{:<28} {:<10} {:>8} {:>12.3} {:>12.2} {:>12.2}",
                p.name,
                p.cat,
                p.count,
                p.total_ns as f64 / 1e6,
                p.mean_ns() / 1e3,
                p.max_ns as f64 / 1e3,
            );
        }
        if self.spans_dropped > 0 || self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "(dropped: {} spans, {} events)",
                self.spans_dropped, self.events_dropped
            );
        }
        out
    }
}

/// Aggregate statistics for one span name within a category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span category.
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Occurrences.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Longest single occurrence, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Mean duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Writes the current snapshot as a chrome://tracing file at `path`
/// (callers usually pass [`trace_file_path`]).
pub fn write_chrome_trace(path: &std::path::Path) -> io::Result<TraceSnapshot> {
    let snap = snapshot();
    std::fs::write(path, snap.chrome_trace_json())?;
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(name: &'static str, cat: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat,
            start_ns: start,
            dur_ns: dur,
            thread: 1,
            id: start + 1,
            parent: 0,
        }
    }

    fn sample_snapshot() -> TraceSnapshot {
        TraceSnapshot {
            spans: vec![
                span("predict", "core", 100, 2_000),
                span("predict", "core", 5_000, 4_000),
                span("ivector", "core", 0, 90),
            ],
            spans_dropped: 3,
            events: vec![EventRecord {
                ts_ns: 42,
                thread: 2,
                kind: "fault.transient",
                detail: "seed=7 \"quoted\"".to_string(),
            }],
            events_dropped: 0,
            utilization: UtilizationReport::from_regions(
                &[crate::util::RegionUtil {
                    label: "bfs",
                    wall_ns: 100,
                    busy_ns: vec![80, 60],
                }],
                0,
            ),
        }
    }

    #[test]
    fn chrome_trace_parses_and_carries_every_record() {
        let snap = sample_snapshot();
        let doc = json::parse(&snap.chrome_trace_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4, "3 spans + 1 instant");
        let complete: Vec<&json::Value> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        // Span timestamps are microseconds.
        let predict = complete
            .iter()
            .find(|e| e.get("ts").unwrap().as_f64() == Some(0.1))
            .unwrap();
        assert_eq!(predict.get("dur").unwrap().as_f64(), Some(2.0));
        assert_eq!(predict.get("name").unwrap().as_str(), Some("predict"));
        let instant = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .unwrap();
        assert_eq!(
            instant.get("args").unwrap().get("detail").unwrap().as_str(),
            Some("seed=7 \"quoted\"")
        );
        assert_eq!(
            doc.get("otherData")
                .unwrap()
                .get("spans_dropped")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn phase_breakdown_aggregates_by_cat_and_name() {
        let snap = sample_snapshot();
        let phases = snap.phase_breakdown();
        assert_eq!(phases.len(), 2);
        // Sorted by total time descending: predict (6000) before ivector (90).
        assert_eq!(phases[0].name, "predict");
        assert_eq!(phases[0].count, 2);
        assert_eq!(phases[0].total_ns, 6_000);
        assert_eq!(phases[0].max_ns, 4_000);
        assert!((phases[0].mean_ns() - 3_000.0).abs() < 1e-9);
        assert_eq!(phases[1].name, "ivector");
    }

    #[test]
    fn phase_table_mentions_every_phase_and_drops() {
        let snap = sample_snapshot();
        let table = snap.phase_table();
        assert!(table.contains("predict"));
        assert!(table.contains("ivector"));
        assert!(table.contains("dropped: 3 spans"));
    }

    #[test]
    fn trace_file_path_defaults_sensibly() {
        // The env var may or may not be set in the test environment; only
        // assert the default branch when it is absent.
        if std::env::var_os(TRACE_FILE_ENV_VAR).is_none() {
            assert_eq!(trace_file_path(), PathBuf::from(DEFAULT_TRACE_FILE));
        }
    }
}
