//! Exposition: Prometheus text format and JSON snapshots for a frozen set
//! of series, plus a parser for the text format so benches can prove the
//! output round-trips.
//!
//! The renderer follows the Prometheus text exposition conventions: one
//! `# HELP`/`# TYPE` header per metric name, label values escaped with
//! `\\`, `\"` and `\n`, histograms expanded to cumulative `_bucket{le=...}`
//! sample lines plus `_sum` and `_count`, with a closing `le="+Inf"`
//! bucket. Numbers render through Rust's shortest-round-trip `Display`, so
//! parsing a rendered value back yields the identical `f64`.

use crate::json::{Object, Value};

/// The frozen value of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last-value gauge.
    Gauge(f64),
    /// Fixed-bucket histogram state.
    Histogram {
        /// Upper bucket bounds (ascending, excluding `+Inf`).
        bounds: Vec<f64>,
        /// Per-bucket counts, one per bound plus the trailing overflow
        /// bucket (*not* cumulative; the renderer accumulates).
        buckets: Vec<u64>,
        /// Sum of recorded samples.
        sum: f64,
        /// Total recorded samples.
        count: u64,
    },
}

impl SeriesValue {
    /// The Prometheus `# TYPE` keyword for this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            SeriesValue::Counter(_) => "counter",
            SeriesValue::Gauge(_) => "gauge",
            SeriesValue::Histogram { .. } => "histogram",
        }
    }
}

/// One frozen series: name, sorted labels, help text and value.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// One-line help text.
    pub help: String,
    /// The frozen value.
    pub value: SeriesValue,
}

/// One sample line of the exposition format, as the parser sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sample name (may carry a `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Escapes a label value per the exposition rules (`\\`, `\"`, `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a label set (optionally with an extra `le` pair appended) as
/// `{k="v",...}`, or the empty string when there are no labels.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Renders an `f64` exposition value (`+Inf`/`-Inf`/`NaN` spelled the
/// Prometheus way; finite values via shortest-round-trip `Display`).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a frozen series list in the Prometheus text exposition format.
///
/// Series must arrive grouped by name (the hub's BTreeMap order guarantees
/// this); each new name emits one `# HELP` and `# TYPE` header.
pub fn prometheus_text(series: &[SeriesSnapshot]) -> String {
    let mut out = String::new();
    let mut prev_name: Option<&str> = None;
    for s in series {
        if prev_name != Some(s.name.as_str()) {
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} {}\n",
                s.name,
                s.help.replace('\\', "\\\\").replace('\n', "\\n"),
                s.name,
                s.value.type_name()
            ));
            prev_name = Some(s.name.as_str());
        }
        match &s.value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!("{}{} {v}\n", s.name, label_block(&s.labels, None)));
            }
            SeriesValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    fmt_value(*v)
                ));
            }
            SeriesValue::Histogram {
                bounds,
                buckets,
                sum,
                count,
            } => {
                let mut cumulative = 0u64;
                for (i, bound) in bounds.iter().enumerate() {
                    cumulative += buckets.get(i).copied().unwrap_or(0);
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        s.name,
                        label_block(&s.labels, Some(&fmt_value(*bound)))
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{} {count}\n",
                    s.name,
                    label_block(&s.labels, Some("+Inf"))
                ));
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    s.name,
                    label_block(&s.labels, None),
                    fmt_value(*sum)
                ));
                out.push_str(&format!(
                    "{}_count{} {count}\n",
                    s.name,
                    label_block(&s.labels, None)
                ));
            }
        }
    }
    out
}

/// Expands a frozen series list into the sample lines [`prometheus_text`]
/// renders for it — the ground truth a round-trip test compares
/// [`parse_prometheus`] output against.
pub fn samples(series: &[SeriesSnapshot]) -> Vec<PromSample> {
    let mut out = Vec::new();
    for s in series {
        match &s.value {
            SeriesValue::Counter(v) => out.push(PromSample {
                name: s.name.clone(),
                labels: s.labels.clone(),
                value: *v as f64,
            }),
            SeriesValue::Gauge(v) => out.push(PromSample {
                name: s.name.clone(),
                labels: s.labels.clone(),
                value: *v,
            }),
            SeriesValue::Histogram {
                bounds,
                buckets,
                sum,
                count,
            } => {
                let mut cumulative = 0u64;
                for (i, bound) in bounds.iter().enumerate() {
                    cumulative += buckets.get(i).copied().unwrap_or(0);
                    let mut labels = s.labels.clone();
                    labels.push(("le".to_string(), fmt_value(*bound)));
                    out.push(PromSample {
                        name: format!("{}_bucket", s.name),
                        labels,
                        value: cumulative as f64,
                    });
                }
                let mut labels = s.labels.clone();
                labels.push(("le".to_string(), "+Inf".to_string()));
                out.push(PromSample {
                    name: format!("{}_bucket", s.name),
                    labels,
                    value: *count as f64,
                });
                out.push(PromSample {
                    name: format!("{}_sum", s.name),
                    labels: s.labels.clone(),
                    value: *sum,
                });
                out.push(PromSample {
                    name: format!("{}_count", s.name),
                    labels: s.labels.clone(),
                    value: *count as f64,
                });
            }
        }
    }
    out
}

/// Parses Prometheus text exposition back into sample lines, skipping
/// comments and blank lines. Returns an error naming the first malformed
/// line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    if i == 0 {
        return Err("expected metric name".to_string());
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    let rest = &line[i..];
    let rest = if let Some(stripped) = rest.strip_prefix('{') {
        let (parsed, remainder) = parse_labels(stripped)?;
        labels = parsed;
        remainder
    } else {
        rest
    };
    let value_str = rest.trim();
    // Reject a second brace or garbage: the value must be one token.
    let value_str = value_str
        .split_whitespace()
        .next()
        .ok_or("missing sample value")?;
    let value = parse_value(value_str)?;
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

/// Owned label pairs plus the unparsed remainder of the line.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parses `k="v",...}` (the leading `{` already consumed); returns the
/// pairs and the remainder after the closing brace.
fn parse_labels(s: &str) -> Result<ParsedLabels<'_>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = rest.find('=').ok_or("label missing '='")?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() {
            return Err("empty label name".to_string());
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value missing opening quote")?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((idx, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, other)) => {
                        // Unknown escape: the spec says keep it literally.
                        value.push('\\');
                        value.push(other);
                    }
                    None => return Err("dangling escape in label value".to_string()),
                },
                '"' => {
                    end = Some(idx + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((key, value));
        rest = &rest[end..];
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        }
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        s => s
            .parse::<f64>()
            .map_err(|e| format!("bad sample value {s:?}: {e}")),
    }
}

/// Renders a frozen series list as a JSON document, one series per line.
/// A histogram's buckets carry per-bucket (not cumulative) counts, and
/// the overflow bucket's `le` is `null`.
pub fn snapshot_json(series: &[SeriesSnapshot]) -> String {
    let rows = series.iter().map(|s| {
        let labels = s
            .labels
            .iter()
            .fold(Object::new(), |o, (k, v)| o.field(k, v.as_str()));
        let row = Object::new()
            .field("name", s.name.as_str())
            .field("labels", labels)
            .field("type", s.value.type_name());
        match &s.value {
            SeriesValue::Counter(v) => row.field("value", *v),
            SeriesValue::Gauge(v) => row.field("value", *v),
            SeriesValue::Histogram {
                bounds,
                buckets,
                sum,
                count,
            } => {
                let les = bounds.iter().map(|&b| Some(b)).chain([None]);
                let buckets: Value = les
                    .zip(buckets)
                    .map(|(le, &n)| Object::new().field("le", le).field("count", n))
                    .collect();
                row.field("buckets", buckets)
                    .field("sum", *sum)
                    .field("count", *count)
            }
        }
    });
    Object::new()
        .field("series", rows.collect::<Value>())
        .to_document()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn counter(name: &str, labels: &[(&str, &str)], v: u64) -> SeriesSnapshot {
        SeriesSnapshot {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: format!("{name} help"),
            value: SeriesValue::Counter(v),
        }
    }

    #[test]
    fn counters_render_with_headers_and_labels() {
        let series = [
            counter("jobs_total", &[("device", "gpu0")], 7),
            counter("jobs_total", &[("device", "phi1")], 3),
        ];
        let text = prometheus_text(&series);
        assert_eq!(text.matches("# TYPE jobs_total counter").count(), 1);
        assert!(text.contains("jobs_total{device=\"gpu0\"} 7\n"));
        assert!(text.contains("jobs_total{device=\"phi1\"} 3\n"));
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        let series = [counter("weird_total", &[("path", "a\"b\\c\nd")], 1)];
        let text = prometheus_text(&series);
        assert!(text.contains(r#"path="a\"b\\c\nd""#), "{text}");
        let parsed = parse_prometheus(&text).unwrap();
        assert_eq!(parsed, samples(&series));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let series = [SeriesSnapshot {
            name: "lat_ms".to_string(),
            labels: vec![("stage".to_string(), "place".to_string())],
            help: "latency".to_string(),
            value: SeriesValue::Histogram {
                bounds: vec![1.0, 5.0],
                buckets: vec![2, 1, 3], // last is overflow
                sum: 99.5,
                count: 6,
            },
        }];
        let text = prometheus_text(&series);
        assert!(text.contains("# TYPE lat_ms histogram"));
        assert!(text.contains("lat_ms_bucket{stage=\"place\",le=\"1\"} 2\n"));
        assert!(text.contains("lat_ms_bucket{stage=\"place\",le=\"5\"} 3\n"));
        assert!(text.contains("lat_ms_bucket{stage=\"place\",le=\"+Inf\"} 6\n"));
        assert!(text.contains("lat_ms_sum{stage=\"place\"} 99.5\n"));
        assert!(text.contains("lat_ms_count{stage=\"place\"} 6\n"));
    }

    #[test]
    fn parser_round_trips_every_series_kind() {
        let series = [
            counter("a_total", &[], 42),
            SeriesSnapshot {
                name: "g".to_string(),
                labels: vec![("k".to_string(), "v".to_string())],
                help: "gauge".to_string(),
                value: SeriesValue::Gauge(0.1875),
            },
            SeriesSnapshot {
                name: "h_ms".to_string(),
                labels: vec![],
                help: "hist".to_string(),
                value: SeriesValue::Histogram {
                    bounds: vec![0.000025, 0.5, 100.0],
                    buckets: vec![1, 0, 4, 2],
                    sum: 250.125,
                    count: 7,
                },
            },
        ];
        let parsed = parse_prometheus(&prometheus_text(&series)).unwrap();
        assert_eq!(parsed, samples(&series));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("jobs_total{device=\"x} 1").is_err());
        assert!(parse_prometheus("jobs_total{device} 1").is_err());
        assert!(parse_prometheus("{} 1").is_err());
        assert!(parse_prometheus("jobs_total banana").is_err());
        assert!(parse_prometheus("jobs_total").is_err());
    }

    #[test]
    fn non_finite_values_spell_the_prometheus_way() {
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(parse_value("+Inf").unwrap(), f64::INFINITY);
        assert!(parse_value("NaN").unwrap().is_nan());
    }

    #[test]
    fn snapshot_json_parses_back_through_obs_json() {
        let series = [
            counter("a_total", &[("x", "y\"z")], 3),
            SeriesSnapshot {
                name: "h_ms".to_string(),
                labels: vec![],
                help: "hist".to_string(),
                value: SeriesValue::Histogram {
                    bounds: vec![1.0],
                    buckets: vec![2, 1],
                    sum: 5.25,
                    count: 3,
                },
            },
        ];
        let doc = json::parse(&snapshot_json(&series)).expect("valid JSON");
        let arr = doc.get("series").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("name").unwrap().as_str(), Some("a_total"));
        assert_eq!(
            arr[0].get("labels").unwrap().get("x").unwrap().as_str(),
            Some("y\"z")
        );
        assert_eq!(arr[0].get("value").unwrap().as_f64(), Some(3.0));
        let buckets = arr[1].get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[1].get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(arr[1].get("count").unwrap().as_f64(), Some(3.0));
    }
}
