//! Result accounting and output: failure tallies, self-checks, metric
//! sets, run metadata and the final JSON line.

use heteromap_obs::json;
use std::fmt::Write as _;

/// Failures against attempts. A failed op is one that did not complete
/// (an expected outcome under injected faults) or whose output is wrong;
/// only wrong outputs make the run incorrect. The first few reasons are
/// kept for the log.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, wrong ones included.
    pub failed: u64,
    /// Ops whose output disagreed with its reference.
    pub wrong: u64,
    /// The first failure reasons.
    pub reasons: Vec<String>,
}

/// Failure reasons kept per tally.
const REASONS_KEPT: usize = 8;

impl Tally {
    /// Counts one op: failed unless it `completed` with a `correct` output.
    /// `why` is only built on failure.
    pub fn record(&mut self, completed: bool, correct: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !correct {
            self.wrong += 1;
        }
        if !(completed && correct) {
            self.failed += 1;
            self.keep(why);
        }
    }

    /// Marks an already-counted, completed op as wrong (a later check
    /// disagreed with its output).
    pub fn wrong_counted(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        self.wrong += 1;
        self.keep(why);
    }

    fn keep(&mut self, why: impl FnOnce() -> String) {
        if self.reasons.len() < REASONS_KEPT {
            self.reasons.push(why());
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for r in &other.reasons {
            if self.reasons.len() < REASONS_KEPT {
                self.reasons.push(r.clone());
            }
        }
    }

    /// Failed ops ÷ ops attempted.
    pub fn failed_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Named pass/fail checks that the workload stresses what it claims.
#[derive(Debug, Default, Clone)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    /// Records one check with its evidence.
    pub fn check(&mut self, passed: bool, what: String) {
        self.0.push((what, passed));
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// An ordered set of named metrics with units.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The `"metrics"` JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(name),
                json::num(*value),
                json::escape(unit)
            );
        }
        out.push('}');
        out
    }
}

/// The final result line.
pub fn result_json(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    )
}

/// Run metadata, printed and stored with every result.
#[derive(Debug, Default, Clone)]
pub struct Meta(pub Vec<(&'static str, String)>);

impl Meta {
    /// Adds one field.
    pub fn add(&mut self, key: &'static str, value: impl ToString) {
        self.0.push((key, value.to_string()));
    }

    /// The fields as a JSON object of strings.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", json::escape(k), json::escape(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Peak resident set size (`VmHWM`) in MB, or `NaN` where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The first line a tool prints, or `"unknown"` when it cannot run. Git
/// looks for a repository in the working directory only, never in its
/// parents, so a checkout that is not a repository reads as unknown.
pub fn tool_output(program: &str, args: &[&str]) -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0, "nothing attempted");
        // Ops 0, 5, 10, 15 do not complete; op 7 completes wrong.
        for i in 0..20 {
            t.record(i % 5 != 0, i != 7, || format!("op {i}"));
        }
        assert_eq!((t.attempted, t.failed, t.wrong), (20, 5, 1));
        assert_eq!(t.failed_ratio(), 0.25);
        // A later check failing an op already counted adds no attempt.
        t.wrong_counted(|| "late mismatch".into());
        assert_eq!((t.attempted, t.failed, t.wrong), (20, 6, 2));
        let mut total = Tally::default();
        total.record(true, true, String::new);
        total.merge(&t);
        assert_eq!((total.attempted, total.failed, total.wrong), (21, 6, 2));
        assert_eq!(total.reasons.len(), 6);
        assert_eq!(total.reasons[0], "op 0");
        assert!((total.failed_ratio() - 6.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("latency_p50_us", 1.25, "us");
        m.set("setup_s", 0.5, "s");
        m.set("latency_p50_us", 1.5, "us");
        let mut t = Tally::default();
        t.record(true, true, String::new);
        let doc = json::parse(&result_json(true, &t, &m)).unwrap();
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("latency_p50_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(1.5)
        );
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1.0));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
