//! A run's outcome: the checks that ran, operations attempted and failed,
//! and the metrics, printed as a readable table and as the one-line JSON
//! result.

use std::fmt::Write as _;

/// One output check and whether it held.
pub struct Check {
    /// Stable check name.
    pub name: &'static str,
    /// Whether the check held.
    pub passed: bool,
    /// What was compared, or where it first differed.
    pub detail: String,
}

/// One reported number.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Report {
    /// Checks in the order they ran.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metrics of the JSON result, in report order.
    pub metrics: Vec<Metric>,
    /// Informational lines printed before the table (workload facts).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            passed,
            detail: detail.into(),
        });
    }

    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record an informational line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether some operation ran, every check held and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    /// The human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for c in &self.checks {
            let verdict = if c.passed { "pass" } else { "FAIL" };
            let _ = writeln!(out, "check {:<28} {verdict}  {}", c.name, c.detail);
        }
        let _ = writeln!(
            out,
            "operations: attempted={} failed={}",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            let _ = writeln!(out, "{:<36} {:>18} {}", m.name, fmt_num(m.value), m.unit);
        }
        out
    }

    /// The one-line JSON result.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed.max(u64::from(self.attempted == 0))
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (non-finite values, which JSON cannot carry, print as 0).
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_result_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("run_s", 1.25, "s");
        r.metric("setup_s", 0.5, "s");
        r.check("gold", true, "");
        assert_eq!(
            r.render_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.check("other", false, "differs");
        assert!(!r.correct());
    }
}
