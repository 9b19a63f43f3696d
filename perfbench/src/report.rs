//! Metric collection, failure accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Operations attempted and how they ended, with failures by reason.
#[derive(Debug, Default)]
pub struct Outcomes {
    pub attempted: u64,
    pub succeeded: u64,
    /// Reason → count: `refused:<reason>`, `deadline`, `exec:<kind>`,
    /// `verify:<what>`.
    pub failures: BTreeMap<String, u64>,
}

impl Outcomes {
    pub fn ok(&mut self) {
        self.attempted += 1;
        self.succeeded += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        *self.failures.entry(reason.into()).or_insert(0) += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Whether any output check failed (as opposed to a refused or
    /// timed-out launch, which produced no output to check).
    pub fn output_mismatch(&self) -> bool {
        self.failures.keys().any(|k| k.starts_with("verify:"))
    }
}

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(
            self.items.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.items.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.items.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    /// `"name": {"value": v, "unit": "u"}` pairs for the result object. A
    /// value that is not finite (a percentile of misses) is written as
    /// `null`: there is no number to report.
    fn json_body(&self) -> String {
        let mut s = String::new();
        for (i, (n, v, u)) in self.items.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let val = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            let _ = write!(s, "\"{n}\": {{\"value\": {val}, \"unit\": \"{u}\"}}");
        }
        s
    }
}

/// The result object printed as the run's last line.
pub fn result_line(correct: bool, outcomes: &Outcomes, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.attempted,
        outcomes.failed(),
        metrics.json_body()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut o = Outcomes::default();
        o.ok();
        o.fail("deadline");
        let mut m = Metrics::default();
        m.put("a_ms", 1.5, "ms");
        m.put("b", f64::INFINITY, "us");
        assert_eq!(
            result_line(true, &o, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"us\"}}}"
        );
    }
}
