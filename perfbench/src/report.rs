//! The result line the benchmark prints last, the failure accounting that
//! feeds it, and the human-readable lines printed before it.

use crate::json::{self, Json};
use crate::stats::Samples;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The single-line JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`; each metric is
    /// `{"value": .., "unit": ..}`.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads a result line back (metrics come back in name order).
    pub fn from_json(text: &str) -> Result<RunResult, String> {
        let doc = json::parse(text)?;
        let map = doc.as_obj().ok_or("result is not an object")?;
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |key: &str| -> Result<u64, String> {
            let v = map[key].as_f64().ok_or(format!("{key} is not a number"))?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("{key} = {v} is not a whole number"));
            }
            Ok(v as u64)
        };
        let correct = match map["correct"] {
            Json::Bool(b) => b,
            _ => return Err("correct is not a boolean".into()),
        };
        let mut metrics = Vec::new();
        for (name, m) in map["metrics"].as_obj().ok_or("metrics is not an object")? {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no numeric value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{name}: no unit"))?;
            metrics.push(Metric::new(name.clone(), unit, value));
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Updates a snapshot is missing or holds in excess of the reference, lane
/// by lane (both are add-one counters, so each unit of difference is one
/// lost or duplicated update). Lanes present on only one side count whole.
pub fn count_mismatch(got: &[u64], expected: &[u64]) -> u64 {
    let shared = got.len().min(expected.len());
    let diff: u64 = got[..shared]
        .iter()
        .zip(&expected[..shared])
        .map(|(&g, &e)| g.abs_diff(e))
        .sum();
    let tail: u64 = got[shared..].iter().chain(&expected[shared..]).sum();
    diff + tail
}

/// A human-readable line for a sampled timing: median, quartiles, a tail
/// percentile, and the sample count behind them.
pub fn describe(name: &str, unit: &str, samples: &Samples, tail: f64) -> String {
    format!(
        "  {name:<24} p50 {:>12.4} {unit}  q1 {:.4}  q3 {:.4}  p{tail} {:.4}  (n = {}, {} beyond p{tail})",
        samples.median(),
        samples.pct(25.0),
        samples.pct(75.0),
        samples.pct(tail),
        samples.count(),
        samples.beyond(tail),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 123_456_789,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", "s", 0.812_734_5),
                Metric::new("task_p50_ms", "ms", 1.0 / 3.0),
                Metric::new("trace.overhead_pct.serve", "%", -2.5),
            ],
        };
        let line = result.to_json_line();
        assert!(!line.contains('\n'));
        let back = RunResult::from_json(&line).unwrap();
        let mut want = result.clone();
        want.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back, want);
    }

    #[test]
    fn malformed_result_lines_are_rejected() {
        for bad in [
            "{}",
            r#"{"correct": true, "attempted": 1, "failed": 0}"#,
            r#"{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"unit": "s"}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}"#,
        ] {
            assert!(RunResult::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_perturbed_reference_snapshot_counts_as_failed_ops() {
        let reference = vec![10, 20, 30, 40];
        assert_eq!(count_mismatch(&reference, &reference), 0);
        // One lost update on lane 1, two duplicated on lane 3.
        let perturbed = vec![10, 19, 30, 42];
        assert_eq!(count_mismatch(&perturbed, &reference), 3);
        assert_eq!(count_mismatch(&reference, &perturbed), 3);
        // A lane the run never produced loses every update of it.
        assert_eq!(count_mismatch(&reference[..3], &reference), 40);
    }
}
