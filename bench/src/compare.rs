//! `edist-bench compare A.json B.json`: the two-runs-agree tool.
//!
//! One row per (workload, end-to-end metric) of A: both medians, the
//! ratio **with its base** (`B/A`), the bound from `BENCHMARK.json`, and
//! a verdict. `worse` means B's median is beyond the bound in the bad
//! direction *and* the two interquartile ranges do not overlap; beyond
//! the bound with overlapping quartiles is `unresolved` (the difference
//! is inside the run-to-run spread — run more reps before believing
//! it). Quartiles, not min–max: the 480 rounds of a `serve_warm` run
//! always contain one slow and one fast outlier, so their ranges
//! overlap whatever happened to the median.
//!
//! B must also be a *complete, correct* run: a workload or metric of A
//! that B lacks is `missing`, and a workload on which B reports failed
//! reps or `correct: false` is `failed`. Both count like `worse`.

use crate::json::{self, Value};
use std::path::Path;

/// Outcome of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or better.
    Ok,
    /// Beyond the bound, but the interquartile ranges overlap.
    Unresolved,
    /// Beyond the bound with disjoint interquartile ranges.
    Worse,
    /// A has the workload or metric, B does not.
    Missing,
    /// B's run of the workload had failed reps or a violated cross-check.
    Failed,
}

impl Verdict {
    /// False for the verdicts that make `compare` exit non-zero.
    pub fn passes(self) -> bool {
        matches!(self, Verdict::Ok | Verdict::Unresolved)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
            Verdict::Missing => "missing",
            Verdict::Failed => "failed",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    /// Median.
    pub value: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
}

/// Rules on one metric: `bound` is the share of A's median B may be
/// worse by; `higher_is_better` flips the bad direction.
pub fn status(a: Side, b: Side, bound: f64, higher_is_better: bool) -> Verdict {
    let worse_by = if higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    // A NaN value can never pass as ok.
    if worse_by.is_nan() || bound.is_nan() {
        return Verdict::Worse;
    }
    if worse_by <= bound * a.value.abs() {
        return Verdict::Ok;
    }
    if a.p25 <= b.p75 && b.p25 <= a.p75 {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn side(metric: &Value) -> Side {
    let value = json::f(metric, "value");
    let or_value = |x: f64| if x.is_finite() { x } else { value };
    Side {
        value,
        p25: or_value(json::f(metric, "p25")),
        p75: or_value(json::f(metric, "p75")),
    }
}

/// One printed row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name, or `(run)` for the row about the run as a whole.
    pub metric: String,
    /// The verdict.
    pub verdict: Verdict,
    /// The columns between the names and the verdict.
    detail: String,
}

fn end_to_end<'a>(results: &'a Value, workload: &str) -> Option<&'a Value> {
    results.get("workloads")?.get(workload)?.get("end_to_end")
}

/// Compares results `b` against the baseline `a` under the bounds of
/// `spec` (a parsed `BENCHMARK.json`).
pub fn compare(a: &Value, b: &Value, spec: &Value) -> Result<Vec<Row>, String> {
    let metrics = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("the spec has no end_to_end list")?;
    let workloads = a
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("A has no workloads")?;
    let mut rows = Vec::new();
    for name in workloads.keys() {
        let mut row = |metric: &str, verdict, detail: String| {
            rows.push(Row {
                workload: name.clone(),
                metric: metric.to_string(),
                verdict,
                detail,
            });
        };
        let Some(a_run) = end_to_end(a, name) else {
            continue;
        };
        let Some(b_run) = end_to_end(b, name) else {
            row("(run)", Verdict::Missing, "B did not run it".into());
            continue;
        };
        let failed = json::f(b_run, "failed");
        if b_run.get("correct") != Some(&Value::Bool(true)) || failed != 0.0 {
            let detail = format!(
                "B failed {failed} of {}, correct={}",
                json::f(b_run, "attempted"),
                b_run.get("correct").unwrap_or(&Value::Null)
            );
            row("(run)", Verdict::Failed, detail);
        }
        for m in metrics {
            let metric = json::s(m, "name");
            let of = |run: &Value| run.get("metrics").and_then(|ms| ms.get(metric)).map(side);
            let Some(sa) = of(a_run) else {
                continue;
            };
            let Some(sb) = of(b_run) else {
                row(metric, Verdict::Missing, format!("{:>14.6}", sa.value));
                continue;
            };
            let bound = json::f(m, "bound");
            let verdict = status(sa, sb, bound, json::s(m, "better") == "higher");
            let detail = format!(
                "{:>14.6} {:>14.6} {:>9.4} {:>7.3}",
                sa.value,
                sb.value,
                sb.value / sa.value,
                bound
            );
            row(metric, verdict, detail);
        }
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("parsing {}: {e:?}", path.display()))
}

/// Compares two results files against the bounds in `spec_path`; prints
/// the table and returns how many rows do not pass.
pub fn compare_files(a_path: &Path, b_path: &Path, spec_path: &Path) -> Result<usize, String> {
    let rows = compare(&load(a_path)?, &load(b_path)?, &load(spec_path)?)?;
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for r in &rows {
        println!(
            "{:<22} {:<14} {:<47}  {}",
            r.workload,
            r.metric,
            r.detail,
            r.verdict.label()
        );
    }
    Ok(rows.iter().filter(|r| !r.verdict.passes()).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, p25: f64, p75: f64) -> Side {
        Side { value, p25, p75 }
    }

    #[test]
    fn within_bound_or_better_is_ok() {
        assert_eq!(
            status(s(10.0, 9.0, 11.0), s(10.9, 10.0, 12.0), 0.1, false),
            Verdict::Ok
        );
        assert_eq!(
            status(s(10.0, 9.0, 11.0), s(5.0, 4.0, 6.0), 0.1, false),
            Verdict::Ok
        );
        assert_eq!(
            status(s(0.9, 0.9, 0.9), s(0.95, 0.95, 0.95), 0.01, true),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_bound_needs_disjoint_quartiles_to_be_worse() {
        let a = s(10.0, 9.0, 11.5);
        assert_eq!(
            status(a, s(11.2, 11.0, 12.0), 0.1, false),
            Verdict::Unresolved
        );
        assert_eq!(status(a, s(12.5, 12.0, 13.0), 0.1, false), Verdict::Worse);
        // Higher-is-better: a drop is the bad direction.
        assert_eq!(
            status(s(0.9, 0.9, 0.9), s(0.8, 0.8, 0.8), 0.01, true),
            Verdict::Worse
        );
    }

    #[test]
    fn nan_never_passes() {
        assert_ne!(
            status(s(1.0, 1.0, 1.0), s(f64::NAN, 1.0, 1.0), 0.1, false),
            Verdict::Ok
        );
    }
}
