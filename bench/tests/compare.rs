//! `compare` must not pass a broken run: B slower beyond the bound with
//! disjoint quartiles, B with failed reps, and B lacking a metric or a
//! workload that A has each make it exit non-zero.

use edist_bench::compare::{compare, Verdict};
use edist_bench::json::Value;

const SPEC: &str = r#"{"end_to_end": [
    {"name": "partition_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "nmi", "unit": "ratio", "better": "higher", "bound": 0.05}]}"#;

/// A results file with one `serve_warm`-like workload: 480 round samples
/// whose min–max range is wide whatever the median does.
fn results(partition_s: f64, failed: u32, nmi: Option<f64>, workload: &str) -> Value {
    results_with_quartiles(partition_s, 0.05, failed, nmi, workload)
}

/// The same, with `partition_s` quartiles at `±quartile_share` of it.
fn results_with_quartiles(
    partition_s: f64,
    quartile_share: f64,
    failed: u32,
    nmi: Option<f64>,
    workload: &str,
) -> Value {
    let nmi = nmi.map_or(String::new(), |x| {
        format!(
            r#", "nmi": {{"value": {x}, "p25": {x}, "p75": {x}, "min": {x}, "max": {x}, "n": 6}}"#
        )
    });
    let text = format!(
        r#"{{"workloads": {{"{workload}": {{"end_to_end": {{
            "correct": {correct}, "attempted": 30000, "failed": {failed},
            "metrics": {{"partition_s": {{"value": {partition_s}, "p25": {p25}, "p75": {p75},
                                          "min": 0.001, "max": 0.5, "n": 480}}{nmi}}}}}}}}}}}"#,
        correct = failed == 0,
        p25 = partition_s * (1.0 - quartile_share),
        p75 = partition_s * (1.0 + quartile_share),
    );
    Value::parse(&text).expect("fabricated results parse")
}

fn verdicts(a: &Value, b: &Value) -> Vec<(String, Verdict)> {
    let spec = Value::parse(SPEC).expect("spec parses");
    compare(a, b, &spec)
        .expect("comparable")
        .into_iter()
        .map(|r| (r.metric, r.verdict))
        .collect()
}

#[test]
fn identical_runs_pass() {
    let a = results(0.014, 0, Some(1.0), "serve_warm");
    let rows = verdicts(&a, &a);
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|(_, v)| *v == Verdict::Ok));
}

#[test]
fn slower_failed_and_incomplete_b_is_rejected_row_by_row() {
    let a = results(0.014, 0, Some(1.0), "serve_warm");
    let b = results(0.014 * 1.87, 30000, None, "serve_warm");
    let rows = verdicts(&a, &b);
    let of = |metric: &str| rows.iter().find(|(m, _)| m == metric).map(|(_, v)| *v);
    // Overlapping min–max ranges must not hide a median 87 % worse.
    assert_eq!(of("partition_s"), Some(Verdict::Worse));
    assert_eq!(of("nmi"), Some(Verdict::Missing));
    assert_eq!(of("(run)"), Some(Verdict::Failed));
    assert!(rows.iter().all(|(_, v)| !v.passes()));
}

#[test]
fn a_workload_b_did_not_run_is_missing() {
    let a = results(0.014, 0, Some(1.0), "serve_warm");
    let b = results(0.014, 0, Some(1.0), "single_challenge");
    assert_eq!(verdicts(&a, &b), [("(run)".to_string(), Verdict::Missing)]);
}

#[test]
fn inside_the_spread_is_unresolved_not_worse() {
    let a = results(0.014, 0, Some(1.0), "serve_warm");
    let partition_s = |b: &Value| verdicts(&a, b)[0].1;
    // 30 % slower with quartiles at ±5 %: clear of A's, so worse.
    let b = results(0.014 * 1.30, 0, Some(1.0), "serve_warm");
    assert_eq!(partition_s(&b), Verdict::Worse);
    // Quartiles at ±25 % reach into A's: now it could be noise.
    let b = results_with_quartiles(0.014 * 1.30, 0.25, 0, Some(1.0), "serve_warm");
    assert_eq!(partition_s(&b), Verdict::Unresolved);
}
