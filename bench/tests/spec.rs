//! `BENCHMARK.json` and the code must name the same workloads and
//! metrics, with the same units and directions.

use edist_bench::json::{self, Value};
use edist_bench::spec::{Metric, END_TO_END, PER_LAYER};
use edist_bench::workload::Workload;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn assert_same(listed: &Value, metrics: &[Metric], bounded: bool) {
    let listed = listed.as_arr().expect("a metric list");
    assert_eq!(listed.len(), metrics.len());
    for (entry, m) in listed.iter().zip(metrics) {
        assert_eq!(json::s(entry, "name"), m.name);
        assert_eq!(json::s(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(json::s(entry, "better"), m.better.as_str(), "{}", m.name);
        let bound = json::f(entry, "bound");
        if bounded {
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        } else {
            assert!(
                bound.is_nan(),
                "{}: per-layer metrics carry no bound",
                m.name
            );
        }
    }
}

#[test]
fn benchmark_json_matches_the_code() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| json::s(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    assert_same(
        spec.get("end_to_end").expect("end_to_end"),
        &END_TO_END,
        true,
    );
    assert_same(spec.get("per_layer").expect("per_layer"), &PER_LAYER, false);
    let paths: Vec<&str> = spec
        .get("paths")
        .and_then(Value::as_arr)
        .expect("paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["bench"]);
}

#[test]
fn metric_names_are_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.name)
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total);
}
