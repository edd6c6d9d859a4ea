//! # sbp-metrics — the process-wide observability plane
//!
//! An offline, dependency-free metrics layer in the spirit of the
//! workspace's other shims: a global registry of named [`Counter`]s,
//! [`Gauge`]s, and fixed-bucket [`Histogram`]s with cheap atomic
//! recording, point-in-time [`Snapshot`]s, a canonical JSON encoding
//! ([`json`]), a Prometheus-style text exposition
//! ([`Snapshot::prometheus`]), and a self-contained HTML run report
//! ([`report`]).
//!
//! ## The observe-only determinism contract
//!
//! Metrics are **strictly observe-only**: instrumented code writes into
//! the registry but never reads a recorded value back into RNG streams,
//! description-length arithmetic, or control flow. Solver output is
//! therefore bit-identical with metrics enabled or disabled — the
//! `tests/metrics.rs` suite proves it across backends and thread
//! counts. Recording is additionally gated on a process-wide switch
//! ([`enabled`]): set the `SBP_METRICS` environment variable to `0`
//! (or call [`set_enabled`]`(false)`) and every record call degrades to
//! a single relaxed atomic load.
//!
//! ## Naming
//!
//! Metric names follow the Prometheus convention
//! (`sbp_<layer>_<what>_<unit>`), with at most one label folded into
//! the name by [`labeled`] — e.g. `sbp_pool_tasks_total{worker="3"}`.
//! The four instrumented layers are `solver` (sbp-core), `pool`
//! (the rayon shim), `wire` (sbp-dist), and `daemon` (sbp-serve).

#![forbid(unsafe_code)]

pub mod json;
pub mod report;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bucket bounds (seconds) shared by every phase/latency
/// histogram: 1 µs … 100 s in decades, plus the implicit `+Inf`.
pub const TIME_BUCKETS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// Upper bucket bounds for size-class histograms (block sizes, batch
/// widths): powers of two from 1 to 65536, plus the implicit `+Inf`.
pub const SIZE_BUCKETS: [f64; 17] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0,
];

fn enabled_cell() -> &'static AtomicBool {
    static CELL: OnceLock<AtomicBool> = OnceLock::new();
    CELL.get_or_init(|| {
        let on = std::env::var("SBP_METRICS").map_or(true, |v| v != "0");
        AtomicBool::new(on)
    })
}

/// Whether recording is currently on (default yes; `SBP_METRICS=0` in
/// the environment starts the process with it off).
pub fn enabled() -> bool {
    enabled_cell().load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Off, every record call is a
/// single relaxed load; registered metrics keep their accumulated
/// values.
pub fn set_enabled(on: bool) {
    enabled_cell().store(on, Ordering::Relaxed);
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while recording is [disabled](enabled)).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge (no-op while recording is [disabled](enabled)).
    pub fn set(&self, v: f64) {
        if enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram: cumulative-style bucket counts plus a sum
/// and total, all recorded with relaxed atomics (the sum via a CAS loop
/// over `f64` bits).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` slots; the last is the `+Inf` overflow.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            total: AtomicU64::new(0),
        }
    }

    /// Records one observation (no-op while recording is
    /// [disabled](enabled)).
    pub fn observe(&self, v: f64) {
        if !enabled() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Upper bucket bounds (the `+Inf` overflow bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.total.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock(
    reg: &Mutex<BTreeMap<String, Metric>>,
) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
    // A panic while holding the registry lock leaves only metric
    // values behind, never torn structure — recording stays usable.
    reg.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Returns (registering on first use) the counter named `name`.
///
/// Resolution takes the registry lock — resolve once per call site
/// (e.g. into a local or a `OnceLock` static) and record through the
/// returned handle on hot paths.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = lock(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// Returns (registering on first use) the gauge named `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = lock(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// Returns (registering on first use) the histogram named `name` with
/// the given ascending upper bucket `bounds` (an `+Inf` overflow bucket
/// is always appended). Bounds are fixed at first registration; later
/// calls ignore the argument.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    let mut reg = lock(registry());
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// Folds one label into a metric name, Prometheus-style:
/// `labeled("sbp_pool_tasks_total", "worker", 3)` →
/// `sbp_pool_tasks_total{worker="3"}`.
pub fn labeled(base: &str, key: &str, value: impl std::fmt::Display) -> String {
    format!("{base}{{{key}=\"{value}\"}}")
}

/// Zeroes every registered metric (the registry itself — names, kinds,
/// bucket bounds — is kept). Intended for tests and for the daemon's
/// per-run isolation.
pub fn reset() {
    let reg = lock(registry());
    for metric in reg.values() {
        match metric {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

/// The frozen value of one metric inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: per-bucket counts (one longer than `bounds`,
    /// the last slot being `+Inf`), plus sum and total.
    Histogram {
        /// Ascending upper bucket bounds.
        bounds: Vec<f64>,
        /// Per-bucket observation counts (`bounds.len() + 1` slots).
        counts: Vec<u64>,
        /// Sum of all observations.
        sum: f64,
        /// Total number of observations.
        count: u64,
    },
}

/// A point-in-time copy of every registered metric, ordered by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Metric values keyed by (possibly labeled) name.
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Takes a point-in-time snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    let reg = lock(registry());
    let metrics = reg
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram {
                    bounds: h.bounds.clone(),
                    counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                    sum: h.sum(),
                    count: h.count(),
                },
            };
            (name.clone(), value)
        })
        .collect();
    Snapshot { metrics }
}

impl Snapshot {
    /// Canonical JSON encoding: `{"<name>": {"type": "counter",
    /// "value": n} | {"type": "gauge", ...} | {"type": "histogram",
    /// "bounds": [...], "counts": [...], "sum": s, "count": n}}`.
    pub fn to_json(&self) -> json::Value {
        use json::Value;
        let nums = |xs: Vec<f64>| Value::Arr(xs.into_iter().map(Value::Num).collect());
        let metric = |value: &MetricValue| match value {
            MetricValue::Counter(v) => {
                Value::obj([("type", "counter".into()), ("value", Value::Num(*v as f64))])
            }
            MetricValue::Gauge(v) => {
                Value::obj([("type", "gauge".into()), ("value", Value::Num(*v))])
            }
            MetricValue::Histogram {
                bounds,
                counts,
                sum,
                count,
            } => Value::obj([
                ("type", "histogram".into()),
                ("bounds", nums(bounds.clone())),
                ("counts", nums(counts.iter().map(|&c| c as f64).collect())),
                ("sum", Value::Num(*sum)),
                ("count", Value::Num(*count as f64)),
            ]),
        };
        let metrics = self.metrics.iter();
        Value::obj(metrics.map(|(name, value)| (name.as_str(), metric(value))))
    }

    /// Decodes a snapshot from its [`to_json`](Snapshot::to_json)
    /// encoding, rejecting unknown metric types and malformed shapes.
    pub fn from_json(value: &json::Value) -> Result<Snapshot, String> {
        let obj = value.as_obj().ok_or("snapshot must be an object")?;
        let mut metrics = BTreeMap::new();
        for (name, m) in obj {
            let m = m.as_obj().ok_or("metric entry must be an object")?;
            let kind = m
                .get("type")
                .and_then(json::Value::as_str)
                .ok_or("metric entry needs a string 'type'")?;
            let value = match kind {
                "counter" => MetricValue::Counter(num_field(m, "value")? as u64),
                "gauge" => MetricValue::Gauge(num_field(m, "value")?),
                "histogram" => {
                    let bounds = num_array(m, "bounds")?;
                    let counts = num_array(m, "counts")?
                        .into_iter()
                        .map(|c| c as u64)
                        .collect::<Vec<_>>();
                    if counts.len() != bounds.len() + 1 {
                        return Err(format!(
                            "histogram {name:?}: {} counts for {} bounds",
                            counts.len(),
                            bounds.len()
                        ));
                    }
                    MetricValue::Histogram {
                        bounds,
                        counts,
                        sum: num_field(m, "sum")?,
                        count: num_field(m, "count")? as u64,
                    }
                }
                other => return Err(format!("unknown metric type {other:?}")),
            };
            metrics.insert(name.clone(), value);
        }
        Ok(Snapshot { metrics })
    }

    /// Prometheus-style text exposition (`# TYPE` lines, histogram
    /// `_bucket`/`_sum`/`_count` series with cumulative `le` labels).
    /// One `# TYPE` line per metric family: labeled series of the same
    /// base name (adjacent in the sorted registry) share a single
    /// declaration, as the exposition format requires.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = "";
        for (name, value) in &self.metrics {
            let (base, labels) = split_labels(name);
            let declare = base != last_base;
            last_base = base;
            match value {
                MetricValue::Counter(v) => {
                    if declare {
                        let _ = writeln!(out, "# TYPE {base} counter");
                    }
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    if declare {
                        let _ = writeln!(out, "# TYPE {base} gauge");
                    }
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    if declare {
                        let _ = writeln!(out, "# TYPE {base} histogram");
                    }
                    let mut cumulative = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cumulative += c;
                        let le = bounds.get(i).map_or("+Inf".to_string(), |b| format!("{b}"));
                        let all = match labels {
                            Some(labels) => format!("{labels},le=\"{le}\""),
                            None => format!("le=\"{le}\""),
                        };
                        let _ = writeln!(out, "{base}_bucket{{{all}}} {cumulative}");
                    }
                    let suffix = labels.map_or(String::new(), |l| format!("{{{l}}}"));
                    let _ = writeln!(out, "{base}_sum{suffix} {sum}");
                    let _ = writeln!(out, "{base}_count{suffix} {count}");
                }
            }
        }
        out
    }
}

/// Splits `name{key="v"}` into `("name", Some("key=\"v\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}')),
        None => (name, None),
    }
}

fn num_field(obj: &BTreeMap<String, json::Value>, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn num_array(obj: &BTreeMap<String, json::Value>, key: &str) -> Result<Vec<f64>, String> {
    let arr = obj
        .get(key)
        .and_then(json::Value::as_arr)
        .ok_or_else(|| format!("missing array field {key:?}"))?;
    arr.iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("{key:?} holds a non-number"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag is process-global; tests that toggle it must not
    /// interleave with tests that record.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn counters_gauges_histograms_record() {
        let _serial = serial();
        set_enabled(true);
        let c = counter("test_counter_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(Arc::ptr_eq(&c, &counter("test_counter_total")));

        let g = gauge("test_gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);

        let h = histogram("test_hist", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 55.5);
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _serial = serial();
        let c = counter("test_disabled_total");
        set_enabled(false);
        c.inc();
        assert_eq!(c.get(), 0);
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let _serial = serial();
        set_enabled(true);
        counter("test_rt_counter_total").add(7);
        gauge("test_rt_gauge").set(-1.25);
        histogram("test_rt_hist", &TIME_BUCKETS).observe(0.004);
        let snap = snapshot();
        let encoded = snap.to_json().to_string();
        let parsed = json::Value::parse(&encoded).unwrap();
        let back = Snapshot::from_json(&parsed).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let _serial = serial();
        set_enabled(true);
        counter(&labeled("test_prom_total", "rank", 0)).add(3);
        counter(&labeled("test_prom_total", "rank", 1)).add(4);
        histogram("test_prom_seconds", &[0.1]).observe(0.05);
        let text = snapshot().prometheus();
        assert!(text.contains("# TYPE test_prom_total counter"));
        assert!(text.contains("test_prom_total{rank=\"0\"} 3"));
        assert!(text.contains("test_prom_total{rank=\"1\"} 4"));
        // One TYPE declaration per family, not per labeled series.
        assert_eq!(text.matches("# TYPE test_prom_total counter").count(), 1);
        assert!(text.contains("# TYPE test_prom_seconds histogram"));
        assert!(text.contains("test_prom_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("test_prom_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("test_prom_seconds_count 1"));
    }

    #[test]
    fn labeled_formats_prometheus_style() {
        assert_eq!(
            labeled("sbp_pool_tasks_total", "worker", 3),
            "sbp_pool_tasks_total{worker=\"3\"}"
        );
        assert_eq!(
            split_labels("a_total{rank=\"1\"}"),
            ("a_total", Some("rank=\"1\""))
        );
        assert_eq!(split_labels("a_total"), ("a_total", None));
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _serial = serial();
        set_enabled(true);
        let c = counter("test_reset_total");
        c.add(9);
        reset();
        assert_eq!(c.get(), 0);
        assert!(Arc::ptr_eq(&c, &counter("test_reset_total")));
    }
}
