//! Renders a metrics JSONL run log into a self-contained HTML report —
//! hand-rolled inline SVG and a few lines of vanilla JS, no crates.io.
//!
//! The input is the line-per-object stream written by
//! `edist-cli partition --metrics-out` (see the README's
//! "Observability" section for the schema): a `meta` line, streamed
//! `sweep`/`iteration`/`phase` events, a final `summary`, and a
//! [`Snapshot`] dump under `{"type":"snapshot"}`.

use crate::json::Value;
use crate::{MetricValue, Snapshot};
use std::fmt::Write as _;

/// Chart canvas dimensions.
const W: f64 = 640.0;
const H: f64 = 240.0;
/// Plot-area margins: left, right, top, bottom.
const ML: f64 = 60.0;
const MR: f64 = 15.0;
const MT: f64 = 10.0;
const MB: f64 = 30.0;

/// Renders the report. `lines` are the parsed JSONL objects in file
/// order. Unknown line types are ignored (forward compatibility);
/// a stream with no usable lines is an error.
pub fn render(lines: &[Value]) -> Result<String, String> {
    let mut meta: Option<&Value> = None;
    let mut summary: Option<&Value> = None;
    let mut snapshot: Option<Snapshot> = None;
    let mut sweeps: Vec<SweepPoint> = Vec::new();
    let mut iterations: Vec<(f64, f64)> = Vec::new(); // (blocks, dl)

    for line in lines {
        match line.get("type").and_then(Value::as_str) {
            Some("meta") => meta = Some(line),
            Some("summary") => summary = Some(line),
            Some("snapshot") => {
                let metrics = line
                    .get("metrics")
                    .ok_or("snapshot line without 'metrics'")?;
                snapshot = Some(Snapshot::from_json(metrics)?);
            }
            Some("sweep") => {
                let dl = num(line, "dl")?;
                let proposed = num(line, "proposed").unwrap_or(0.0);
                let accepted = num(line, "accepted").unwrap_or(0.0);
                sweeps.push(SweepPoint {
                    dl,
                    proposed,
                    accepted,
                });
            }
            Some("iteration") => {
                iterations.push((num(line, "blocks")?, num(line, "dl")?));
            }
            _ => {}
        }
    }
    if meta.is_none() && summary.is_none() && sweeps.is_empty() && snapshot.is_none() {
        return Err("no recognizable metrics lines in input".into());
    }

    let mut body = String::new();
    body.push_str(&header_table(meta, summary));
    body.push_str(&dl_section(&sweeps, &iterations));
    body.push_str(&acceptance_section(&sweeps));
    if let Some(snap) = &snapshot {
        body.push_str(&solver_section(snap));
        body.push_str(&block_size_section(snap));
        body.push_str(&per_rank_bytes_section(snap));
        body.push_str(&per_rank_sync_section(snap));
        body.push_str(&pool_section(snap));
        body.push_str(&snapshot_table(snap));
    }
    Ok(page(&body))
}

struct SweepPoint {
    dl: f64,
    proposed: f64,
    accepted: f64,
}

fn num(line: &Value, key: &str) -> Result<f64, String> {
    line.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("line missing numeric field {key:?}"))
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn header_table(meta: Option<&Value>, summary: Option<&Value>) -> String {
    let mut rows = String::new();
    let mut row = |k: &str, v: String| {
        let _ = write!(rows, "<tr><th>{}</th><td>{}</td></tr>", esc(k), esc(&v));
    };
    for (label, src, key) in [
        ("backend", meta, "backend"),
        ("seed", meta, "seed"),
        ("vertices", meta, "vertices"),
        ("final DL", summary, "dl"),
        ("blocks", summary, "blocks"),
        ("wall seconds", summary, "wall_seconds"),
        ("virtual seconds", summary, "virtual_seconds"),
    ] {
        if let Some(value) = src.and_then(|s| s.get(key)) {
            let text = match value {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            };
            row(label, text);
        }
    }
    format!("<h2>Run</h2><table class=\"kv\">{rows}</table>")
}

/// One chart series: `(legend name, stroke color, (x, y) points)`.
type Series<'a> = (&'a str, &'a str, Vec<(f64, f64)>);

/// Maps data points into one SVG polyline, with axis labels.
fn line_chart(series: &[Series], x_label: &str, y_label: &str) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, _, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return "<p class=\"nodata\">no data</p>".into();
    }
    let (x0, x1) = span(all.iter().map(|p| p.0));
    let (y0, y1) = span(all.iter().map(|p| p.1));
    let sx = |x: f64| ML + (x - x0) / (x1 - x0).max(1e-12) * (W - ML - MR);
    let sy = |y: f64| H - MB - (y - y0) / (y1 - y0).max(1e-12) * (H - MT - MB);
    let mut svg = svg_open();
    axes(&mut svg, x0, x1, y0, y1, x_label, y_label);
    let mut legend = String::new();
    for (i, (name, color, pts)) in series.iter().enumerate() {
        if pts.is_empty() {
            continue;
        }
        let path: Vec<String> = pts
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
            .collect();
        let _ = write!(
            svg,
            "<polyline id=\"s{i}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" \
             points=\"{}\"/>",
            path.join(" ")
        );
        let _ = write!(
            legend,
            "<span class=\"leg\" data-series=\"s{i}\" style=\"color:{color}\">&#9632; {}</span> ",
            esc(name)
        );
    }
    svg.push_str("</svg>");
    format!("<div class=\"chart\">{svg}<div class=\"legend\">{legend}</div></div>")
}

fn bar_chart(labels: &[String], values: &[f64], color: &str, y_label: &str) -> String {
    if values.is_empty() || values.iter().all(|&v| v == 0.0) {
        return "<p class=\"nodata\">no data</p>".into();
    }
    let vmax = values.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let n = values.len() as f64;
    let band = (W - ML - MR) / n;
    let mut svg = svg_open();
    axes(&mut svg, 0.0, n, 0.0, vmax, "", y_label);
    for (i, (&v, label)) in values.iter().zip(labels).enumerate() {
        let x = ML + i as f64 * band + band * 0.1;
        let h = v / vmax * (H - MT - MB);
        let y = H - MB - h;
        let _ = write!(
            svg,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"{h:.1}\" fill=\"{color}\">\
             <title>{}: {v}</title></rect>",
            band * 0.8,
            esc(label)
        );
        if values.len() <= 24 {
            let _ = write!(
                svg,
                "<text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"middle\">{}</text>",
                x + band * 0.4,
                H - MB + 14.0,
                esc(label)
            );
        }
    }
    svg.push_str("</svg>");
    format!("<div class=\"chart\">{svg}</div>")
}

fn svg_open() -> String {
    format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" \
         xmlns=\"http://www.w3.org/2000/svg\">"
    )
}

fn axes(svg: &mut String, x0: f64, x1: f64, y0: f64, y1: f64, x_label: &str, y_label: &str) {
    let _ = write!(
        svg,
        "<line x1=\"{ML}\" y1=\"{MT}\" x2=\"{ML}\" y2=\"{}\" class=\"axis\"/>\
         <line x1=\"{ML}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" class=\"axis\"/>",
        H - MB,
        H - MB,
        W - MR,
        H - MB
    );
    let _ = write!(
        svg,
        "<text x=\"{ML}\" y=\"{}\" class=\"tick\">{}</text>\
         <text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}</text>",
        H - MB + 14.0,
        fmt_tick(x0),
        W - MR,
        H - MB + 14.0,
        fmt_tick(x1)
    );
    let _ = write!(
        svg,
        "<text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}</text>\
         <text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}</text>",
        ML - 4.0,
        H - MB,
        fmt_tick(y0),
        ML - 4.0,
        MT + 10.0,
        fmt_tick(y1)
    );
    if !x_label.is_empty() {
        let _ = write!(
            svg,
            "<text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"middle\">{}</text>",
            (ML + W - MR) / 2.0,
            H - 6.0,
            esc(x_label)
        );
    }
    if !y_label.is_empty() {
        let _ = write!(
            svg,
            "<text x=\"12\" y=\"{}\" class=\"tick\" transform=\"rotate(-90 12 {})\" \
             text-anchor=\"middle\">{}</text>",
            H / 2.0,
            H / 2.0,
            esc(y_label)
        );
    }
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 || v.abs() < 1e-3 {
        format!("{v:.2e}")
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn span(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values.filter(|v| v.is_finite()) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        (0.0, 1.0)
    } else if lo == hi {
        (lo - 0.5, hi + 0.5)
    } else {
        (lo, hi)
    }
}

fn dl_section(sweeps: &[SweepPoint], iterations: &[(f64, f64)]) -> String {
    let sweep_pts: Vec<(f64, f64)> = sweeps
        .iter()
        .enumerate()
        .map(|(i, s)| (i as f64, s.dl))
        .collect();
    let iter_pts: Vec<(f64, f64)> = iterations
        .iter()
        .enumerate()
        .map(|(i, &(_, dl))| {
            // Place iteration marks on the sweep axis proportionally.
            let frac = if iterations.len() > 1 {
                i as f64 / (iterations.len() - 1) as f64
            } else {
                1.0
            };
            (frac * (sweep_pts.len().saturating_sub(1)) as f64, dl)
        })
        .collect();
    let chart = line_chart(
        &[
            ("per-sweep DL", "#2563eb", sweep_pts),
            ("per-iteration best DL", "#dc2626", iter_pts),
        ],
        "sweep",
        "description length",
    );
    format!("<h2>Description-length trajectory</h2>{chart}")
}

fn acceptance_section(sweeps: &[SweepPoint]) -> String {
    let pts: Vec<(f64, f64)> = sweeps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.proposed > 0.0)
        .map(|(i, s)| (i as f64, s.accepted / s.proposed))
        .collect();
    let chart = line_chart(
        &[("acceptance rate", "#059669", pts)],
        "sweep",
        "accepted / proposed",
    );
    format!("<h2>Acceptance rate</h2>{chart}")
}

/// The solver's work as counts (root's view): how far the search went,
/// how often it walked the graph to build a blockmodel against how often
/// it folded one it already held, and how many probes it ran ahead on the
/// pool and then committed or dropped.
fn solver_section(snap: &Snapshot) -> String {
    let mut rows = String::new();
    for (label, name) in [
        ("golden-search iterations", "sbp_solver_iterations_total"),
        ("sync points (sweeps)", "sbp_solver_sweeps_total"),
        (
            "move proposals (root's share)",
            "sbp_solver_proposals_total",
        ),
        ("moves accepted", "sbp_solver_moves_total"),
        ("merge proposals evaluated", "sbp_merge_proposals_total"),
        (
            "blockmodels built from the graph",
            "sbp_solver_graph_builds_total",
        ),
        (
            "blockmodels folded from a held one",
            "sbp_solver_folds_total",
        ),
        (
            "iterations run ahead, committed",
            "sbp_solver_overlapped_iterations_total{outcome=\"committed\"}",
        ),
        (
            "iterations run ahead, dropped",
            "sbp_solver_overlapped_iterations_total{outcome=\"dropped\"}",
        ),
    ] {
        if let Some(MetricValue::Counter(n)) = snap.metrics.get(name) {
            let _ = write!(rows, "<tr><th>{}</th><td>{n}</td></tr>", esc(label));
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    format!("<h2>Solver</h2><table class=\"kv\">{rows}</table>")
}

fn block_size_section(snap: &Snapshot) -> String {
    let Some(MetricValue::Histogram { bounds, counts, .. }) =
        snap.metrics.get("sbp_solver_block_size")
    else {
        return "<h2>Block sizes</h2><p class=\"nodata\">no data</p>".into();
    };
    let mut labels: Vec<String> = bounds
        .iter()
        .map(|b| format!("≤{}", fmt_tick(*b)))
        .collect();
    labels.push("+Inf".into());
    let values: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
    format!(
        "<h2>Block sizes (final partition, per golden-search iteration)</h2>{}",
        bar_chart(&labels, &values, "#7c3aed", "blocks")
    )
}

fn labeled_series(snap: &Snapshot, base: &str, label: &str) -> (Vec<String>, Vec<f64>) {
    let prefix = format!("{base}{{{label}=\"");
    let mut entries: Vec<(u64, f64)> = Vec::new();
    for (name, value) in &snap.metrics {
        if let Some(rest) = name.strip_prefix(&prefix) {
            if let Some(id) = rest.strip_suffix("\"}").and_then(|s| s.parse::<u64>().ok()) {
                let v = match value {
                    MetricValue::Counter(c) => *c as f64,
                    MetricValue::Gauge(g) => *g,
                    MetricValue::Histogram { sum, .. } => *sum,
                };
                entries.push((id, v));
            }
        }
    }
    entries.sort_unstable_by_key(|&(id, _)| id);
    (
        entries.iter().map(|(id, _)| id.to_string()).collect(),
        entries.iter().map(|&(_, v)| v).collect(),
    )
}

fn per_rank_bytes_section(snap: &Snapshot) -> String {
    let (labels, values) = labeled_series(snap, "sbp_wire_move_bytes_encoded_total", "rank");
    format!(
        "<h2>Bytes on the wire (encoded move payloads, per rank)</h2>{}",
        bar_chart(&labels, &values, "#ea580c", "bytes")
    )
}

/// Where each rank's sync points spent their time: inside the one
/// allgather (the wire plus waiting for the slowest peer), or in the
/// rank's own bookkeeping around it.
fn per_rank_sync_section(snap: &Snapshot) -> String {
    let (ranks, sync_ns) = labeled_series(snap, "sbp_wire_sync_ns_total", "rank");
    let (_, wait_ns) = labeled_series(snap, "sbp_wire_sync_wait_ns_total", "rank");
    if ranks.is_empty() || ranks.len() != wait_ns.len() {
        return String::new();
    }
    let mut rows = String::new();
    for ((rank, sync), wait) in ranks.iter().zip(&sync_ns).zip(&wait_ns) {
        let ms = |ns: f64| format!("{:.1}", ns / 1e6);
        let _ = write!(
            rows,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(rank),
            ms(*sync),
            ms(sync - wait),
            ms(*wait)
        );
    }
    format!(
        "<h2>Sync points: compute vs wait (ms, per rank)</h2><table class=\"kv\">\
<tr><th>rank</th><th>in sync points</th><th>compute (own bookkeeping)</th>\
<th>wait (allgather: wire + peers)</th></tr>{rows}</table>"
    )
}

fn pool_section(snap: &Snapshot) -> String {
    let (labels, values) = labeled_series(snap, "sbp_pool_tasks_total", "worker");
    format!(
        "<h2>Pool utilization (tasks per worker)</h2>{}",
        bar_chart(&labels, &values, "#0891b2", "tasks")
    )
}

fn snapshot_table(snap: &Snapshot) -> String {
    let mut rows = String::new();
    for (name, value) in &snap.metrics {
        let text = match value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => fmt_tick(*v),
            MetricValue::Histogram { sum, count, .. } => {
                format!("count={count} sum={}", fmt_tick(*sum))
            }
        };
        let _ = write!(
            rows,
            "<tr><td class=\"mono\">{}</td><td>{}</td></tr>",
            esc(name),
            esc(&text)
        );
    }
    format!(
        "<h2>All metrics</h2><table class=\"kv\"><tr><th>name</th><th>value</th></tr>{rows}</table>"
    )
}

fn page(body: &str) -> String {
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
<title>edist run report</title>\
<style>\
body{{font:14px/1.5 system-ui,sans-serif;max-width:760px;margin:2em auto;color:#111}}\
h1{{font-size:20px}}h2{{font-size:16px;margin-top:1.6em}}\
table.kv{{border-collapse:collapse}}table.kv th,table.kv td{{text-align:left;\
padding:2px 10px;border-bottom:1px solid #e5e7eb}}\
.mono{{font-family:ui-monospace,monospace;font-size:12px}}\
.axis{{stroke:#9ca3af;stroke-width:1}}.tick{{font-size:10px;fill:#6b7280}}\
.legend{{font-size:12px}}.leg{{cursor:pointer;margin-right:8px}}\
.nodata{{color:#9ca3af;font-style:italic}}\
</style></head><body><h1>edist run report</h1>{body}\
<script>\
document.querySelectorAll('.leg').forEach(function(el){{\
el.addEventListener('click',function(){{\
var s=el.closest('.chart').querySelector('#'+el.dataset.series);\
if(s)s.style.display=s.style.display==='none'?'':'none';\
}});}});\
</script></body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(text: &str) -> Value {
        Value::parse(text).unwrap()
    }

    #[test]
    fn renders_full_stream() {
        crate::set_enabled(true);
        crate::counter(&crate::labeled(
            "sbp_wire_move_bytes_encoded_total",
            "rank",
            0,
        ))
        .add(10);
        crate::counter(&crate::labeled("sbp_wire_sync_ns_total", "rank", 0)).add(5_000_000);
        crate::counter(&crate::labeled("sbp_wire_sync_wait_ns_total", "rank", 0)).add(1_500_000);
        crate::counter(&crate::labeled("sbp_pool_tasks_total", "worker", 1)).add(4);
        crate::histogram("sbp_solver_block_size", &crate::SIZE_BUCKETS).observe(3.0);
        crate::counter("sbp_solver_graph_builds_total").add(2);
        crate::counter("sbp_solver_folds_total").add(16);
        crate::counter(&crate::labeled(
            "sbp_solver_overlapped_iterations_total",
            "outcome",
            "committed",
        ))
        .add(3);
        let snap_json = crate::snapshot().to_json().to_string();
        let lines = vec![
            line(r#"{"type":"meta","schema":1,"backend":"batch","seed":7,"vertices":16}"#),
            line(
                r#"{"type":"sweep","iteration":0,"sweep":0,"dl":120.5,"proposed":16,"accepted":9}"#,
            ),
            line(
                r#"{"type":"sweep","iteration":0,"sweep":1,"dl":110.0,"proposed":16,"accepted":4}"#,
            ),
            line(r#"{"type":"iteration","iteration":0,"blocks":4,"dl":110.0}"#),
            line(
                r#"{"type":"summary","dl":110.0,"blocks":4,"wall_seconds":0.1,"virtual_seconds":0.05}"#,
            ),
            line(&format!(r#"{{"type":"snapshot","metrics":{snap_json}}}"#)),
        ];
        let html = render(&lines).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Description-length trajectory"));
        assert!(html.contains("Acceptance rate"));
        assert!(html.contains("polyline"));
        assert!(html.contains("sbp_pool_tasks_total"));
        assert!(html.contains("<td>0</td><td>5.0</td><td>3.5</td><td>1.5</td>"));
        assert!(html.contains("<th>blockmodels built from the graph</th><td>2</td>"));
        assert!(html.contains("<th>blockmodels folded from a held one</th><td>16</td>"));
        assert!(html.contains("<th>iterations run ahead, committed</th><td>3</td>"));
        // Self-contained: no external fetches.
        assert!(!html.contains("http-equiv"));
        assert!(!html.contains("src=\"http"));
    }

    #[test]
    fn rejects_streams_with_nothing_usable() {
        assert!(render(&[]).is_err());
        assert!(render(&[line("{\"type\":\"unknown\"}")]).is_err());
    }

    #[test]
    fn tolerates_unknown_line_types_and_missing_sections() {
        let lines = vec![
            line(r#"{"type":"meta","backend":"sequential","seed":1}"#),
            line(r#"{"type":"future-thing","x":1}"#),
        ];
        let html = render(&lines).unwrap();
        assert!(html.contains("no data"));
    }
}
