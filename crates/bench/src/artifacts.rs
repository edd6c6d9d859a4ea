//! The paper artifacts, each declared once: its table, CSV artifact and
//! summary lines. [`ARTIFACTS`] names them in run order; an [`Artifacts`]
//! computes each shared intermediate at most once (Fig. 2 reads the
//! Table VII sweep, Fig. 5 reads Fig. 4's runs), so any subset of the
//! artifacts costs no more than its members.

use crate::experiments::{
    fig2_points, fig3, fig4, fig5, fig6, param_sweep, table6, Algo, Fig4Row, Fig5Row, SweepCell,
};
use crate::harness::{f2, secs, BenchConfig, Table};

/// Regenerates one artifact into stdout and `target/experiments/`.
pub type Emit = fn(&mut Artifacts);

/// Every artifact by name, in the order a full run regenerates them.
pub const ARTIFACTS: [(&str, Emit); 8] = [
    ("table6", Artifacts::table6),
    ("table7", Artifacts::table7),
    ("table8", Artifacts::table8),
    ("fig2", Artifacts::fig2),
    ("fig3", Artifacts::fig3),
    ("fig4", Artifacts::fig4),
    ("fig5", Artifacts::fig5),
    ("fig6", Artifacts::fig6),
];

/// The clock of the simulated ranks, and so of every runtime column
/// outside Table VI.
const VIRTUAL_CLOCK: &str = "the α–β virtual-clock model (CostModel::hdr100)";

/// One harness run: the configuration and the results later artifacts
/// (and the headline) reuse.
pub struct Artifacts {
    cfg: BenchConfig,
    table7: Option<Vec<SweepCell>>,
    table8: Option<Vec<SweepCell>>,
    fig4: Option<Vec<Fig4Row>>,
    fig5: Option<Vec<Fig5Row>>,
}

impl Artifacts {
    /// Starts a run with nothing computed yet.
    pub fn new(cfg: BenchConfig) -> Self {
        Artifacts {
            cfg,
            table7: None,
            table8: None,
            fig4: None,
            fig5: None,
        }
    }

    fn table6(&mut self) {
        let mut t = Table::new(
            "Table VI — reference-equivalent (dense/batch) vs optimized single-node Hybrid SBP \
             (thread CPU s, pool width 1)",
            &[
                "Graph",
                "V",
                "E",
                "naive NMI",
                "naive s",
                "opt NMI",
                "opt s",
                "speedup",
            ],
        );
        for r in table6(&self.cfg) {
            t.row(vec![
                r.graph_id,
                r.vertices.to_string(),
                r.edges.to_string(),
                f2(r.naive_nmi),
                secs(r.naive_time),
                f2(r.opt_nmi),
                secs(r.opt_time),
                f2(r.naive_time / r.opt_time),
            ]);
        }
        t.emit("table6.csv");
    }

    fn table7_cells(&mut self) -> &[SweepCell] {
        let cfg = self.cfg;
        self.table7
            .get_or_insert_with(|| param_sweep(&cfg, Algo::Dcsbp))
    }

    fn table7(&mut self) {
        let cfg = self.cfg;
        let title = format!(
            "Table VII — NMI with DC-SBP on exhaustive parameter search graphs \
             (NMI only; ranks simulated on {VIRTUAL_CLOCK})"
        );
        emit_sweep(&cfg, self.table7_cells(), &title, "table7.csv");
    }

    fn table8(&mut self) {
        let cells = param_sweep(&self.cfg, Algo::Edist);
        let title = format!(
            "Table VIII — NMI with EDiSt on exhaustive parameter search graphs \
             (NMI only; ranks simulated on {VIRTUAL_CLOCK})"
        );
        emit_sweep(&self.cfg, &cells, &title, "table8.csv");
        self.table8 = Some(cells);
    }

    fn fig2(&mut self) {
        let mut points = fig2_points(self.table7_cells());
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut t = Table::new(
            "Fig. 2 — island vertices induced by data distribution vs NMI (DC-SBP, multi-rank \
             cells of the Table VII sweep)",
            &["island fraction", "NMI"],
        );
        for (frac, score) in &points {
            t.row(vec![format!("{frac:.4}"), format!("{score:.4}")]);
        }
        t.emit("fig2.csv");
        // The paper's qualitative finding: NMI collapses past ~20% islands.
        let mean_where = |keep: fn(f64) -> bool| {
            let picked: Vec<f64> = points
                .iter()
                .filter(|(f, _)| keep(*f))
                .map(|&(_, s)| s)
                .collect();
            match picked.len() {
                0 => "n/a (0 pts)".to_string(),
                n => format!("{:.3} ({n} pts)", picked.iter().sum::<f64>() / n as f64),
            }
        };
        println!(
            "mean DC-SBP NMI at <=10% islands: {}\nmean DC-SBP NMI at  >30% islands: {} \
             (paper: ~0)",
            mean_where(|f| f <= 0.1),
            mean_where(|f| f > 0.3)
        );
    }

    fn fig3(&mut self) {
        let mut t = Table::new(
            &format!(
                "Fig. 3 — EDiSt runtime with multiple MPI tasks per compute node (1M graph; \
                 runtime is output of {VIRTUAL_CLOCK})"
            ),
            &["tasks", "runtime (s)", "speedup"],
        );
        for r in fig3(&self.cfg) {
            t.row(vec![r.tasks.to_string(), secs(r.makespan), f2(r.speedup)]);
        }
        t.emit("fig3.csv");
    }

    fn fig4_rows(&mut self) -> &[Fig4Row] {
        let cfg = self.cfg;
        self.fig4.get_or_insert_with(|| fig4(&cfg))
    }

    fn fig4(&mut self) {
        let mut t = Table::new(
            &format!(
                "Fig. 4 — EDiSt strong scaling (runtime + NMI) on synthetic graphs (runtime is output of \
                 {VIRTUAL_CLOCK})"
            ),
            &["graph", "ranks", "runtime (s)", "speedup", "NMI"],
        );
        for r in self.fig4_rows() {
            t.row(vec![
                r.graph_id.clone(),
                r.n_ranks.to_string(),
                secs(r.makespan),
                f2(r.speedup),
                f2(r.nmi),
            ]);
        }
        t.emit("fig4.csv");
    }

    fn fig5(&mut self) {
        let cfg = self.cfg;
        let rows = fig5(&cfg, self.fig4_rows());
        let mut t = Table::new(
            &format!(
                "Fig. 5 — best DC-SBP vs EDiSt runtimes on synthetic scaling graphs (runtimes \
                 are output of {VIRTUAL_CLOCK})"
            ),
            &[
                "graph",
                "shared-mem (s)",
                "best DC-SBP (s)",
                "DC ranks",
                "EDiSt (s)",
                "ED ranks",
                "speedup vs SM",
                "speedup vs DC",
            ],
        );
        for r in &rows {
            t.row(vec![
                r.graph_id.clone(),
                secs(r.sm_time),
                secs(r.dc_time),
                r.dc_ranks.to_string(),
                secs(r.edist_time),
                r.edist_ranks.to_string(),
                f2(r.speedup_vs_sm),
                f2(r.speedup_vs_dc),
            ]);
        }
        t.emit("fig5.csv");
        self.fig5 = Some(rows);
    }

    fn fig6(&mut self) {
        let mut t = Table::new(
            &format!(
                "Fig. 6 — DC-SBP vs EDiSt on real-world graphs (lower DL_norm is better; runtime \
                 is output of {VIRTUAL_CLOCK})"
            ),
            &["graph", "algo", "ranks", "runtime (s)", "DL_norm"],
        );
        for r in fig6(&self.cfg) {
            let algo = match r.algo {
                Algo::Dcsbp => "DC-SBP",
                Algo::Edist => "EDiSt",
            };
            t.row(vec![
                r.graph_id,
                algo.to_string(),
                r.n_ranks.to_string(),
                secs(r.makespan),
                f2(r.dl_norm),
            ]);
        }
        t.emit("fig6.csv");
    }

    /// Prints the paper-vs-measured headline lines whose artifacts ran
    /// (Fig. 5's speedups, Table VIII's accuracy retention).
    pub fn headline(&self) {
        if self.fig5.is_none() && self.table8.is_none() {
            return;
        }
        println!("\n=== Headline comparison with the paper ===");
        if let Some(f5) = &self.fig5 {
            let best_sm = f5.iter().map(|r| r.speedup_vs_sm).fold(f64::NAN, f64::max);
            let best_dc = f5.iter().map(|r| r.speedup_vs_dc).fold(f64::NAN, f64::max);
            println!(
                "max EDiSt speedup vs shared-memory SBP: {best_sm:.1}x (paper: up to 38.0x at 64 \
                 nodes)"
            );
            println!("max EDiSt speedup vs best DC-SBP:      {best_dc:.1}x (paper: up to 23.8x)");
        }
        if let Some(t8) = &self.table8 {
            // Retention = degradation vs each graph's own 1-rank baseline
            // (some sparse graphs are unrecoverable at any rank count at
            // this scale).
            let worst_drop = t8
                .iter()
                .filter(|c| c.n_ranks >= 16)
                .map(|cell| {
                    let baseline = t8
                        .iter()
                        .find(|b| b.graph_id == cell.graph_id && b.n_ranks == 1)
                        .map_or(cell.nmi, |b| b.nmi);
                    baseline - cell.nmi
                })
                .reduce(f64::max);
            let worst_drop = match worst_drop {
                Some(drop) => format!("{:.3}", drop.max(0.0)),
                None => "n/a (no cell at >= 16 ranks)".to_string(),
            };
            println!(
                "worst EDiSt NMI drop vs 1-rank baseline at >=16 ranks: {worst_drop} (paper: \
                 EDiSt retains accuracy)"
            );
        }
    }
}

/// Renders a parameter-search sweep in the paper's layout (rows = graphs,
/// columns = rank counts, cells = NMI) and writes the CSV artifact.
fn emit_sweep(cfg: &BenchConfig, cells: &[SweepCell], title: &str, csv: &str) {
    let ranks = cfg.rank_counts();
    let mut header: Vec<String> = vec!["Graph".to_string()];
    header.extend(ranks.iter().map(|n| format!("n={n}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &header_refs);
    let mut ids: Vec<String> = cells.iter().map(|c| c.graph_id.clone()).collect();
    ids.dedup();
    for id in ids {
        let mut row = vec![id.clone()];
        for &n in &ranks {
            let cell = cells
                .iter()
                .find(|c| c.graph_id == id && c.n_ranks == n)
                .map_or(f64::NAN, |c| c.nmi);
            row.push(f2(cell));
        }
        t.row(row);
    }
    t.emit(csv);
}
