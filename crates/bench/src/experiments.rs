//! The experiment implementations: the structured rows behind each paper
//! artifact ([`crate::artifacts`] renders them).
//!
//! Graph sizes are laptop-scale by default; every size
//! is multiplied by `BenchConfig::scale`, so the paper-scale experiments
//! are `EDIST_SCALE≈10–20` away on a capable machine. Runtimes come from
//! the simulated cluster's virtual clocks (BSP makespan, see `sbp-mpi`),
//! except Table VI's thread-CPU readings; NMI/DL_norm come from
//! `sbp-eval`.

use crate::harness::BenchConfig;
use crate::naive::naive_sbp;
use edist::{Backend, Partitioner, Run};
use sbp_core::{McmcStrategy, SbpConfig};
use sbp_eval::nmi;
use sbp_gen::{
    graph_challenge, param_study, realworld, scaling_graph, Difficulty, ParamStudySpec,
    PlantedGraph, RealWorldStandIn, ScalingGraph,
};
use sbp_graph::{island_fraction_round_robin, Graph};
use sbp_mpi::CostModel;

/// The SBP hyper-parameters used throughout the evaluation: the Hybrid-SBP
/// MCMC (the paper's intra-rank algorithm). The experiments run it at pool
/// width 1 (`sbp_core::with_threads`): the simulated ranks already
/// saturate the host, and each rank's thread-CPU clock then holds its
/// whole sweep.
pub fn experiment_sbp_config(seed: u64) -> SbpConfig {
    SbpConfig {
        strategy: McmcStrategy::Hybrid,
        seed,
        ..SbpConfig::default()
    }
}

/// Every experiment drives inference through the unified `Partitioner`
/// facade: the backend is the only thing that varies between cells. At
/// pool width 1, so `virtual_seconds` is one-thread CPU time.
fn run_backend(graph: &Graph, backend: Backend, seed: u64) -> Run {
    sbp_core::with_threads(1, || {
        Partitioner::on(graph)
            .backend(backend)
            .config(experiment_sbp_config(seed))
            .cost_model(CostModel::hdr100())
            .run()
            .expect("experiment configurations are valid")
    })
}

// ---------------------------------------------------------------- Table VI

/// One Table VI row: the naive (python-equivalent) engine vs the
/// optimized single-node Hybrid engine at pool width 1, on a
/// Graph-Challenge-style graph.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Dataset label, e.g. `20k-easy (scaled)`.
    pub graph_id: String,
    /// Vertices / edges of the scaled instance.
    pub vertices: usize,
    /// Total edge weight.
    pub edges: i64,
    /// NMI of the naive engine.
    pub naive_nmi: f64,
    /// Thread CPU time of the naive engine (s).
    pub naive_time: f64,
    /// NMI of the optimized engine.
    pub opt_nmi: f64,
    /// Thread CPU time of the optimized engine (s).
    pub opt_time: f64,
}

/// Regenerates Table VI: the reference-equivalent implementation must
/// match the optimized one on NMI while being far slower.
///
/// The paper compared the authors' optimized C++ translation against the
/// original python DC-SBP. A compiled reimplementation cannot honestly
/// reproduce python's interpretation overhead, so this reproduction
/// isolates the *algorithmic* half of the gap — the §III-A data-structure
/// optimizations (sparse matrix + transpose, sparse deltas, pointer-based
/// merges, hybrid MCMC) against the reference's dense matrix, dense
/// rescans and batch MCMC — on full single-node inference, where the block
/// count starts at `V` and the dense engine's O(C) kernels dominate. Both
/// sides run on the calling thread (the optimized one at pool width 1),
/// so each is timed by that thread's CPU clock.
pub fn table6(cfg: &BenchConfig) -> Vec<Table6Row> {
    let mut rows = Vec::new();
    for (base_v, label) in [(800usize, "20k"), (1300, "50k"), (2000, "200k")] {
        for difficulty in [Difficulty::Easy, Difficulty::Hard] {
            let v = ((base_v as f64) * cfg.scale).round() as usize;
            let suffix = match difficulty {
                Difficulty::Easy => "easy",
                Difficulty::Hard => "hard",
            };
            let graph_id = format!("{label}-{suffix}");
            eprintln!("[table6] {graph_id} (V={v}) ...");
            let pg = graph_challenge(v, difficulty, cfg.seed);

            let naive_cfg = SbpConfig {
                strategy: McmcStrategy::Batch,
                seed: cfg.seed,
                ..SbpConfig::default()
            };
            let t0 = sbp_mpi::thread_cpu_time();
            let naive_res = naive_sbp(&pg.graph, &naive_cfg);
            let naive_time = sbp_mpi::thread_cpu_time() - t0;

            // The optimized engine runs through the unified facade; its
            // `virtual_seconds` is exactly the thread-CPU measurement the
            // naive side uses.
            let opt_res = run_backend(&pg.graph, Backend::Hybrid, cfg.seed);
            let opt_time = opt_res.virtual_seconds;

            rows.push(Table6Row {
                graph_id,
                vertices: pg.graph.num_vertices(),
                edges: pg.graph.total_edge_weight(),
                naive_nmi: nmi(&naive_res.assignment, &pg.ground_truth),
                naive_time,
                opt_nmi: nmi(&opt_res.assignment, &pg.ground_truth),
                opt_time,
            });
        }
    }
    rows
}

// ------------------------------------------------------ Tables VII & VIII

/// Which distributed algorithm a sweep cell measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Divide-and-conquer SBP (Table VII).
    Dcsbp,
    /// EDiSt (Table VIII).
    Edist,
}

/// One cell of the exhaustive parameter-search sweep.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Table III graph id (`TTT33` … `FFF150`).
    pub graph_id: String,
    /// Simulated rank count.
    pub n_ranks: usize,
    /// NMI against the planted partition.
    pub nmi: f64,
    /// Fraction of vertices islanded by the round-robin distribution at
    /// this rank count (Fig. 2's x-axis).
    pub island_fraction: f64,
}

/// Default scale of the parameter-study graphs relative to the paper's
/// 22 599 vertices (≈1 130 vertices at 1.0 global scale).
pub const PARAM_STUDY_DEFAULT_SCALE: f64 = 0.05;

/// Runs the 16-graph × rank-count sweep for one algorithm.
pub fn param_sweep(cfg: &BenchConfig, algo: Algo) -> Vec<SweepCell> {
    let scale = PARAM_STUDY_DEFAULT_SCALE * cfg.scale;
    let mut cells = Vec::new();
    for spec in ParamStudySpec::all() {
        let pg = param_study(spec, scale, cfg.seed);
        for &n in &cfg.rank_counts() {
            eprintln!("[{algo:?}] {} n={n} ...", spec.id());
            let island = island_fraction_round_robin(&pg.graph, n).fraction();
            let backend = match algo {
                Algo::Dcsbp => Backend::DcSbp { ranks: n },
                Algo::Edist => Backend::Edist { ranks: n },
            };
            let run = run_backend(&pg.graph, backend, cfg.seed);
            cells.push(SweepCell {
                graph_id: spec.id(),
                n_ranks: n,
                nmi: nmi(&run.assignment, &pg.ground_truth),
                island_fraction: island,
            });
        }
    }
    cells
}

// ---------------------------------------------------------------- Fig. 2

/// Fig. 2 scatter points: island-vertex fraction vs NMI, derived from the
/// Table VII sweep (multi-rank DC-SBP cells only).
pub fn fig2_points(table7_cells: &[SweepCell]) -> Vec<(f64, f64)> {
    table7_cells
        .iter()
        .filter(|c| c.n_ranks > 1)
        .map(|c| (c.island_fraction, c.nmi))
        .collect()
}

// ---------------------------------------------------------------- Fig. 3

/// One Fig. 3 point: EDiSt with several MPI tasks on one node.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// MPI tasks on the (single) node.
    pub tasks: usize,
    /// Simulated runtime (s).
    pub makespan: f64,
    /// Speedup over 1 task.
    pub speedup: f64,
}

/// Default scale of the Table IV scaling graphs (≈5 256-vertex "1M" at 1.0
/// global scale).
pub const SCALING_DEFAULT_SCALE: f64 = 0.005;

/// Regenerates Fig. 3: EDiSt runtime on the 1M-equivalent graph with 1–16
/// MPI tasks per node.
pub fn fig3(cfg: &BenchConfig) -> Vec<Fig3Row> {
    let pg = scaling_graph(
        ScalingGraph::M1,
        SCALING_DEFAULT_SCALE * cfg.scale,
        cfg.seed,
    );
    let mut rows = Vec::new();
    let mut base = f64::NAN;
    for tasks in [1usize, 2, 4, 8, 16] {
        if tasks > cfg.max_ranks {
            break;
        }
        eprintln!("[fig3] tasks={tasks} ...");
        let run = run_backend(&pg.graph, Backend::Edist { ranks: tasks }, cfg.seed);
        if tasks == 1 {
            base = run.virtual_seconds;
        }
        rows.push(Fig3Row {
            tasks,
            makespan: run.virtual_seconds,
            speedup: base / run.virtual_seconds,
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig. 4

/// One Fig. 4 point: EDiSt strong scaling on a synthetic scaling graph.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Graph id (`1M`, `2M`, `4M`).
    pub graph_id: String,
    /// Simulated rank count.
    pub n_ranks: usize,
    /// Simulated runtime (s).
    pub makespan: f64,
    /// NMI against the planted partition.
    pub nmi: f64,
    /// Speedup over the 1-rank run of the same graph.
    pub speedup: f64,
}

/// Regenerates Fig. 4: EDiSt runtime and NMI on 1M/2M/4M-equivalents from
/// 1 to 64 ranks.
pub fn fig4(cfg: &BenchConfig) -> Vec<Fig4Row> {
    let scale = SCALING_DEFAULT_SCALE * cfg.scale;
    let mut rows = Vec::new();
    for which in ScalingGraph::all() {
        let pg = scaling_graph(which, scale, cfg.seed);
        let mut base = f64::NAN;
        for &n in &cfg.rank_counts() {
            eprintln!(
                "[fig4] {} (V={}) n={n} ...",
                which.id(),
                pg.graph.num_vertices()
            );
            let run = run_backend(&pg.graph, Backend::Edist { ranks: n }, cfg.seed);
            if n == 1 {
                base = run.virtual_seconds;
            }
            rows.push(Fig4Row {
                graph_id: which.id().to_string(),
                n_ranks: n,
                makespan: run.virtual_seconds,
                nmi: nmi(&run.assignment, &pg.ground_truth),
                speedup: base / run.virtual_seconds,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 5

/// One Fig. 5 row: best accuracy-preserving DC-SBP vs EDiSt at the
/// largest rank count.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Graph id.
    pub graph_id: String,
    /// Shared-memory (1-rank) runtime (s).
    pub sm_time: f64,
    /// Best DC-SBP runtime among rank counts that kept NMI within 0.05 of
    /// the 1-rank baseline.
    pub dc_time: f64,
    /// The rank count achieving `dc_time`.
    pub dc_ranks: usize,
    /// EDiSt runtime at the largest rank count.
    pub edist_time: f64,
    /// EDiSt rank count.
    pub edist_ranks: usize,
    /// `sm_time / edist_time` (the paper's headline 38×-class number).
    pub speedup_vs_sm: f64,
    /// `dc_time / edist_time` (the paper's 23.8×-class number).
    pub speedup_vs_dc: f64,
}

/// Regenerates Fig. 5 from fresh DC-SBP runs plus the Fig. 4 EDiSt rows.
pub fn fig5(cfg: &BenchConfig, fig4_rows: &[Fig4Row]) -> Vec<Fig5Row> {
    let scale = SCALING_DEFAULT_SCALE * cfg.scale;
    let mut out = Vec::new();
    for which in ScalingGraph::all() {
        let pg = scaling_graph(which, scale, cfg.seed);
        // DC-SBP: find the largest rank count that preserves NMI.
        let mut baseline_nmi = f64::NAN;
        let mut best: Option<(usize, f64)> = None;
        for &n in &cfg.rank_counts() {
            eprintln!("[fig5] DC-SBP {} n={n} ...", which.id());
            let run = run_backend(&pg.graph, Backend::DcSbp { ranks: n }, cfg.seed);
            let score = nmi(&run.assignment, &pg.ground_truth);
            if n == 1 {
                baseline_nmi = score;
                best = Some((1, run.virtual_seconds));
            } else if score >= baseline_nmi - 0.05 {
                best = Some((n, run.virtual_seconds));
            }
        }
        let (dc_ranks, dc_time) = best.expect("at least the 1-rank run");
        let ed_rows: Vec<&Fig4Row> = fig4_rows
            .iter()
            .filter(|r| r.graph_id == which.id())
            .collect();
        let sm_time = ed_rows
            .iter()
            .find(|r| r.n_ranks == 1)
            .map_or(f64::NAN, |r| r.makespan);
        let last = ed_rows.last().expect("fig4 covered this graph");
        out.push(Fig5Row {
            graph_id: which.id().to_string(),
            sm_time,
            dc_time,
            dc_ranks,
            edist_time: last.makespan,
            edist_ranks: last.n_ranks,
            speedup_vs_sm: sm_time / last.makespan,
            speedup_vs_dc: dc_time / last.makespan,
        });
    }
    out
}

// ---------------------------------------------------------------- Fig. 6

/// One Fig. 6 point: runtime + normalized DL on a real-world stand-in.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Graph id (`Amazon` … `LiveJournal`).
    pub graph_id: String,
    /// Algorithm measured.
    pub algo: Algo,
    /// Simulated rank count.
    pub n_ranks: usize,
    /// Simulated runtime (s).
    pub makespan: f64,
    /// Normalized description length (lower is better).
    pub dl_norm: f64,
}

/// Per-graph scales for the real-world stand-ins (fractions of the paper's
/// vertex counts), chosen to keep the laptop suite under a few minutes.
pub fn realworld_scale(which: RealWorldStandIn, global: f64) -> f64 {
    let base = match which {
        RealWorldStandIn::Amazon => 0.02,
        RealWorldStandIn::Patents => 0.018,
        RealWorldStandIn::BerkStan => 0.012,
        RealWorldStandIn::Twitter => 0.012,
        RealWorldStandIn::LiveJournal => 0.002,
    };
    (base * global).min(1.0)
}

/// Regenerates Fig. 6: DC-SBP vs EDiSt strong scaling and DL_norm on the
/// five real-world stand-ins, at rank counts {1, 4, 16, 64}.
pub fn fig6(cfg: &BenchConfig) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for which in RealWorldStandIn::all() {
        let pg = realworld(which, realworld_scale(which, cfg.scale), cfg.seed);
        let v = pg.graph.num_vertices();
        for &n in &[1usize, 4, 16, 64] {
            if n > cfg.max_ranks {
                break;
            }
            eprintln!("[fig6] {} (V={v}) n={n} ...", which.id());
            for (algo, backend) in [
                (Algo::Dcsbp, Backend::DcSbp { ranks: n }),
                (Algo::Edist, Backend::Edist { ranks: n }),
            ] {
                let run = run_backend(&pg.graph, backend, cfg.seed);
                rows.push(Fig6Row {
                    graph_id: which.id().to_string(),
                    algo,
                    n_ranks: n,
                    makespan: run.virtual_seconds,
                    dl_norm: run.dl_norm(&pg.graph),
                });
            }
        }
    }
    rows
}

/// Convenience: builds the scaled graph set used in examples/tests.
pub fn demo_graph(cfg: &BenchConfig) -> PlantedGraph {
    param_study(
        ParamStudySpec {
            truncate_min: true,
            truncate_max: true,
            duplicated: true,
            communities_base: 33,
        },
        PARAM_STUDY_DEFAULT_SCALE * cfg.scale,
        cfg.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> BenchConfig {
        BenchConfig {
            scale: 0.5,
            max_ranks: 2,
            seed: 7,
        }
    }

    #[test]
    fn fig2_points_drop_single_rank_cells() {
        let cells = vec![
            SweepCell {
                graph_id: "X".into(),
                n_ranks: 1,
                nmi: 0.9,
                island_fraction: 0.0,
            },
            SweepCell {
                graph_id: "X".into(),
                n_ranks: 4,
                nmi: 0.5,
                island_fraction: 0.3,
            },
        ];
        let pts = fig2_points(&cells);
        assert_eq!(pts, vec![(0.3, 0.5)]);
    }

    #[test]
    fn realworld_scales_are_sane() {
        for w in RealWorldStandIn::all() {
            let s = realworld_scale(w, 1.0);
            assert!(s > 0.0 && s <= 1.0);
        }
    }

    #[test]
    fn demo_graph_is_deterministic() {
        let cfg = tiny_cfg();
        assert_eq!(demo_graph(&cfg).graph, demo_graph(&cfg).graph);
    }

    #[test]
    #[ignore = "multi-second smoke test; run explicitly"]
    fn table6_smoke() {
        let rows = table6(&tiny_cfg());
        assert_eq!(rows.len(), 6);
        for r in rows {
            assert!(r.naive_nmi >= 0.0 && r.opt_nmi >= 0.0);
            assert!(r.naive_time > 0.0 && r.opt_time > 0.0);
        }
    }
}
