//! The end-to-end stochastic block partitioning driver.
//!
//! Alternates the block-merge phase (Alg. 1) and the MCMC phase (Alg. 2)
//! under golden-ratio control until the optimal block count is bracketed —
//! Fig. 1 of the paper. Every description length recorded in the bracket
//! and the iteration trajectory is an entropy sum over canonical matrix
//! lines, so a trajectory is reproducible bit for bit from
//! `(graph, seed, config)` in both storage regimes — the golden search's
//! control flow (which bracket entry wins, when the search stops) cannot
//! diverge between replicas that hold the same integers. [`solve_sbp`] is the engine: it accepts an
//! optional starting partition (how DC-SBP's root-rank fine-tuning phase,
//! Alg. 3 line 23, resumes from the combined partial results), reports
//! [`ProgressEvent`]s, honours a [`crate::run::CancelToken`] at iteration
//! boundaries and between MCMC sweeps, and returns the unified
//! [`RunOutcome`].

use crate::blockmodel::Blockmodel;
use crate::checkpoint::{strategy_tag, CheckpointState};
use crate::golden::{BracketEntry, GoldenBracket, NextStep};
use crate::hybrid::{batch_sweep, hybrid_sweep, HybridConfig};
use crate::mcmc::{keyed_mh_sweep, mcmc_phase, McmcStats};
use crate::merge::{apply_merges, propose_merges};
use crate::run::{ProgressEvent, ProgressSink, RunConfig, RunOutcome};
use sbp_graph::{Graph, Vertex};
use std::sync::OnceLock;

/// Cached handles for the solver-layer metrics (`sbp_solver_*`).
/// Strictly observe-only — see the `sbp-metrics` crate docs: nothing in
/// this module ever reads a recorded value back, so the solver's output
/// is bit-identical with metrics on or off.
struct SolverMetrics {
    iterations: std::sync::Arc<sbp_metrics::Counter>,
    sweeps: std::sync::Arc<sbp_metrics::Counter>,
    proposals: std::sync::Arc<sbp_metrics::Counter>,
    moves: std::sync::Arc<sbp_metrics::Counter>,
    merge_wall: std::sync::Arc<sbp_metrics::Histogram>,
    merge_cpu: std::sync::Arc<sbp_metrics::Histogram>,
    mcmc_wall: std::sync::Arc<sbp_metrics::Histogram>,
    mcmc_cpu: std::sync::Arc<sbp_metrics::Histogram>,
    block_size: std::sync::Arc<sbp_metrics::Histogram>,
}

fn solver_metrics() -> &'static SolverMetrics {
    static M: OnceLock<SolverMetrics> = OnceLock::new();
    M.get_or_init(|| SolverMetrics {
        iterations: sbp_metrics::counter("sbp_solver_iterations_total"),
        sweeps: sbp_metrics::counter("sbp_solver_sweeps_total"),
        proposals: sbp_metrics::counter("sbp_solver_proposals_total"),
        moves: sbp_metrics::counter("sbp_solver_moves_total"),
        merge_wall: sbp_metrics::histogram(
            "sbp_solver_merge_wall_seconds",
            &sbp_metrics::TIME_BUCKETS,
        ),
        merge_cpu: sbp_metrics::histogram(
            "sbp_solver_merge_cpu_seconds",
            &sbp_metrics::TIME_BUCKETS,
        ),
        mcmc_wall: sbp_metrics::histogram(
            "sbp_solver_mcmc_wall_seconds",
            &sbp_metrics::TIME_BUCKETS,
        ),
        mcmc_cpu: sbp_metrics::histogram("sbp_solver_mcmc_cpu_seconds", &sbp_metrics::TIME_BUCKETS),
        block_size: sbp_metrics::histogram("sbp_solver_block_size", &sbp_metrics::SIZE_BUCKETS),
    })
}

/// Wall + thread-CPU start pair for a phase timing, taken only when
/// recording is on (`None` keeps the disabled path clock-free). Shared
/// with the distributed drivers in `sbp-dist`, which time their own
/// merge/MCMC phases into the same histograms.
pub fn phase_clock() -> Option<(std::time::Instant, f64)> {
    sbp_metrics::enabled().then(|| (std::time::Instant::now(), sbp_mpi::thread_cpu_time()))
}

/// Records one iteration's block-size distribution (label frequencies
/// of the current assignment) into `sbp_solver_block_size`. Observe-only;
/// a no-op while recording is disabled.
pub fn observe_block_sizes(bm: &Blockmodel) {
    if !sbp_metrics::enabled() {
        return;
    }
    let mut sizes = vec![0u64; bm.num_blocks()];
    for &b in bm.assignment() {
        if let Some(slot) = sizes.get_mut(b as usize) {
            *slot += 1;
        }
    }
    let hist = &solver_metrics().block_size;
    for &size in sizes.iter().filter(|&&s| s > 0) {
        hist.observe(size as f64);
    }
}

/// Records a finished merge phase's wall/CPU timings from a
/// [`phase_clock`] start pair (no-op on `None`).
pub fn record_merge_timing(clock: Option<(std::time::Instant, f64)>) {
    if let Some((wall, cpu)) = clock {
        let m = solver_metrics();
        m.merge_wall.observe(wall.elapsed().as_secs_f64());
        m.merge_cpu.observe(sbp_mpi::thread_cpu_time() - cpu);
    }
}

/// Records a finished MCMC phase's wall/CPU timings from a
/// [`phase_clock`] start pair (no-op on `None`).
pub fn record_mcmc_timing(clock: Option<(std::time::Instant, f64)>) {
    if let Some((wall, cpu)) = clock {
        let m = solver_metrics();
        m.mcmc_wall.observe(wall.elapsed().as_secs_f64());
        m.mcmc_cpu.observe(sbp_mpi::thread_cpu_time() - cpu);
    }
}

/// Counts one finished golden-loop iteration into
/// `sbp_solver_iterations_total` (no-op while recording is disabled —
/// the counter gates internally).
pub fn record_iteration() {
    solver_metrics().iterations.inc();
}

/// Counts one completed sweep (with its proposal/acceptance tallies)
/// into the solver counters. The distributed drivers call this from
/// their sync points, which are their sweep boundaries.
pub fn record_sweep(proposals: usize, moves: usize) {
    if !sbp_metrics::enabled() {
        return;
    }
    let m = solver_metrics();
    m.sweeps.inc();
    m.proposals.add(proposals as u64);
    m.moves.add(moves as u64);
}

/// Which MCMC sweep implementation to use inside each phase.
#[derive(Clone, Debug, PartialEq)]
pub enum McmcStrategy {
    /// Sequential Metropolis–Hastings (paper Alg. 2). Proposal RNG
    /// streams are derived per `(seed, sweep, vertex)` — the same scheme
    /// as [`crate::hybrid::hybrid_sweep`] — so a sweep over any vertex
    /// subset draws the identical randomness for a given vertex
    /// regardless of which rank evaluates it.
    MetropolisHastings,
    /// Hybrid SBP: sequential high-degree head + chunked asynchronous
    /// Gibbs tail (the paper's intra-rank parallelization).
    Hybrid(HybridConfig),
    /// Whole-sweep batch evaluation (python-reference parallelism).
    Batch,
}

/// SBP hyper-parameters. Defaults follow the Graph-Challenge reference
/// implementation the paper's C++ baseline was translated from.
#[derive(Clone, Debug)]
pub struct SbpConfig {
    /// Inverse temperature β in the acceptance probability
    /// `min(1, exp(−β·ΔS)·H)`.
    pub beta: f64,
    /// Merge proposals evaluated per block in each merge phase (the
    /// paper's `x`).
    pub merge_proposals_per_block: usize,
    /// Fraction of blocks merged per agglomerative iteration before the
    /// bracket is established (0.5 = "until the number of communities is
    /// halved").
    pub block_reduction_rate: f64,
    /// Maximum MCMC sweeps per phase (the paper's `x` in Alg. 2).
    pub max_sweeps: usize,
    /// Convergence threshold before the golden-ratio bracket is
    /// established (`t` in Alg. 2).
    pub threshold_pre: f64,
    /// Tighter threshold once the bracket is established.
    pub threshold_post: f64,
    /// Sweep implementation.
    pub strategy: McmcStrategy,
    /// Master RNG seed.
    pub seed: u64,
    /// Hard cap on merge+MCMC iterations (safety net; the golden search
    /// terminates long before this on any real input).
    pub max_iterations: usize,
}

impl Default for SbpConfig {
    fn default() -> Self {
        SbpConfig {
            beta: 3.0,
            merge_proposals_per_block: 10,
            block_reduction_rate: 0.5,
            max_sweeps: 30,
            threshold_pre: 5e-4,
            threshold_post: 1e-4,
            strategy: McmcStrategy::MetropolisHastings,
            seed: 0,
            max_iterations: 300,
        }
    }
}

/// Statistics of one merge+MCMC iteration.
#[derive(Clone, Debug)]
pub struct IterationStat {
    /// Block count after the merge phase.
    pub num_blocks: usize,
    /// Description length after the MCMC phase.
    pub dl: f64,
    /// MCMC sweeps run.
    pub sweeps: usize,
    /// Vertex moves accepted.
    pub moves: usize,
}

impl sbp_mpi::Wire for IterationStat {
    fn wire_write(&self, buf: &mut Vec<u8>) {
        self.num_blocks.wire_write(buf);
        self.dl.wire_write(buf);
        self.sweeps.wire_write(buf);
        self.moves.wire_write(buf);
    }

    fn wire_read(buf: &[u8], pos: &mut usize) -> Result<Self, sbp_graph::frame::DecodeError> {
        Ok(IterationStat {
            num_blocks: usize::wire_read(buf, pos)?,
            dl: f64::wire_read(buf, pos)?,
            sweeps: usize::wire_read(buf, pos)?,
            moves: usize::wire_read(buf, pos)?,
        })
    }
}

/// Result of the reference engine ([`crate::naive::naive_sbp`]).
#[derive(Clone, Debug)]
pub struct SbpResult {
    /// Inferred block assignment (dense labels).
    pub assignment: Vec<u32>,
    /// Inferred number of blocks.
    pub num_blocks: usize,
    /// Description length of the returned partition.
    pub description_length: f64,
    /// Per-iteration history.
    pub iterations: Vec<IterationStat>,
}

/// The per-iteration seed for the merge phase's per-block proposal
/// streams. Shared with the distributed drivers so EDiSt's merge phase
/// is bit-identical to the single-node one at every rank count.
pub fn merge_phase_seed(seed: u64, iter_idx: usize) -> u64 {
    seed.wrapping_add(0xA5A5_0000).wrapping_add(iter_idx as u64)
}

/// The per-iteration seed for the MCMC phase's `(sweep, vertex)`-keyed
/// proposal streams. Shared with the distributed drivers — it must not
/// depend on the rank id, or rank counts would explore different
/// trajectories.
pub fn mcmc_phase_seed(seed: u64, iter_idx: usize) -> u64 {
    seed.wrapping_add(0x5A5A_0000)
        .wrapping_add((iter_idx as u64) << 32)
}

/// Runs SBP inference: the golden-ratio search over merge+MCMC
/// iterations, from `start` (an `(assignment, num_blocks)` pair) or the
/// identity partition (`C = V`) when `start` is `None`.
///
/// Progress events are reported inline through `progress`;
/// `cfg.cancel` is polled at iteration boundaries and between MCMC
/// sweeps, and a cancelled run returns the best-so-far bracket entry
/// with [`RunOutcome::cancelled`] set.
///
/// When `cfg.checkpoint` is set, a `.sbpc` snapshot is written at the
/// configured sync boundaries (writes are atomic and best-effort: an
/// unwritable path never kills a multi-hour run — validate the path up
/// front, as the `Partitioner` facade does). When `cfg.resume` is set,
/// the golden loop restores the snapshot's bracket, trajectory, and
/// iteration index and ignores `start`; because every RNG stream is
/// keyed by `(seed, iteration, sweep, vertex)`, the resumed run is
/// bit-identical to the uninterrupted one.
///
/// When `cfg.warm` is set (and neither `start` nor `cfg.resume` is —
/// both take precedence), the bracket is seeded from the warm partition
/// and, if a dirty set is given, MCMC phases sweep only those vertices.
/// See [`crate::run::WarmStart`] for the exactness argument.
pub fn solve_sbp(
    graph: &Graph,
    start: Option<(Vec<u32>, usize)>,
    cfg: &RunConfig,
    progress: &mut dyn ProgressSink,
) -> RunOutcome {
    let t0 = sbp_mpi::thread_cpu_time();
    let n = graph.num_vertices();
    if n == 0 {
        return RunOutcome::empty();
    }
    let scfg = &cfg.sbp;
    // Warm starts yield to an explicit `start` (DC-SBP fine-tuning) and
    // to resume snapshots; mixing them is rejected upstream.
    let warm = if start.is_none() && cfg.resume.is_none() {
        cfg.warm.as_ref()
    } else {
        None
    };
    // Dirty-set filtering: a warm start may restrict MCMC sweeps to the
    // vertices near changed edges. The subset is sanitized here (sorted,
    // deduped, clamped to range) so sweep order is canonical; the
    // per-vertex RNG keying makes the restricted sweep propose exactly
    // what a full sweep would for the same vertices.
    let vertices: Vec<Vertex> = match warm.and_then(|w| w.dirty.as_ref()) {
        Some(dirty) => {
            let mut vs: Vec<Vertex> = dirty
                .iter()
                .copied()
                .filter(|&v| (v as usize) < n)
                .collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        }
        None => (0..n as u32).collect(),
    };
    let (mut bracket, mut iterations, first_iter);
    if let Some(state) = &cfg.resume {
        bracket = state.bracket(scfg.block_reduction_rate);
        iterations = state.iterations.clone();
        first_iter = state.next_iter as usize;
        progress.on_event(&ProgressEvent::Started {
            num_vertices: n,
            num_blocks: bracket.best().map_or(n, |e| e.num_blocks),
        });
    } else {
        let (assignment, num_blocks) = start
            .or_else(|| warm.map(|w| (w.assignment.clone(), w.num_blocks)))
            .unwrap_or_else(|| ((0..n as u32).collect(), n));
        let mut start_bm =
            Blockmodel::from_assignment(graph, assignment, num_blocks).compacted(graph);
        progress.on_event(&ProgressEvent::Started {
            num_vertices: n,
            num_blocks: start_bm.num_blocks(),
        });
        iterations = Vec::new();
        if warm.is_some() {
            // Polish the warm partition at its own block count before
            // seeding the bracket. The golden loop only sweeps after a
            // merge, so without this pass the seed entry — which may
            // remain `mid` to the very end when the warm C is already
            // optimal — would never be repaired after edge deltas. The
            // refine phase uses the iteration index the loop itself never
            // reaches, so its RNG streams collide with no loop phase.
            let refine_idx = scfg.max_iterations;
            let stats = run_mcmc(
                graph,
                &mut start_bm,
                &vertices,
                cfg,
                scfg.threshold_pre,
                refine_idx,
                progress,
            );
            iterations.push(IterationStat {
                num_blocks: start_bm.num_blocks(),
                dl: start_bm.description_length(),
                sweeps: stats.sweeps,
                moves: stats.moves,
            });
        }
        bracket = GoldenBracket::new(scfg.block_reduction_rate);
        bracket.seed(BracketEntry {
            assignment: start_bm.assignment().to_vec(),
            num_blocks: start_bm.num_blocks(),
            dl: start_bm.description_length(),
        });
        first_iter = 0;
    }
    let mut cancelled = false;

    for iter_idx in first_iter..scfg.max_iterations {
        if cfg.cancel.is_cancelled() {
            cancelled = true;
            progress.on_event(&ProgressEvent::Cancelled {
                iteration: iter_idx,
            });
            break;
        }
        match bracket.next() {
            NextStep::Done(best) => {
                progress.on_event(&ProgressEvent::Finished {
                    num_blocks: best.num_blocks,
                    description_length: best.dl,
                });
                return outcome_from(best, iterations, false, t0);
            }
            NextStep::Continue {
                start,
                blocks_to_merge,
            } => {
                let from_blocks = start.num_blocks;
                let bm = Blockmodel::from_assignment(graph, start.assignment, start.num_blocks);
                let merge_clock = phase_clock();
                let mut bm = merge_phase(graph, &bm, blocks_to_merge, scfg, iter_idx);
                record_merge_timing(merge_clock);
                progress.on_event(&ProgressEvent::Merged {
                    iteration: iter_idx,
                    from_blocks,
                    num_blocks: bm.num_blocks(),
                });
                let threshold = if bracket.established() {
                    scfg.threshold_post
                } else {
                    scfg.threshold_pre
                };
                let mcmc_clock = phase_clock();
                let stats = run_mcmc(
                    graph, &mut bm, &vertices, cfg, threshold, iter_idx, progress,
                );
                record_mcmc_timing(mcmc_clock);
                record_iteration();
                observe_block_sizes(&bm);
                let entry = BracketEntry {
                    assignment: bm.assignment().to_vec(),
                    num_blocks: bm.num_blocks(),
                    dl: bm.description_length(),
                };
                let stat = IterationStat {
                    num_blocks: entry.num_blocks,
                    dl: entry.dl,
                    sweeps: stats.sweeps,
                    moves: stats.moves,
                };
                progress.on_event(&ProgressEvent::Iteration {
                    iteration: iter_idx,
                    stat: stat.clone(),
                });
                iterations.push(stat);
                bracket.record(entry);
                maybe_checkpoint(graph, cfg, &bracket, &iterations, iter_idx + 1);
            }
        }
    }
    // Cancelled, or the safety-net iteration cap was hit: return the best
    // snapshot recorded so far.
    let best = bracket.best().expect("bracket was seeded").clone();
    if !cancelled {
        progress.on_event(&ProgressEvent::Finished {
            num_blocks: best.num_blocks,
            description_length: best.dl,
        });
    }
    outcome_from(best, iterations, cancelled, t0)
}

fn outcome_from(
    best: BracketEntry,
    iterations: Vec<IterationStat>,
    cancelled: bool,
    t0: f64,
) -> RunOutcome {
    RunOutcome {
        assignment: best.assignment,
        num_blocks: best.num_blocks,
        description_length: best.dl,
        iterations,
        cancelled,
        virtual_seconds: sbp_mpi::thread_cpu_time() - t0,
        cluster: None,
        sampled_vertices: None,
        degraded: None,
    }
}

/// Packs the golden-loop state at a sync boundary into a
/// [`CheckpointState`]. Shared with the distributed drivers so the
/// single-node and distributed planes write identical snapshots.
pub fn checkpoint_state(
    graph: &Graph,
    cfg: &RunConfig,
    bracket: &GoldenBracket,
    iterations: &[IterationStat],
    next_iter: usize,
) -> CheckpointState {
    let (hi, mid, lo) = bracket.parts();
    CheckpointState {
        seed: cfg.sbp.seed,
        strategy_tag: strategy_tag(&cfg.sbp.strategy),
        num_vertices: graph.num_vertices() as u64,
        total_edge_weight: graph.total_edge_weight().max(0) as u64,
        next_iter: next_iter as u64,
        iterations: iterations.to_vec(),
        hi: hi.cloned(),
        mid: mid.cloned(),
        lo: lo.cloned(),
    }
}

/// Writes a checkpoint if `cfg.checkpoint` asks for one at this
/// boundary. Best-effort by contract (see [`solve_sbp`] docs): a failed
/// write must not abort the run it is meant to protect.
fn maybe_checkpoint(
    graph: &Graph,
    cfg: &RunConfig,
    bracket: &GoldenBracket,
    iterations: &[IterationStat],
    next_iter: usize,
) {
    let Some(spec) = &cfg.checkpoint else {
        return;
    };
    if !next_iter.is_multiple_of(spec.every.max(1)) {
        return;
    }
    let state = checkpoint_state(graph, cfg, bracket, iterations, next_iter);
    let _ = state.write_to(&spec.path);
}

/// One merge phase: propose for all blocks, apply the best
/// `blocks_to_merge` merges, rebuild compactly.
pub fn merge_phase(
    graph: &Graph,
    bm: &Blockmodel,
    blocks_to_merge: usize,
    cfg: &SbpConfig,
    iter_idx: usize,
) -> Blockmodel {
    let blocks: Vec<u32> = (0..bm.num_blocks() as u32).collect();
    let seed = merge_phase_seed(cfg.seed, iter_idx);
    let cands = propose_merges(bm, &blocks, cfg.merge_proposals_per_block, seed);
    let (assignment, num_blocks) = apply_merges(bm, cands, blocks_to_merge);
    Blockmodel::from_assignment(graph, assignment, num_blocks)
}

fn run_mcmc(
    graph: &Graph,
    bm: &mut Blockmodel,
    vertices: &[Vertex],
    cfg: &RunConfig,
    threshold: f64,
    iter_idx: usize,
    progress: &mut dyn ProgressSink,
) -> McmcStats {
    let beta = cfg.sbp.beta;
    let sweep_seed = mcmc_phase_seed(cfg.sbp.seed, iter_idx);
    let max_sweeps = cfg.sbp.max_sweeps;
    let cancel = &cfg.cancel;
    // Every single-node sweep boundary is a "sync point" in the
    // distributed drivers' sense, so sweep-level events come for free.
    let mut on_sweep = |sweep: usize, dl: f64, outcome: &crate::mcmc::SweepOutcome| {
        record_sweep(outcome.proposals, outcome.moves.len());
        progress.on_event(&ProgressEvent::Sweep {
            iteration: iter_idx,
            sweep,
            dl,
            proposed: outcome.proposals,
            accepted: outcome.moves.len(),
        });
    };
    match &cfg.sbp.strategy {
        McmcStrategy::MetropolisHastings => mcmc_phase(
            graph,
            bm,
            vertices,
            max_sweeps,
            threshold,
            cancel,
            move |g, bm, vs, sweep| keyed_mh_sweep(g, bm, vs, beta, sweep_seed, sweep),
            &mut on_sweep,
        ),
        McmcStrategy::Hybrid(hcfg) => {
            let hcfg = *hcfg;
            mcmc_phase(
                graph,
                bm,
                vertices,
                max_sweeps,
                threshold,
                cancel,
                move |g, bm, vs, sweep| hybrid_sweep(g, bm, vs, beta, &hcfg, sweep_seed, sweep),
                &mut on_sweep,
            )
        }
        McmcStrategy::Batch => mcmc_phase(
            graph,
            bm,
            vertices,
            max_sweeps,
            threshold,
            cancel,
            move |g, bm, vs, sweep| batch_sweep(g, bm, vs, beta, sweep_seed, sweep),
            &mut on_sweep,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::NoProgress;

    fn planted_two_cliques(k: usize) -> (Graph, Vec<u32>) {
        // Two k-cliques joined by a single edge.
        let mut edges = Vec::new();
        for i in 0..k as u32 {
            for j in 0..k as u32 {
                if i != j {
                    edges.push((i, j, 1));
                    edges.push((k as u32 + i, k as u32 + j, 1));
                }
            }
        }
        edges.push((0, k as u32, 1));
        let truth: Vec<u32> = (0..2 * k).map(|v| (v / k) as u32).collect();
        (Graph::from_edges(2 * k, edges), truth)
    }

    fn solve(graph: &Graph, cfg: &SbpConfig) -> RunOutcome {
        solve_sbp(
            graph,
            None,
            &RunConfig::from_sbp(cfg.clone()),
            &mut NoProgress,
        )
    }

    #[test]
    fn recovers_two_cliques() {
        let (g, truth) = planted_two_cliques(8);
        let cfg = SbpConfig {
            seed: 1,
            ..Default::default()
        };
        let res = solve(&g, &cfg);
        assert_eq!(
            res.num_blocks, 2,
            "expected 2 blocks, got {}",
            res.num_blocks
        );
        // Same partition up to relabeling.
        let flip = res.assignment[0];
        for v in 0..16usize {
            let expect = if truth[v] == truth[0] { flip } else { 1 - flip };
            assert_eq!(res.assignment[v], expect, "vertex {v}");
        }
    }

    #[test]
    fn empty_graph_returns_empty_result() {
        let g = Graph::from_edges(0, Vec::new());
        let res = solve(&g, &SbpConfig::default());
        assert_eq!(res.num_blocks, 0);
        assert!(res.assignment.is_empty());
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_edges(1, Vec::new());
        let res = solve(&g, &SbpConfig::default());
        assert_eq!(res.num_blocks, 1);
        assert_eq!(res.assignment, vec![0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, _) = planted_two_cliques(6);
        let cfg = SbpConfig {
            seed: 9,
            ..Default::default()
        };
        let a = solve(&g, &cfg);
        let b = solve(&g, &cfg);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.description_length, b.description_length);
    }

    #[test]
    fn hybrid_strategy_also_recovers() {
        let (g, _) = planted_two_cliques(8);
        let cfg = SbpConfig {
            strategy: McmcStrategy::Hybrid(HybridConfig {
                parallel: false,
                ..Default::default()
            }),
            seed: 4,
            ..Default::default()
        };
        let res = solve(&g, &cfg);
        assert_eq!(res.num_blocks, 2);
    }

    #[test]
    fn batch_strategy_also_recovers() {
        let (g, _) = planted_two_cliques(8);
        let cfg = SbpConfig {
            strategy: McmcStrategy::Batch,
            seed: 4,
            ..Default::default()
        };
        let res = solve(&g, &cfg);
        assert_eq!(res.num_blocks, 2);
    }

    #[test]
    fn solve_from_start_finetunes_a_partition() {
        let (g, truth) = planted_two_cliques(8);
        // Start from a 4-block over-segmentation of the truth.
        let start: Vec<u32> = (0..16u32).map(|v| truth[v as usize] * 2 + v % 2).collect();
        let res = solve_sbp(&g, Some((start, 4)), &RunConfig::seeded(2), &mut NoProgress);
        assert_eq!(res.num_blocks, 2);
    }

    #[test]
    fn result_dl_matches_rebuilt_blockmodel() {
        let (g, _) = planted_two_cliques(6);
        let res = solve(
            &g,
            &SbpConfig {
                seed: 3,
                ..Default::default()
            },
        );
        let bm = Blockmodel::from_assignment(&g, res.assignment.clone(), res.num_blocks);
        assert!((bm.description_length() - res.description_length).abs() < 1e-9);
    }

    #[test]
    fn island_only_graph_terminates() {
        let g = Graph::from_edges(5, Vec::new());
        let res = solve(&g, &SbpConfig::default());
        assert!(res.num_blocks >= 1);
        assert_eq!(res.assignment.len(), 5);
    }

    #[test]
    fn virtual_seconds_are_recorded() {
        let (g, _) = planted_two_cliques(6);
        let res = solve(&g, &SbpConfig::default());
        assert!(res.virtual_seconds >= 0.0);
    }

    #[test]
    fn cancel_mid_search_returns_best_so_far() {
        let (g, _) = planted_two_cliques(10);
        let cfg = RunConfig::seeded(5);
        let token = cfg.cancel.clone();
        let mut sink = crate::run::ProgressFn(|e: &ProgressEvent| {
            if matches!(e, ProgressEvent::Iteration { .. }) {
                token.cancel();
            }
        });
        let res = solve_sbp(&g, None, &cfg, &mut sink);
        assert!(res.cancelled);
        assert_eq!(res.iterations.len(), 1, "cancelled after one iteration");
        // The returned partition is a coherent bracket entry.
        assert_eq!(res.assignment.len(), 20);
        let bm = Blockmodel::from_assignment(&g, res.assignment.clone(), res.num_blocks);
        assert!((bm.description_length() - res.description_length).abs() < 1e-9);
    }

    #[test]
    fn warm_start_reaches_cold_quality() {
        use crate::run::WarmStart;
        let (g, truth) = planted_two_cliques(8);
        let cold = solve_sbp(&g, None, &RunConfig::seeded(2), &mut NoProgress);
        // Warm-start from a 4-block over-segmentation of the truth.
        let start: Vec<u32> = (0..16u32).map(|v| truth[v as usize] * 2 + v % 2).collect();
        let warm_cfg = RunConfig::seeded(2).warm_start(WarmStart::new(start, 4));
        let warm = solve_sbp(&g, None, &warm_cfg, &mut NoProgress);
        assert_eq!(warm.num_blocks, 2);
        assert!(
            warm.description_length <= cold.description_length + 1e-9,
            "warm DL {} vs cold DL {}",
            warm.description_length,
            cold.description_length
        );
        // Warm search starts at C=4, so it does far less work than from C=V.
        assert!(warm.iterations.len() <= cold.iterations.len());
    }

    #[test]
    fn warm_start_dirty_subset_only_moves_dirty_vertices() {
        use crate::run::WarmStart;
        let (g, truth) = planted_two_cliques(8);
        // Truth with two vertices misassigned; only those (and neighbors)
        // are dirty. The clean vertices must keep their labels because
        // they never enter a sweep and the bracket never merges below 2.
        let mut start = truth.clone();
        start[3] = 1 - start[3];
        start[12] = 1 - start[12];
        let dirty: Vec<Vertex> = (0..16u32)
            .filter(|&v| {
                v == 3
                    || v == 12
                    || g.out_edges(3).iter().any(|&(d, _)| d == v)
                    || g.out_edges(12).iter().any(|&(d, _)| d == v)
            })
            .collect();
        let cfg = RunConfig::seeded(7).warm_start(WarmStart::new(start, 2).with_dirty(dirty));
        let res = solve_sbp(&g, None, &cfg, &mut NoProgress);
        assert_eq!(res.num_blocks, 2);
        // Recovered the planted truth up to relabeling.
        let flip = res.assignment[0];
        for v in 0..16usize {
            let expect = if truth[v] == truth[0] { flip } else { 1 - flip };
            assert_eq!(res.assignment[v], expect, "vertex {v}");
        }
    }

    #[test]
    fn warm_start_empty_dirty_set_returns_warm_partition() {
        use crate::run::WarmStart;
        let (g, truth) = planted_two_cliques(6);
        let cfg =
            RunConfig::seeded(1).warm_start(WarmStart::new(truth.clone(), 2).with_dirty(vec![]));
        let res = solve_sbp(&g, None, &cfg, &mut NoProgress);
        // Nothing can move; the DL is the warm partition's (or a merge
        // that the bracket rejected), so the assignment survives.
        assert_eq!(res.num_blocks, 2);
        assert_eq!(res.assignment, truth);
    }

    #[test]
    fn explicit_start_takes_precedence_over_warm() {
        use crate::run::WarmStart;
        let (g, _) = planted_two_cliques(6);
        let start: Vec<u32> = (0..12u32).map(|v| v % 3).collect();
        let plain = solve_sbp(
            &g,
            Some((start.clone(), 3)),
            &RunConfig::seeded(4),
            &mut NoProgress,
        );
        let with_warm = solve_sbp(
            &g,
            Some((start, 3)),
            &RunConfig::seeded(4).warm_start(WarmStart::new(vec![0; 12], 1)),
            &mut NoProgress,
        );
        assert_eq!(plain.assignment, with_warm.assignment);
        assert_eq!(
            plain.description_length.to_bits(),
            with_warm.description_length.to_bits()
        );
    }
}
