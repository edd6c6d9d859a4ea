//! The golden-ratio search — the one driver behind every backend.
//!
//! Alternates the block-merge phase (Alg. 1) and the MCMC phase (Alg. 2)
//! under golden-ratio control until the optimal block count is bracketed
//! (Fig. 1 of the paper). The search, the MCMC-phase loop (sweep → sync →
//! agreed DL + cancel decision → [`ConvergenceCheck`]), the checkpoint
//! writer and the [`RunOutcome`] assembly exist once, in
//! [`golden_search`], written against a [`Plane`]:
//!
//! ```text
//!  golden_search ──► Plane ──┬─ LocalPlane            one participant, whole graph:
//!   bracket · merge ·        │                        Sequential / Hybrid / Batch,
//!   MCMC phase · cancel ·    │                        DC-SBP's local solves and
//!   checkpoint · events      │                        fine-tune, the daemon's warm path
//!                            └─ sbp-dist's plane ──┬─ replicated graph   (EDiSt,
//!                               over a Communicator └─ `.sbps` shards     Algs. 4–5)
//! ```
//!
//! EDiSt's exactness — a distributed run equals sequential SBP — is thus a
//! property of the code path, not of a test matrix: the distributed plane
//! only restricts the block and vertex loops to an owned set and turns
//! [`Plane::sync`] / [`Plane::agree`] into collectives. Every description
//! length recorded is an entropy sum over canonical matrix lines and
//! every RNG stream is keyed by `(seed, iteration, sweep, vertex)` or
//! block id — never by participant — so a trajectory is reproducible bit
//! for bit from `(graph, seed, config)` in both storage regimes.
//!
//! ## Resident models
//!
//! A solve builds its blockmodel from the graph once — [`Plane::build`] of
//! the seed. After that the search carries models instead of rebuilding
//! them: a merge phase folds the start model's own lines through the
//! agreed block relabelling ([`Blockmodel::merged`], Alg. 4's "apply the
//! merges to the blockmodel"), and the models of the bracket entries
//! [`GoldenBracket::next`] can hand out — `mid`'s always, `hi`'s once the
//! bracket is established — stay resident beside the bracket, so an
//! iteration top takes its start model from there after one O(V) check
//! that it is the entry's. `Plane::build` is left with the seed, the
//! first iteration of a resumed search (a snapshot carries assignments,
//! not models) and the one entry the search lets go while it can still be
//! asked for: the `hi` of a bracket that has just been established. That
//! a carried model *is* the rebuild is the crate invariant
//! (`Blockmodel::validate`); debug builds and the tests re-prove it on
//! every iteration, from a whole graph, never through a collective.
//!
//! Resume, an explicit starting partition (DC-SBP's fine-tune, Alg. 3
//! line 23), warm start with dirty-set filtering and its refine pass are
//! features of the loop, handled once for every plane. [`solve_sbp`] is
//! the loop on the [`LocalPlane`].

use crate::blockmodel::{compact_labels, Blockmodel};
use crate::checkpoint::{strategy_tag, CheckpointState};
use crate::golden::{BracketEntry, GoldenBracket, NextStep};
use crate::hybrid::{batch_sweep, hybrid_sweep, HybridConfig};
use crate::mcmc::{keyed_mh_sweep, AcceptedMove, ConvergenceCheck};
use crate::merge::merge_labels;
use crate::plane::{LocalPlane, Plane};
use crate::run::{ProgressEvent, ProgressSink, RunConfig, RunOutcome};
use sbp_graph::{Graph, Vertex};
use std::sync::OnceLock;

/// Cached handles for the solver-layer metrics (`sbp_solver_*`, and
/// `sbp_merge_proposals_total`, the divisor of the merge wall time).
/// Strictly observe-only — see the `sbp-metrics` crate docs: nothing in
/// this module ever reads a recorded value back, so the solver's output
/// is bit-identical with metrics on or off.
struct SolverMetrics {
    iterations: std::sync::Arc<sbp_metrics::Counter>,
    sweeps: std::sync::Arc<sbp_metrics::Counter>,
    proposals: std::sync::Arc<sbp_metrics::Counter>,
    moves: std::sync::Arc<sbp_metrics::Counter>,
    merge_proposals: std::sync::Arc<sbp_metrics::Counter>,
    graph_builds: std::sync::Arc<sbp_metrics::Counter>,
    folds: std::sync::Arc<sbp_metrics::Counter>,
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
        merge_proposals: sbp_metrics::counter("sbp_merge_proposals_total"),
        graph_builds: sbp_metrics::counter("sbp_solver_graph_builds_total"),
        folds: sbp_metrics::counter("sbp_solver_folds_total"),
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
/// recording is on (`None` keeps the disabled path clock-free).
fn phase_clock() -> Option<(std::time::Instant, f64)> {
    sbp_metrics::enabled().then(|| (std::time::Instant::now(), sbp_mpi::thread_cpu_time()))
}

/// Records a finished phase's wall/CPU timings from a [`phase_clock`]
/// start pair into the histograms `pick` selects (no-op on `None`).
fn record_phase_timing(
    clock: Option<(std::time::Instant, f64)>,
    pick: impl FnOnce(&SolverMetrics) -> (&sbp_metrics::Histogram, &sbp_metrics::Histogram),
) {
    if let Some((wall, cpu)) = clock {
        let (wall_hist, cpu_hist) = pick(solver_metrics());
        wall_hist.observe(wall.elapsed().as_secs_f64());
        cpu_hist.observe(sbp_mpi::thread_cpu_time() - cpu);
    }
}

/// Records one iteration's block-size distribution (label frequencies
/// of the current assignment) into `sbp_solver_block_size`. Observe-only;
/// a no-op while recording is disabled.
fn observe_block_sizes(bm: &Blockmodel) {
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

/// Counts one sync point (with its proposal/acceptance tallies) into the
/// solver counters.
fn record_sweep(proposals: usize, moves: usize) {
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

/// [`golden_search`] on the single-node plane; `start` is an
/// `(assignment, num_blocks)` pair.
pub fn solve_sbp(
    graph: &Graph,
    start: Option<(Vec<u32>, usize)>,
    cfg: &RunConfig,
    progress: &mut dyn ProgressSink,
) -> RunOutcome {
    golden_search(&LocalPlane::new(graph), start, cfg, 1, progress).0
}

/// The golden-ratio search over merge+MCMC iterations on `plane`.
///
/// **Start.** `cfg.resume` restores a snapshot's bracket, trajectory and
/// iteration index — bit-identical to the uninterrupted run, since every
/// RNG stream is keyed by `(seed, iteration, sweep, vertex)`. Otherwise
/// the bracket is seeded from `start`, else `cfg.warm` (polished at its
/// own block count first; a dirty set restricts every sweep to it, see
/// [`crate::run::WarmStart`]), else the identity partition.
///
/// **Sync points.** Moves are exchanged every `sync_period` sweeps and
/// after a phase's last one; 1 is the paper's schedule.
///
/// **Cancellation** follows the contract on [`ProgressEvent::Cancelled`]
/// and returns the best bracket entry so far.
///
/// **Checkpoints.** With `cfg.checkpoint` set the root writes a `.sbpc`
/// snapshot at the configured iteration boundaries — atomically and
/// best-effort: an unwritable path never kills a multi-hour run
/// (validate it up front, as the `Partitioner` facade does).
///
/// **Errors.** The first failed plane call ends the search; the best
/// entry so far (the empty outcome, if none) comes back with the error.
pub fn golden_search<P: Plane>(
    plane: &P,
    start: Option<(Vec<u32>, usize)>,
    cfg: &RunConfig,
    sync_period: usize,
    progress: &mut dyn ProgressSink,
) -> (RunOutcome, Option<P::Error>) {
    if plane.num_vertices() == 0 {
        return (RunOutcome::empty(), None);
    }
    let mut search = Search {
        plane,
        cfg,
        sync_period: sync_period.max(1),
        progress,
        vertices: plane.owned_vertices(),
        prev: Vec::new(),
        bracket: GoldenBracket::new(cfg.sbp.block_reduction_rate),
        resident: Vec::new(),
        iterations: Vec::new(),
        cancelled: false,
    };
    let error = search.run(start).err();
    let mut outcome = RunOutcome::empty();
    if let Some(best) = search.bracket.best() {
        if error.is_none() && !search.cancelled {
            search.progress.on_event(&ProgressEvent::Finished {
                num_blocks: best.num_blocks,
                description_length: best.dl,
            });
        }
        outcome.assignment = best.assignment.clone();
        outcome.num_blocks = best.num_blocks;
        outcome.description_length = best.dl;
    }
    outcome.iterations = search.iterations;
    outcome.cancelled = search.cancelled;
    outcome.virtual_seconds = plane.clock();
    (outcome, error)
}

/// The state of one [`golden_search`]; what survives an error is what
/// the caller gets back.
struct Search<'a, P: Plane> {
    plane: &'a P,
    cfg: &'a RunConfig,
    sync_period: usize,
    progress: &'a mut dyn ProgressSink,
    /// The vertices this plane sweeps: its owned set, dirty-filtered.
    vertices: Vec<Vertex>,
    /// Scratch for [`Plane::begin_phase`] / [`Plane::sync`].
    prev: Vec<u32>,
    bracket: GoldenBracket,
    /// The models of the bracket entries [`GoldenBracket::next`] can hand
    /// out as an iteration's start — `mid`'s always, `hi`'s once the
    /// bracket is established — so an iteration top finds its start model
    /// here instead of rebuilding it from the graph. A cache beside the
    /// bracket, never part of it: entries keep their assignment vectors,
    /// a snapshot carries none of this, and a resumed search starts empty.
    resident: Vec<Blockmodel>,
    iterations: Vec<IterationStat>,
    cancelled: bool,
}

/// Whether `bm` is the model of bracket entry `entry` — the check behind
/// every resident hit, O(V).
fn is_model_of(bm: &Blockmodel, entry: &BracketEntry) -> bool {
    bm.num_blocks() == entry.num_blocks && bm.assignment() == &entry.assignment[..]
}

/// Debug builds hold a model the search carried or folded against the one
/// a rebuild gives, wherever the plane has a whole graph to rebuild from —
/// never through a collective, so a debug and a release run issue the same
/// collective schedule. Planes without one are held to it by their tests.
fn debug_assert_equals_rebuild<P: Plane>(plane: &P, bm: &Blockmodel, what: &str) {
    if let Some(graph) = plane.whole_graph().filter(|_| cfg!(debug_assertions)) {
        let rebuilt = Blockmodel::from_assignment(graph, bm.assignment().to_vec(), bm.num_blocks());
        assert!(
            bm.same_state(&rebuilt),
            "{what} model differs from its rebuild"
        );
    }
}

impl<P: Plane> Search<'_, P> {
    fn run(&mut self, start: Option<(Vec<u32>, usize)>) -> Result<(), P::Error> {
        let (plane, cfg) = (self.plane, self.cfg);
        let scfg = &cfg.sbp;
        let n = plane.num_vertices();
        let root = plane.is_root();
        // Warm starts yield to an explicit `start` (DC-SBP fine-tuning)
        // and to resume snapshots; mixing them is rejected upstream.
        let warm = cfg
            .warm
            .as_ref()
            .filter(|_| start.is_none() && cfg.resume.is_none());
        // Dirty-set filtering keeps the plane's sweep order, so it is
        // canonical whatever the order, duplicates or out-of-range ids of
        // the dirty list; the per-vertex RNG keying makes the restricted
        // sweep propose exactly what a full sweep would for those vertices.
        if let Some(dirty) = warm.and_then(|w| w.dirty.as_ref()) {
            let mut is_dirty = vec![false; n];
            for &v in dirty {
                if let Some(slot) = is_dirty.get_mut(v as usize) {
                    *slot = true;
                }
            }
            self.vertices.retain(|&v| is_dirty[v as usize]);
        }

        let first_iter = if let Some(state) = &cfg.resume {
            // Validated by the caller and identical on every participant.
            self.bracket = state.bracket(scfg.block_reduction_rate);
            self.iterations = state.iterations.clone();
            self.progress.on_event(&ProgressEvent::Started {
                num_vertices: n,
                num_blocks: self.bracket.best().map_or(n, |e| e.num_blocks),
            });
            state.next_iter as usize
        } else {
            let (assignment, width) = start
                .or_else(|| warm.map(|w| (w.assignment.clone(), w.num_blocks)))
                .unwrap_or_else(|| ((0..n as u32).collect(), n));
            let (assignment, num_blocks) = compact_labels(assignment, width);
            let mut bm = self.build(assignment, num_blocks)?;
            self.progress.on_event(&ProgressEvent::Started {
                num_vertices: n,
                num_blocks,
            });
            let dl = if warm.is_some() {
                // Polish the warm partition at its own block count before
                // seeding the bracket. The golden loop only sweeps after a
                // merge, so without this pass the seed entry — which may
                // remain `mid` to the very end when the warm C is already
                // optimal — would never be repaired after edge deltas. The
                // refine phase uses the iteration index the loop itself
                // never reaches, so its RNG streams collide with no loop
                // phase. A cancel it observes fires at the first iteration
                // top below.
                let (stat, _) =
                    self.mcmc_phase(&mut bm, scfg.threshold_pre, scfg.max_iterations)?;
                let dl = stat.dl;
                self.iterations.push(stat);
                dl
            } else {
                plane.agree(|| bm.description_length())?
            };
            self.bracket.seed(BracketEntry {
                assignment: bm.assignment().to_vec(),
                num_blocks,
                dl,
            });
            self.settle_resident(bm);
            0
        };

        for iter_idx in first_iter..scfg.max_iterations {
            if plane.agree(|| cfg.cancel.is_cancelled())? {
                self.cancel(iter_idx);
                break;
            }
            let NextStep::Continue {
                start,
                blocks_to_merge,
            } = self.bracket.next()
            else {
                break;
            };
            let from_blocks = start.num_blocks;
            let start = self.start_model(start)?;

            // Solver-layer metrics are the root's alone: every participant
            // walks the same loop, so an ungated count would be multiplied
            // by the participant count.
            let merge_clock = root.then(phase_clock).flatten();
            let mut bm = merge_step(plane, start, blocks_to_merge, scfg, iter_idx)?;
            record_phase_timing(merge_clock, |m| (&m.merge_wall, &m.merge_cpu));
            self.progress.on_event(&ProgressEvent::Merged {
                iteration: iter_idx,
                from_blocks,
                num_blocks: bm.num_blocks(),
            });

            let threshold = if self.bracket.established() {
                scfg.threshold_post
            } else {
                scfg.threshold_pre
            };
            let mcmc_clock = root.then(phase_clock).flatten();
            let (stat, phase_cancelled) = self.mcmc_phase(&mut bm, threshold, iter_idx)?;
            record_phase_timing(mcmc_clock, |m| (&m.mcmc_wall, &m.mcmc_cpu));
            if root {
                solver_metrics().iterations.inc();
                observe_block_sizes(&bm);
            }

            self.progress.on_event(&ProgressEvent::Iteration {
                iteration: iter_idx,
                stat: stat.clone(),
            });
            self.bracket.record(BracketEntry {
                assignment: bm.assignment().to_vec(),
                num_blocks: stat.num_blocks,
                dl: stat.dl,
            });
            self.settle_resident(bm);
            self.iterations.push(stat);
            if root {
                self.maybe_checkpoint(iter_idx + 1);
            }
            if phase_cancelled {
                self.cancel(iter_idx);
                break;
            }
        }
        Ok(())
    }

    /// [`Plane::build`], counted: the root's answer to "how many times did
    /// this run walk the graph?".
    fn build(&self, assignment: Vec<u32>, num_blocks: usize) -> Result<Blockmodel, P::Error> {
        if self.plane.is_root() && sbp_metrics::enabled() {
            solver_metrics().graph_builds.inc();
        }
        self.plane.build(assignment, num_blocks)
    }

    /// The model an iteration starts from: the resident one when the
    /// search holds the model of `start` — a verified hit, never a guess —
    /// else built from the graph and kept (the first iteration of a
    /// resumed search; the first upper-interval probe after the bracket
    /// is established, whose `hi` was not worth holding until then).
    fn start_model(&mut self, start: BracketEntry) -> Result<&Blockmodel, P::Error> {
        let at = match self.resident.iter().position(|bm| is_model_of(bm, &start)) {
            Some(at) => at,
            None => {
                let built = self.build(start.assignment, start.num_blocks)?;
                self.resident.push(built);
                self.resident.len() - 1
            }
        };
        debug_assert_equals_rebuild(self.plane, &self.resident[at], "resident");
        Ok(&self.resident[at])
    }

    /// Takes in the model of the entry the bracket has just been given and
    /// lets go of every model [`GoldenBracket::next`] can no longer hand
    /// out. What stays gives its sparse lines' growth slack back: the
    /// search holds up to two models besides the one it sweeps, and lines
    /// that doubled on their last insert are a quarter of a high-`C` one.
    fn settle_resident(&mut self, bm: Blockmodel) {
        self.resident.push(bm);
        let (hi, mid, _) = self.bracket.parts();
        let hi = hi.filter(|_| self.bracket.established());
        self.resident
            .retain(|bm| [mid, hi].into_iter().flatten().any(|e| is_model_of(bm, e)));
        self.resident.iter_mut().for_each(Blockmodel::shrink_to_fit);
    }

    fn cancel(&mut self, iteration: usize) {
        self.cancelled = true;
        self.progress
            .on_event(&ProgressEvent::Cancelled { iteration });
    }

    /// One MCMC phase (paper Alg. 2 / Alg. 5): sweep this plane's
    /// vertices, sync every `sync_period` sweeps, and stop on the
    /// convergence rule — the moving average of the last three per-sync
    /// ΔDL values falling below `threshold × initial DL` — after
    /// `max_sweeps`, or on a cancel decision. One agreed value carries
    /// both the DL and that decision, so participants never disagree on
    /// either. Returns the phase's trajectory entry (its DL the last
    /// agreed one) and whether a sync point agreed on cancelling.
    fn mcmc_phase(
        &mut self,
        bm: &mut Blockmodel,
        threshold: f64,
        iter_idx: usize,
    ) -> Result<(IterationStat, bool), P::Error> {
        let (plane, cfg) = (self.plane, self.cfg);
        let scfg = &cfg.sbp;
        let graph = plane.sweep_graph();
        let root = plane.is_root();
        let sweep_seed = mcmc_phase_seed(scfg.seed, iter_idx);
        let initial_dl = plane.agree(|| bm.description_length())?;
        let mut check = ConvergenceCheck::new(initial_dl, threshold);
        plane.begin_phase(bm, &mut self.prev);
        let mut pending: Vec<AcceptedMove> = Vec::new();
        let mut proposed = 0usize;
        let mut stat = IterationStat {
            num_blocks: bm.num_blocks(),
            dl: initial_dl,
            sweeps: 0,
            moves: 0,
        };
        while stat.sweeps < scfg.max_sweeps {
            let vs = &self.vertices;
            let outcome = match &scfg.strategy {
                McmcStrategy::MetropolisHastings => {
                    keyed_mh_sweep(graph, bm, vs, scfg.beta, sweep_seed, stat.sweeps)
                }
                McmcStrategy::Hybrid(hcfg) => {
                    hybrid_sweep(graph, bm, vs, scfg.beta, hcfg, sweep_seed, stat.sweeps)
                }
                McmcStrategy::Batch => {
                    batch_sweep(graph, bm, vs, scfg.beta, sweep_seed, stat.sweeps)
                }
            };
            pending.extend(outcome.moves);
            proposed += outcome.proposals;
            stat.sweeps += 1;
            if !stat.sweeps.is_multiple_of(self.sync_period) && stat.sweeps < scfg.max_sweeps {
                continue;
            }

            let accepted = plane.sync(bm, &mut self.prev, &pending)?;
            pending.clear();
            stat.moves += accepted;
            let (dl, cancel_now) =
                plane.agree(|| (bm.description_length(), cfg.cancel.is_cancelled()))?;
            stat.dl = dl;
            if root {
                // `accepted` is the global total; `proposed` is the
                // root's own share (summing it would cost a collective
                // on an observe-only path).
                record_sweep(proposed, accepted);
            }
            self.progress.on_event(&ProgressEvent::Sweep {
                iteration: iter_idx,
                sweep: stat.sweeps - 1,
                dl,
                proposed,
                accepted,
            });
            proposed = 0;
            if cancel_now {
                return Ok((stat, true));
            }
            if check.record(dl) {
                break;
            }
        }
        Ok((stat, false))
    }

    /// Writes the `.sbpc` snapshot of the search if `cfg.checkpoint` asks
    /// for one at this boundary; a failed write must not abort the run it
    /// is meant to protect.
    fn maybe_checkpoint(&self, next_iter: usize) {
        let Some(spec) = &self.cfg.checkpoint else {
            return;
        };
        if !next_iter.is_multiple_of(spec.every.max(1)) {
            return;
        }
        let (hi, mid, lo) = self.bracket.parts();
        let state = CheckpointState {
            seed: self.cfg.sbp.seed,
            strategy_tag: strategy_tag(&self.cfg.sbp.strategy),
            num_vertices: self.plane.num_vertices() as u64,
            total_edge_weight: self.plane.total_edge_weight().max(0) as u64,
            next_iter: next_iter as u64,
            iterations: self.iterations.clone(),
            hi: hi.cloned(),
            mid: mid.cloned(),
            lo: lo.cloned(),
        };
        let _ = state.write_to(&spec.path);
    }
}

/// One merge phase on `plane` (paper Alg. 1 / Alg. 4): gather every
/// participant's proposals, choose the best `blocks_to_merge` merges, and
/// fold `bm`'s own lines through them. Every participant holds the same
/// integers and folds them through the same relabelling, so the merged
/// replicas agree without exchanging a cell — "apply the agreed merges to
/// the blockmodel", as Alg. 4 has it.
fn merge_step<P: Plane>(
    plane: &P,
    bm: &Blockmodel,
    blocks_to_merge: usize,
    cfg: &SbpConfig,
    iter_idx: usize,
) -> Result<Blockmodel, P::Error> {
    let seed = merge_phase_seed(cfg.seed, iter_idx);
    let cands = plane.merge_candidates(bm, cfg.merge_proposals_per_block, seed)?;
    // One candidate is the best of a block's `x` evaluated proposals, and
    // the list is the whole plane's — so, like the other solver counters,
    // the root alone counts it, once per phase.
    if plane.is_root() && sbp_metrics::enabled() {
        let evaluated = cands.len() * cfg.merge_proposals_per_block;
        solver_metrics().merge_proposals.add(evaluated as u64);
        solver_metrics().folds.inc();
    }
    let (label, num_blocks) = merge_labels(bm.num_blocks(), cands, blocks_to_merge);
    let merged = bm.merged(&label, num_blocks);
    debug_assert_equals_rebuild(plane, &merged, "merged");
    Ok(merged)
}

/// One single-node merge phase: propose for all blocks, apply the best
/// `blocks_to_merge` merges to `bm`'s own lines (`graph` is `bm`'s; the
/// fold does not read it).
pub fn merge_phase(
    graph: &Graph,
    bm: &Blockmodel,
    blocks_to_merge: usize,
    cfg: &SbpConfig,
    iter_idx: usize,
) -> Blockmodel {
    let Ok(merged) = merge_step(&LocalPlane::new(graph), bm, blocks_to_merge, cfg, iter_idx);
    merged
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

    /// Migrated from `mcmc::tests::mcmc_phase_reduces_dl_from_bad_start`:
    /// every phase of the loop reports one `Sweep` per sync point, in
    /// order, ending on the DL the iteration records, with move counts
    /// that add up to the iteration's — and fine-tuning a bad start never
    /// returns a worse DL than it was given.
    #[test]
    fn phase_events_account_for_every_sweep() {
        let (g, _) = planted_two_cliques(6);
        let start: Vec<u32> = (0..12u32).map(|v| v % 2).collect();
        let initial = Blockmodel::from_assignment(&g, start.clone(), 2).description_length();
        let mut sweeps: Vec<(usize, usize, f64, usize)> = Vec::new();
        let mut checked = 0usize;
        let mut sink = crate::run::ProgressFn(|e: &ProgressEvent| match e {
            ProgressEvent::Sweep {
                iteration,
                sweep,
                dl,
                accepted,
                ..
            } => sweeps.push((*iteration, *sweep, *dl, *accepted)),
            ProgressEvent::Iteration { iteration, stat } => {
                assert_eq!(sweeps.len(), stat.sweeps, "one event per sweep");
                assert!(sweeps
                    .iter()
                    .enumerate()
                    .all(|(i, s)| s.0 == *iteration && s.1 == i));
                assert_eq!(sweeps.last().unwrap().2.to_bits(), stat.dl.to_bits());
                assert_eq!(sweeps.iter().map(|s| s.3).sum::<usize>(), stat.moves);
                sweeps.clear();
                checked += 1;
            }
            _ => {}
        });
        let res = solve_sbp(&g, Some((start, 2)), &RunConfig::seeded(15), &mut sink);
        let _ = sink;
        assert_eq!(checked, res.iterations.len());
        assert!(checked > 0 && res.iterations.iter().all(|s| s.sweeps > 0));
        assert!(res.description_length <= initial);
    }

    /// What a search did to its plane, in call order.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Call {
        /// `build` of a model with this many blocks.
        Build(usize),
        /// `merge_candidates`: an iteration top handed over its start model.
        Iteration,
    }

    /// The [`LocalPlane`], logging its [`Call`]s and holding every model
    /// the search shows it — the start model of each iteration (built or
    /// resident) and the model each MCMC phase opens on (folded, or the
    /// warm seed) — to a rebuild from the graph. A release run checks the
    /// same as a debug one.
    struct WatchedPlane<'a> {
        graph: &'a Graph,
        inner: LocalPlane<'a>,
        calls: std::cell::RefCell<Vec<Call>>,
    }

    impl<'a> WatchedPlane<'a> {
        fn new(graph: &'a Graph) -> Self {
            WatchedPlane {
                graph,
                inner: LocalPlane::new(graph),
                calls: Default::default(),
            }
        }

        fn assert_is_rebuild(&self, bm: &Blockmodel) {
            let rebuilt =
                Blockmodel::from_assignment(self.graph, bm.assignment().to_vec(), bm.num_blocks());
            assert!(
                bm.same_state(&rebuilt),
                "carried model at C = {}",
                bm.num_blocks()
            );
        }
    }

    impl Plane for WatchedPlane<'_> {
        type Error = std::convert::Infallible;

        fn is_root(&self) -> bool {
            true
        }
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn total_edge_weight(&self) -> i64 {
            self.inner.total_edge_weight()
        }
        fn sweep_graph(&self) -> &Graph {
            self.graph
        }
        fn owned_vertices(&self) -> Vec<Vertex> {
            self.inner.owned_vertices()
        }
        fn whole_graph(&self) -> Option<&Graph> {
            Some(self.graph)
        }
        fn build(
            &self,
            assignment: Vec<u32>,
            num_blocks: usize,
        ) -> Result<Blockmodel, Self::Error> {
            self.calls.borrow_mut().push(Call::Build(num_blocks));
            self.inner.build(assignment, num_blocks)
        }
        fn merge_candidates(
            &self,
            bm: &Blockmodel,
            proposals_per_block: usize,
            seed: u64,
        ) -> Result<Vec<crate::merge::MergeCandidate>, Self::Error> {
            self.calls.borrow_mut().push(Call::Iteration);
            self.assert_is_rebuild(bm);
            self.inner.merge_candidates(bm, proposals_per_block, seed)
        }
        fn begin_phase(&self, bm: &Blockmodel, _prev: &mut Vec<u32>) {
            self.assert_is_rebuild(bm);
        }
        fn sync(
            &self,
            bm: &mut Blockmodel,
            prev: &mut Vec<u32>,
            pending: &[AcceptedMove],
        ) -> Result<usize, Self::Error> {
            self.inner.sync(bm, prev, pending)
        }
        fn agree<T: Clone + Send + sbp_mpi::Wire + 'static>(
            &self,
            on_root: impl FnOnce() -> T,
        ) -> Result<T, Self::Error> {
            self.inner.agree(on_root)
        }
        fn clock(&self) -> f64 {
            self.inner.clock()
        }
    }

    /// `count` k-cliques in a chain, neighbours joined by one edge.
    fn clique_chain(count: u32, k: u32) -> Graph {
        let mut edges = Vec::new();
        for c in 0..count {
            for i in 0..k {
                for j in (0..k).filter(|&j| j != i) {
                    edges.push((c * k + i, c * k + j, 1));
                }
            }
            if c > 0 {
                edges.push(((c - 1) * k, c * k, 1));
            }
        }
        Graph::from_edges((count * k) as usize, edges)
    }

    /// The search's calls on a watched plane over `graph`, with its outcome.
    fn watched(graph: &Graph, cfg: &RunConfig) -> (Vec<Call>, RunOutcome) {
        let plane = WatchedPlane::new(graph);
        let (out, _) = golden_search(&plane, None, cfg, 1, &mut NoProgress);
        (plane.calls.into_inner(), out)
    }

    /// A solve builds its blockmodel from the graph once. Cold: the seed,
    /// then at most one more — the `hi` of the freshly established bracket,
    /// whose model was let go while the search was still agglomerating —
    /// and never the same entry twice. Warm: the same, and the seed alone
    /// when the search stays at the warm block count. Resumed: nothing is
    /// resident, so the first iteration builds its start, and the same
    /// one-miss allowance holds after it. Every other iteration
    /// starts from a resident model, which `WatchedPlane` holds to a
    /// rebuild — as it does every folded one.
    #[test]
    fn a_solve_builds_from_the_graph_once() {
        use crate::run::{CheckpointSpec, WarmStart};
        let g = clique_chain(6, 6);
        let n = g.num_vertices();
        let builds = |calls: &[Call]| -> Vec<usize> {
            calls
                .iter()
                .filter_map(|c| match c {
                    Call::Build(blocks) => Some(*blocks),
                    Call::Iteration => None,
                })
                .collect()
        };
        let mut missed_hi = false;
        for seed in 1..=3u64 {
            let path = std::env::temp_dir()
                .join(format!("sbp_resident_{}_{seed}.sbpc", std::process::id()));
            let mut cfg = RunConfig::seeded(seed);
            cfg.checkpoint = Some(CheckpointSpec {
                path: path.clone(),
                every: 1,
            });
            let (calls, cold) = watched(&g, &cfg);
            let iterations = calls.iter().filter(|c| **c == Call::Iteration).count();
            assert_eq!(iterations, cold.iterations.len());
            assert!(iterations >= 4, "seed {seed}: fixture too small");
            let built = builds(&calls);
            assert_eq!(
                calls[0],
                Call::Build(n),
                "seed {seed}: the seed is built first"
            );
            assert!(built.len() <= 2, "seed {seed}: built {built:?}");
            if let Some(&hi) = built.get(1) {
                missed_hi = true;
                assert!(cold.num_blocks < hi && hi < n, "seed {seed}: {hi} is no hi");
            }

            // The last snapshot is the finished search; one written earlier
            // needs a truncated run. Cancel after three iterations.
            let mut cut = RunConfig::seeded(seed);
            cut.checkpoint = cfg.checkpoint.clone();
            let token = cut.cancel.clone();
            let mut seen = 0usize;
            let mut sink = crate::run::ProgressFn(|e: &ProgressEvent| {
                if matches!(e, ProgressEvent::Iteration { .. }) {
                    seen += 1;
                    if seen == 3 {
                        token.cancel();
                    }
                }
            });
            golden_search(&LocalPlane::new(&g), None, &cut, 1, &mut sink);
            let state = CheckpointState::read_from(&path).expect("snapshot written");
            std::fs::remove_file(&path).expect("snapshot removed");
            assert_eq!(state.next_iter, 3);
            let mut resumed_cfg = RunConfig::seeded(seed);
            resumed_cfg.resume = Some(state);
            let (calls, resumed) = watched(&g, &resumed_cfg);
            assert!(
                matches!(calls[..2], [Call::Build(_), Call::Iteration]),
                "seed {seed}: a resumed search holds no model: {calls:?}"
            );
            let built = builds(&calls);
            assert!(
                built.len() <= 2 && built.first() != built.get(1),
                "seed {seed}: resumed built {built:?}"
            );
            assert_eq!(resumed.assignment, cold.assignment, "seed {seed}");
            assert_eq!(
                resumed.description_length.to_bits(),
                cold.description_length.to_bits()
            );

            // Warm, from where the cold search ended (the daemon's steady
            // state): the polish pass and every iteration run on the one
            // model built for the seed. From that result split in two, the
            // seed can become the dropped `hi` — the cold allowance, no more.
            let warm_cfg = RunConfig::seeded(seed)
                .warm_start(WarmStart::new(cold.assignment.clone(), cold.num_blocks));
            let (calls, warm) = watched(&g, &warm_cfg);
            assert!(
                warm.iterations.len() > 1,
                "seed {seed}: warm run did not iterate"
            );
            assert_eq!(builds(&calls).len(), 1, "seed {seed}: warm built {calls:?}");
            let split: Vec<u32> = (0..n as u32)
                .map(|v| cold.assignment[v as usize] * 2 + v % 2)
                .collect();
            let warm_cfg =
                RunConfig::seeded(seed).warm_start(WarmStart::new(split, cold.num_blocks * 2));
            let (calls, _) = watched(&g, &warm_cfg);
            assert!(
                builds(&calls).len() <= 2,
                "seed {seed}: warm built {calls:?}"
            );
        }
        assert!(
            missed_hi,
            "no seed probed an upper interval from a dropped hi"
        );
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
