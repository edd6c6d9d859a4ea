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
//! [`GoldenBracket::next`] can hand out — `mid`'s, and `hi`'s once the
//! bracket is established — stay resident beside the bracket, so an
//! iteration top takes its start model from there after one O(V) check
//! that it is the entry's.
//!
//! What a rank holds at once bounds how far a graph can be spread, so a
//! cold search holds one model less while it is still halving: a probe
//! lets its start model (`mid`'s) go once its merge phase has folded it,
//! since the bracket hands that model out again only if the probe comes
//! out worse — which is what establishes the bracket, once per search.
//! That record rebuilds it, unless the search ends there; from then on
//! the search holds exactly what it held before it let go, so every probe
//! run ahead starts where it would have. A warm search keeps every model
//! the bracket can hand out, `hi`'s included before the bracket is
//! established: its first probe is usually the one that establishes the
//! bracket, the probe run beside its refine pass starts from the seed's,
//! and a seed far above the optimum, whose first probes come out better,
//! would otherwise leave it to rebuild that `hi`.
//!
//! `Plane::build` is thus left with the seed (unless a warm start carries
//! its model, [`WarmStart::model`], as the daemon's warm rounds do), the
//! first iteration of a resumed search (a snapshot carries assignments,
//! not models), and, in a cold search, the `mid` of a bracket that has
//! just been established and the one entry the search lets go while it
//! can still be asked for: that bracket's `hi`. The model of the entry
//! the search returns goes back with it ([`RunOutcome::model`]) when the
//! search holds it at the end, as a warm search always does.
//!
//! That a carried or rebuilt model *is* the rebuild is the crate
//! invariant (`Blockmodel::validate`, equal in every integer and every
//! `ln` bit); debug builds and the tests re-prove it on every iteration,
//! from a whole graph, never through a collective.
//!
//! ## Overlapped probes
//!
//! The search is a chain of dependent probes, but not every link waits on
//! the one before it. Once the bracket is established, the step
//! [`GoldenBracket::next`] will ask for should the probe now sweeping come
//! out *worse* than `mid` follows from block counts alone
//! ([`GoldenBracket::next_if_worse`]) — and worse is what most probes of a
//! narrowing bracket come out. So when that step starts from a model the
//! search holds resident, the pool has a second worker that the MCMC phase
//! leaves idle (Metropolis–Hastings sweeps; hybrid and batch sweeps fan
//! out over the pool themselves) and every call of the plane is local
//! ([`Plane::local_graph`]), the search runs it — merge
//! phase and MCMC phase, iteration `i + 1`, its own threshold — on a pool
//! worker over a [`LocalPlane`] of the graph while probe `i`'s MCMC phase
//! runs on the caller (`rayon::join`). It runs at width 1, to fill the idle
//! core rather than contend for the caller's. Its events are kept, not
//! delivered.
//!
//! The next loop turn *commits* it only if the step the bracket actually
//! asks for is the same — start entry (block count and assignment), merge
//! count, iteration index and threshold, everything a probe's result is a
//! function of — and none of its sync points agreed on cancelling. Its
//! events are then delivered and its solver metrics recorded where and in
//! the order a sequential run reports them; anything else drops it unseen.
//! Every RNG stream is keyed by `(seed, iteration, sweep, vertex)` or by
//! block and every parallel reduction has a fixed shape, so a committed
//! probe *is* the iteration a sequential run computes, bit for bit: the
//! `RunOutcome`, the event sequence, the checkpoints and the
//! `sbp_solver_*` counts are those of a one-worker run. Both sides run the
//! same merge-phase and MCMC-phase functions; only the sink their events
//! go to differs.
//!
//! Not preserved: *when* events arrive — a committed probe's come in one
//! burst after the probe it overlapped, so `--progress` cadence and the
//! bench tracer's spans of that iteration collapse — and *which thread*
//! spent a probe's CPU ([`Plane::clock`] says how `virtual_seconds`
//! accounts for it). A cancel the sink raises while a committed probe's
//! events are being delivered takes effect at the next iteration top, as
//! one raised from another thread after that probe's sync points would.
//! No probe runs ahead before the bracket is established (a cold seed has
//! `hi = mid`, so iteration 0's worse branch is a `C ≈ V` probe that is
//! always thrown away) — except beside a warm start's refine pass. The
//! bracket that pass seeds asks first for a merge count fixed by the warm
//! block count alone (`GoldenBracket::next_if_seeded`), so iteration 0
//! runs on the pool from the unpolished model while the refine sweeps it
//! on the caller. The first loop turn's start-entry check commits it only
//! when the refine left the assignment as it found it — the model is then
//! the one the loop starts from, and every stream is keyed by `(seed,
//! iteration, sweep, vertex)` — and drops it otherwise. Once a refine
//! sweep has moved a vertex (or the run is cancelled) it is stopped at its
//! next sync point, which drops it too, rather than finish a probe no
//! turn can commit.
//! None runs on a plane with peers (`sbp-dist`'s collective schedule
//! never moves), with hybrid or batch sweeps (no idle worker to fill), or
//! at pool width 1.
//!
//! Resume, an explicit starting partition (DC-SBP's fine-tune, Alg. 3
//! line 23), warm start with dirty-set filtering and its refine pass are
//! features of the loop, handled once for every plane. [`solve_sbp`] is
//! the loop on the [`LocalPlane`].

use crate::blockmodel::{compact_labels, Blockmodel};
use crate::checkpoint::{strategy_tag, CheckpointState};
use crate::golden::{BracketEntry, GoldenBracket, NextStep};
use crate::hybrid::{sweep_plan, Chunk};
use crate::mcmc::{AcceptedMove, ConvergenceCheck};
use crate::merge::merge_labels;
use crate::plane::{LocalPlane, Plane};
use crate::run::{
    CancelToken, ProgressEvent, ProgressFn, ProgressSink, RunConfig, RunOutcome, WarmStart,
};
use sbp_graph::{Graph, Vertex};
use std::sync::OnceLock;
use std::thread::ThreadId;

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
    /// Probes run ahead, by what became of them (see "Overlapped probes").
    committed: std::sync::Arc<sbp_metrics::Counter>,
    dropped: std::sync::Arc<sbp_metrics::Counter>,
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
        committed: sbp_metrics::counter(&sbp_metrics::labeled(
            "sbp_solver_overlapped_iterations_total",
            "outcome",
            "committed",
        )),
        dropped: sbp_metrics::counter(&sbp_metrics::labeled(
            "sbp_solver_overlapped_iterations_total",
            "outcome",
            "dropped",
        )),
    })
}

/// Runs `f` and, when `root` and recording is on, measures its wall and
/// thread-CPU seconds on the thread that ran it (`None` keeps the
/// disabled path clock-free).
fn timed<T>(root: bool, f: impl FnOnce() -> T) -> (T, Option<(f64, f64)>) {
    let clock = (root && sbp_metrics::enabled())
        .then(|| (std::time::Instant::now(), sbp_mpi::thread_cpu_time()));
    let out = f();
    let seconds = clock.map(|(wall, cpu)| {
        (
            wall.elapsed().as_secs_f64(),
            sbp_mpi::thread_cpu_time() - cpu,
        )
    });
    (out, seconds)
}

/// The root's solver metrics of one probe besides its sync points (those
/// ride on its `Sweep` events, see [`Reported`]): measured on the thread
/// that ran the probe, recorded when the search records the probe — so a
/// probe run ahead and dropped is never counted.
struct Tally {
    /// Merge proposals the merge phase evaluated.
    merge_proposals: usize,
    /// Wall and CPU seconds of the merge phase and of the MCMC phase.
    merge: Option<(f64, f64)>,
    mcmc: Option<(f64, f64)>,
}

impl Tally {
    /// Records the probe that swept `bm` (no-op while recording is off).
    fn record(&self, bm: &Blockmodel) {
        if !sbp_metrics::enabled() {
            return;
        }
        let m = solver_metrics();
        // One candidate is the best of a block's `x` evaluated proposals;
        // the merge phase counted them for the whole plane.
        m.merge_proposals.add(self.merge_proposals as u64);
        m.folds.inc();
        m.iterations.inc();
        for (seconds, wall, cpu) in [
            (self.merge, &m.merge_wall, &m.merge_cpu),
            (self.mcmc, &m.mcmc_wall, &m.mcmc_cpu),
        ] {
            if let Some((w, c)) = seconds {
                wall.observe(w);
                cpu.observe(c);
            }
        }
        observe_block_sizes(bm);
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

/// The caller's progress sink, counting the root's sync points off the
/// `Sweep` events on their way to it — delivered live or from a committed
/// probe run ahead, so both count alike.
struct Reported<'a> {
    sink: &'a mut dyn ProgressSink,
    root: bool,
}

impl ProgressSink for Reported<'_> {
    fn on_event(&mut self, event: &ProgressEvent) {
        if let (
            true,
            ProgressEvent::Sweep {
                proposed, accepted, ..
            },
        ) = (self.root, event)
        {
            // `accepted` is the global total; `proposed` is the root's own
            // share (summing it would cost a collective on an observe-only
            // path).
            record_sweep(*proposed, *accepted);
        }
        self.sink.on_event(event);
    }
}

/// Which MCMC sweep schedule each phase runs: a name for one
/// [`crate::hybrid::sweep_plan`], built once per search. Every schedule
/// draws each vertex's randomness from its `(seed, sweep, vertex)`
/// stream, so a sweep over any vertex subset draws the identical
/// randomness for a given vertex regardless of which rank evaluates it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum McmcStrategy {
    /// Sequential Metropolis–Hastings (paper Alg. 2): one chunk, one sync
    /// round per sweep.
    MetropolisHastings,
    /// Hybrid SBP (the paper's intra-rank parallelization): the
    /// [`crate::hybrid::HYBRID_HEAD_FRACTION`] highest-degree vertices
    /// sequentially, the rest in frozen chunks of
    /// [`crate::hybrid::HYBRID_CHUNK`] evaluated on the pool; one sync
    /// round per sweep.
    Hybrid,
    /// Batch evaluation in [`crate::hybrid::BATCH_CHUNKS`] synced chunks
    /// per sweep: each chunk of vertices is decided against the state
    /// synced after the previous one ([`crate::hybrid::batch_chunks`]).
    /// The schedule whose trajectory is bit-identical at every rank
    /// count — the one the single-node `batch` backend and EDiSt share.
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
/// after a phase's last one; 1 is the paper's schedule. A sweep that
/// ends in a sync point syncs after each chunk of its plan that syncs
/// ([`crate::hybrid::sweep_plan`], built here once per search): three
/// rounds per Batch sweep, one per MH or Hybrid sweep.
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
///
/// **Overlap.** On a plane whose calls are all local, a probe the bracket
/// may ask for next can run ahead on the pool; what comes back is the
/// same, bit for bit (module docs, "Overlapped probes").
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
    // Warm starts yield to an explicit `start` (DC-SBP fine-tuning) and to
    // resume snapshots; mixing them is rejected upstream.
    let warm = cfg
        .warm
        .as_ref()
        .filter(|_| start.is_none() && cfg.resume.is_none());
    let plan = sweep_plan(
        cfg.sbp.strategy,
        plane.sweep_graph(),
        &swept_vertices(plane, warm),
    );
    let mut search = Search {
        phase: Phase {
            plane,
            cfg,
            cancel: &cfg.cancel,
            plan: &plan,
            sync_period: sync_period.max(1),
        },
        progress: Reported {
            sink: progress,
            root: plane.is_root(),
        },
        prev: Vec::new(),
        bracket: GoldenBracket::new(cfg.sbp.block_reduction_rate),
        resident: Vec::new(),
        warm: warm.is_some(),
        iterations: Vec::new(),
        cancelled: false,
        ahead: None,
        credit: 0.0,
    };
    let error = search.run(start, warm).err();
    search.settle_ahead(None);
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
        // The model may seed the next warm start, which sweeps it: its
        // lines get back the room `settle_resident` cut.
        let held = search.resident.iter().position(|bm| is_model_of(bm, best));
        outcome.model = held.map(|at| {
            let mut bm = search.resident.swap_remove(at);
            bm.restore_room();
            bm
        });
    }
    outcome.iterations = search.iterations;
    outcome.cancelled = search.cancelled;
    outcome.virtual_seconds = plane.clock() + search.credit;
    (outcome, error)
}

/// The vertices `plane` sweeps: its owned set, restricted to a warm
/// start's dirty set. Filtering keeps the plane's sweep order, so it is
/// canonical whatever the order, duplicates or out-of-range ids of the
/// dirty list; the per-vertex RNG keying makes the restricted sweep
/// propose exactly what a full sweep would for those vertices.
fn swept_vertices<P: Plane>(plane: &P, warm: Option<&WarmStart>) -> Vec<Vertex> {
    let mut vertices = plane.owned_vertices();
    if let Some(dirty) = warm.and_then(|w| w.dirty.as_ref()) {
        let mut is_dirty = vec![false; plane.num_vertices()];
        for &v in dirty {
            if let Some(slot) = is_dirty.get_mut(v as usize) {
                *slot = true;
            }
        }
        vertices.retain(|&v| is_dirty[v as usize]);
    }
    vertices
}

/// The state of one [`golden_search`]; what survives an error is what
/// the caller gets back.
struct Search<'a, P: Plane> {
    phase: Phase<'a, P>,
    progress: Reported<'a>,
    /// Scratch for [`Plane::begin_phase`] / [`Plane::sync`].
    prev: Vec<u32>,
    bracket: GoldenBracket,
    /// The models of the bracket entries [`GoldenBracket::next`] can hand
    /// out as an iteration's start — `mid`'s and, once the bracket is
    /// established (in a warm search, from the start), `hi`'s — so an
    /// iteration top finds its start model here instead of rebuilding it
    /// from the graph — except while a cold
    /// search is still halving, which holds `mid`'s only between probes
    /// (module docs, "Resident models"). A cache beside the bracket, never
    /// part of it: entries keep their assignment vectors, a snapshot
    /// carries none of this, and a resumed search starts empty.
    resident: Vec<Blockmodel>,
    /// Whether the search started from a warm start. It then keeps its
    /// start models through every probe, and `hi`'s before the bracket is
    /// established: its first probe usually is the one that establishes
    /// the bracket, the probe run beside its refine pass starts from the
    /// seed's, and a warm round builds no model (module docs, "Resident
    /// models").
    warm: bool,
    iterations: Vec<IterationStat>,
    cancelled: bool,
    /// The probe run ahead beside the last one, until the next loop turn
    /// commits or drops it.
    ahead: Option<Ahead>,
    /// What [`Plane::clock`] cannot see of the committed trajectory: the
    /// worker CPU of committed probes, less a dropped one's that ran on
    /// this thread.
    credit: f64,
}

/// What a probe runs against: the plane, the run's config, the token its
/// sync points read, the plan every sweep runs — the vertices it sweeps,
/// chunk by chunk — and the sync period. The search's own probes run
/// against its plane and the run's token; one run ahead, against a
/// [`LocalPlane`] of the same graph.
struct Phase<'a, P> {
    plane: &'a P,
    cfg: &'a RunConfig,
    cancel: &'a CancelToken,
    plan: &'a [Chunk],
    sync_period: usize,
}

/// The part of a probe besides its start model that its result is a
/// function of.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Step {
    blocks_to_merge: usize,
    iteration: usize,
    /// The MCMC phase's convergence threshold.
    threshold: f64,
}

/// A finished probe: the model it swept, its trajectory entry, whether a
/// sync point agreed on cancelling, and its metrics.
struct Probe {
    bm: Blockmodel,
    stat: IterationStat,
    cancelled: bool,
    tally: Tally,
}

/// A probe run ahead on a pool worker, held until the loop asks for a
/// step: the step it ran, what it came to, and what it reported.
struct Ahead {
    /// Block count and assignment of the entry it started from.
    from: (usize, Vec<u32>),
    step: Step,
    probe: Probe,
    /// Its `Merged` and `Sweep` events, in order.
    events: Vec<ProgressEvent>,
    /// Thread CPU it spent, and whether on the caller's thread (the join
    /// runs a task no worker claimed on the thread waiting for it).
    cpu: f64,
    on_caller: bool,
}

/// Whether `bm` is the model of bracket entry `entry` — the check behind
/// every resident hit, O(V).
fn is_model_of(bm: &Blockmodel, entry: &BracketEntry) -> bool {
    bm.num_blocks() == entry.num_blocks && bm.assignment() == &entry.assignment[..]
}

/// Counts one walk of the graph to build a model
/// (`sbp_solver_graph_builds_total`).
fn count_graph_build() {
    if sbp_metrics::enabled() {
        solver_metrics().graph_builds.inc();
    }
}

/// The model of `assignment` over the whole `graph`: [`Plane::build`] on
/// the [`LocalPlane`], counted in `sbp_solver_graph_builds_total` like a
/// search's own builds. For a caller that holds a partition but not its
/// model: the daemon after a `--resume`, or after a solve that returned
/// no [`RunOutcome::model`].
pub fn build_model(graph: &Graph, assignment: Vec<u32>, num_blocks: usize) -> Blockmodel {
    count_graph_build();
    let Ok(bm) = LocalPlane::new(graph).build(assignment, num_blocks);
    bm
}

/// The seed model a warm start's `carried` model gives for the compacted
/// seed partition `(assignment, num_blocks)`: a copy of it, or its
/// compaction (a fold) when its partition left a block empty. Either is
/// the model [`Plane::build`] would give, with no graph walk. `None` when
/// the model is not of that partition.
fn carried_seed(
    carried: Option<&Blockmodel>,
    assignment: &[u32],
    num_blocks: usize,
) -> Option<Blockmodel> {
    let model = carried?;
    if model.num_blocks() == num_blocks {
        (model.assignment() == assignment).then(|| model.clone())
    } else {
        Some(model.compacted()).filter(|seed| seed.assignment() == assignment)
    }
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

impl<'a, P: Plane> Search<'a, P> {
    fn run(
        &mut self,
        start: Option<(Vec<u32>, usize)>,
        warm: Option<&WarmStart>,
    ) -> Result<(), P::Error> {
        let (plane, cfg) = (self.phase.plane, self.phase.cfg);
        let scfg = &cfg.sbp;
        let n = plane.num_vertices();
        let root = plane.is_root();

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
            let carried = warm.and_then(|w| w.model.as_deref());
            let mut bm = match carried_seed(carried, &assignment, num_blocks) {
                Some(bm) => {
                    debug_assert_equals_rebuild(plane, &bm, "carried");
                    bm
                }
                None => self.build(assignment, num_blocks)?,
            };
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
                // top below. The first loop step may run beside it from
                // the unpolished model ([`Search::seed_ahead`]).
                let ahead = self.seed_ahead(num_blocks);
                let (phase, prev, progress) = (&self.phase, &mut self.prev, &mut self.progress);
                let (threshold, refine_iter) = (scfg.threshold_pre, scfg.max_iterations);
                let (stat, _) = match ahead {
                    None => phase.mcmc(&mut bm, threshold, refine_iter, prev, progress),
                    Some((graph, step)) => {
                        let start = bm.clone();
                        // Once the refine has moved a vertex (or the run
                        // is cancelled) the probe beside it can no longer
                        // be committed: it stops at its next sync point.
                        let stale = CancelToken::new();
                        let mut sink = ProgressFn(|e: &ProgressEvent| {
                            progress.on_event(e);
                            if matches!(e, ProgressEvent::Sweep { accepted, .. } if *accepted > 0)
                                || cfg.cancel.is_cancelled()
                            {
                                stale.cancel();
                            }
                        });
                        let refine =
                            || phase.mcmc(&mut bm, threshold, refine_iter, prev, &mut sink);
                        let (refined, ahead) = phase.beside(graph, &stale, &start, step, refine);
                        self.ahead = Some(ahead);
                        refined
                    }
                }?;
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
            self.settle_resident(bm, false)?;
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
            let step = Step {
                blocks_to_merge,
                iteration: iter_idx,
                threshold: if self.bracket.established() {
                    scfg.threshold_post
                } else {
                    scfg.threshold_pre
                },
            };
            let Probe {
                bm,
                stat,
                cancelled: phase_cancelled,
                tally,
            } = match self.settle_ahead(Some((&start, step))) {
                Some(probe) => probe,
                None => self.probe(start, step)?,
            };
            // Solver-layer metrics are the root's alone: every participant
            // walks the same loop, so an ungated count would be multiplied
            // by the participant count.
            if root {
                tally.record(&bm);
            }

            self.progress.on_event(&ProgressEvent::Iteration {
                iteration: iter_idx,
                stat: stat.clone(),
            });
            let was_established = self.bracket.established();
            self.bracket.record(BracketEntry {
                assignment: bm.assignment().to_vec(),
                num_blocks: stat.num_blocks,
                dl: stat.dl,
            });
            self.iterations.push(stat);
            let goes_on = !phase_cancelled && iter_idx + 1 < scfg.max_iterations;
            self.settle_resident(bm, goes_on && !was_established)?;
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
        let plane = self.phase.plane;
        if plane.is_root() {
            count_graph_build();
        }
        plane.build(assignment, num_blocks)
    }

    /// Where in `resident` the model an iteration starts from is: the
    /// resident one when the search holds the model of `start` — a
    /// verified hit, never a guess — else built from the graph and kept
    /// (the first iteration of a resumed search; the first upper-interval
    /// probe after the bracket is established, whose `hi` was not worth
    /// holding until then).
    fn start_model(&mut self, start: BracketEntry) -> Result<usize, P::Error> {
        let at = match self.resident.iter().position(|bm| is_model_of(bm, &start)) {
            Some(at) => at,
            None => {
                let built = self.build(start.assignment, start.num_blocks)?;
                self.resident.push(built);
                self.resident.len() - 1
            }
        };
        debug_assert_equals_rebuild(self.phase.plane, &self.resident[at], "resident");
        Ok(at)
    }

    /// Runs the probe the bracket asks for on this thread — and, when the
    /// bracket already knows the step it takes should this probe come out
    /// worse ([`Search::step_ahead`]), that one on the pool beside its
    /// MCMC phase, kept for the next loop turn.
    /// A cold search still halving lets the start model go once the merge
    /// phase has folded it ([`Search::lets_start_go`]).
    fn probe(&mut self, start: BracketEntry, step: Step) -> Result<Probe, P::Error> {
        let at = self.start_model(start)?;
        let phase = &self.phase;
        let (bm, tally) = phase.merge(&self.resident[at], step, &mut self.progress)?;
        if self.lets_start_go() {
            self.resident.swap_remove(at);
        }
        #[cfg(test)]
        tests::RESIDENT.with_borrow_mut(|r| {
            let held = self.resident.iter().map(Blockmodel::num_blocks).collect();
            r.push((step.iteration, self.bracket.established(), held));
        });
        let ahead = self.step_ahead(bm.num_blocks(), step.iteration);
        let (prev, progress) = (&mut self.prev, &mut self.progress);
        let sweep = || phase.sweep(bm, step, tally, prev, progress);
        match ahead {
            None => sweep(),
            Some((graph, from, next)) => {
                let start = &self.resident[from];
                let (probe, ahead) = phase.beside(graph, phase.cancel, start, next, sweep);
                self.ahead = Some(ahead);
                probe
            }
        }
    }

    /// Whether a probe lets its start model go once it is folded: in a
    /// cold search, until the bracket is established. That model is
    /// `mid`'s, which the bracket hands out again only if the probe comes
    /// out worse — the record that establishes the bracket, where
    /// [`Search::settle_resident`] rebuilds it.
    fn lets_start_go(&self) -> bool {
        #[cfg(test)]
        if tests::HOLD_START.get() {
            return false;
        }
        !self.warm && !self.bracket.established()
    }

    /// The graph a probe at `iteration` can run ahead on: the plane's, if
    /// every call of it is local, the iteration falls inside the budget,
    /// the pool has a second worker and the MCMC phase is
    /// Metropolis–Hastings (the one that leaves that worker idle: hybrid
    /// and batch sweeps fan out over the pool themselves).
    fn ahead_graph(&self, iteration: usize) -> Option<&'a Graph> {
        let scfg = &self.phase.cfg.sbp;
        if iteration >= scfg.max_iterations
            || rayon::current_num_threads() < 2
            || !matches!(scfg.strategy, McmcStrategy::MetropolisHastings)
        {
            return None;
        }
        let plane: &'a P = self.phase.plane;
        plane.local_graph()
    }

    /// The probe to run ahead while the one at `iteration` sweeps the
    /// `num_blocks` blocks its merge left: the step
    /// [`GoldenBracket::next_if_worse`] names, if the bracket is
    /// established, that step starts from a resident model (its index is
    /// returned) and [`Search::ahead_graph`] has a graph for it.
    fn step_ahead(&self, num_blocks: usize, iteration: usize) -> Option<(&'a Graph, usize, Step)> {
        if !self.bracket.established() {
            return None;
        }
        let graph = self.ahead_graph(iteration + 1)?;
        let (from, blocks_to_merge) = self.bracket.next_if_worse(num_blocks)?;
        let at = self.resident.iter().position(|bm| is_model_of(bm, &from))?;
        let step = Step {
            blocks_to_merge,
            iteration: iteration + 1,
            threshold: self.phase.cfg.sbp.threshold_post,
        };
        Some((graph, at, step))
    }

    /// The probe to run ahead while the refine pass polishes a warm seed
    /// of `num_blocks` blocks: iteration 0, whose merge count the bracket
    /// seeded with it fixes whatever DL the refine comes to
    /// ([`GoldenBracket::next_if_seeded`]), if [`Search::ahead_graph`] has
    /// a graph for it. It starts from the unpolished model, so it is the
    /// step the loop takes exactly when the refine moves no vertex.
    fn seed_ahead(&self, num_blocks: usize) -> Option<(&'a Graph, Step)> {
        let graph = self.ahead_graph(0)?;
        let blocks_to_merge = self.bracket.next_if_seeded(num_blocks)?;
        let step = Step {
            blocks_to_merge,
            iteration: 0,
            threshold: self.phase.cfg.sbp.threshold_pre,
        };
        Some((graph, step))
    }

    /// Takes the probe run ahead, if there is one, and commits it when it
    /// ran the step the loop is about to take — `asked`, from its start
    /// entry — and no sync point of it agreed on cancelling: its events go
    /// out through the caller's sink as a sequential run would send them,
    /// and it comes back to be recorded. Anything else drops it unseen.
    fn settle_ahead(&mut self, asked: Option<(&BracketEntry, Step)>) -> Option<Probe> {
        let ahead = self.ahead.take()?;
        let commit = !ahead.probe.cancelled
            && asked.is_some_and(|(start, step)| {
                ahead.step == step
                    && ahead.from.0 == start.num_blocks
                    && ahead.from.1 == start.assignment
            });
        let root = self.phase.plane.is_root();
        // The run clock reads this thread's CPU: it lacks a committed
        // probe's worker CPU and holds a dropped one's that ran here.
        if commit != ahead.on_caller {
            self.credit += if commit { ahead.cpu } else { -ahead.cpu };
        }
        #[cfg(test)]
        tests::OVERLAPS.with_borrow_mut(|o| {
            let outcome = if commit {
                &mut o.committed
            } else {
                &mut o.dropped
            };
            outcome.push(ahead.step.iteration);
        });
        if !commit {
            if root {
                solver_metrics().dropped.inc();
            }
            return None;
        }
        if root {
            solver_metrics().committed.inc();
        }
        for event in &ahead.events {
            self.progress.on_event(event);
        }
        Some(ahead.probe)
    }

    /// Takes in the model of the entry the bracket has just been given and
    /// lets go of every model [`GoldenBracket::next`] can no longer hand
    /// out. When that record has just established the bracket
    /// (`establishing`, and the loop goes on past it) and the search let
    /// `mid`'s model go during the probe ([`Search::probe`]), it rebuilds
    /// that model through [`Search::build`] — unless the bracket is already
    /// done — so from here on the search holds what it would had it kept
    /// the model. What stays is cut to its exact length: the search holds
    /// up to two models besides the one it sweeps, and a swept line may
    /// hold up to twice its cells.
    fn settle_resident(&mut self, bm: Blockmodel, establishing: bool) -> Result<(), P::Error> {
        self.resident.push(bm);
        let (hi, mid, _) = self.bracket.parts();
        let hi = hi.filter(|_| self.warm || self.bracket.established());
        self.resident
            .retain(|bm| [mid, hi].into_iter().flatten().any(|e| is_model_of(bm, e)));
        let rebuild = mid.filter(|mid| {
            establishing
                && self.bracket.established()
                && !self.resident.iter().any(|bm| is_model_of(bm, mid))
                && matches!(self.bracket.next(), NextStep::Continue { .. })
        });
        if let Some(mid) = rebuild {
            let built = self.build(mid.assignment.clone(), mid.num_blocks)?;
            self.resident.push(built);
        }
        self.resident.iter_mut().for_each(Blockmodel::shrink_to_fit);
        Ok(())
    }

    fn cancel(&mut self, iteration: usize) {
        self.cancelled = true;
        self.progress
            .on_event(&ProgressEvent::Cancelled { iteration });
    }

    /// Writes the `.sbpc` snapshot of the search if `cfg.checkpoint` asks
    /// for one at this boundary; a failed write must not abort the run it
    /// is meant to protect.
    fn maybe_checkpoint(&self, next_iter: usize) {
        let Phase { plane, cfg, .. } = self.phase;
        let Some(spec) = &cfg.checkpoint else {
            return;
        };
        if !next_iter.is_multiple_of(spec.every.max(1)) {
            return;
        }
        let (hi, mid, lo) = self.bracket.parts();
        let state = CheckpointState {
            seed: cfg.sbp.seed,
            strategy_tag: strategy_tag(&cfg.sbp.strategy),
            num_vertices: plane.num_vertices() as u64,
            total_edge_weight: plane.total_edge_weight().max(0) as u64,
            next_iter: next_iter as u64,
            iterations: self.iterations.clone(),
            hi: hi.cloned(),
            mid: mid.cloned(),
            lo: lo.cloned(),
        };
        let _ = state.write_to(&spec.path);
    }
}

impl<P: Plane> Phase<'_, P> {
    /// A probe's merge phase ([`merge_step`]) from `start`, reported to
    /// `sink`: the merged model and the probe's metrics so far.
    fn merge(
        &self,
        start: &Blockmodel,
        step: Step,
        sink: &mut dyn ProgressSink,
    ) -> Result<(Blockmodel, Tally), P::Error> {
        let (merged, seconds) = timed(self.plane.is_root(), || {
            merge_step(
                self.plane,
                start,
                step.blocks_to_merge,
                &self.cfg.sbp,
                step.iteration,
            )
        });
        let (bm, merge_proposals) = merged?;
        sink.on_event(&ProgressEvent::Merged {
            iteration: step.iteration,
            from_blocks: start.num_blocks(),
            num_blocks: bm.num_blocks(),
        });
        let tally = Tally {
            merge_proposals,
            merge: seconds,
            mcmc: None,
        };
        Ok((bm, tally))
    }

    /// A probe's MCMC phase on the model its merge phase left, timed into
    /// its `tally`.
    fn sweep(
        &self,
        mut bm: Blockmodel,
        step: Step,
        mut tally: Tally,
        prev: &mut Vec<u32>,
        sink: &mut dyn ProgressSink,
    ) -> Result<Probe, P::Error> {
        let (swept, seconds) = timed(self.plane.is_root(), || {
            self.mcmc(&mut bm, step.threshold, step.iteration, prev, sink)
        });
        let (stat, cancelled) = swept?;
        tally.mcmc = seconds;
        Ok(Probe {
            bm,
            stat,
            cancelled,
            tally,
        })
    }

    /// Runs `here` on this thread and, beside it on a pool worker, the
    /// probe `step` from `start` over a [`LocalPlane`] of `graph`, its sync
    /// points reading `cancel` — at width 1: the probe ahead is there to
    /// fill the idle core, not to contend with `here` for both.
    fn beside<T>(
        &self,
        graph: &Graph,
        cancel: &CancelToken,
        start: &Blockmodel,
        step: Step,
        here: impl FnOnce() -> T,
    ) -> (T, Ahead) {
        let local = LocalPlane::new(graph);
        let beside = Phase {
            plane: &local,
            cfg: self.cfg,
            cancel,
            plan: self.plan,
            sync_period: self.sync_period,
        };
        let caller = std::thread::current().id();
        let (here, ahead) = rayon::join(here, || {
            rayon::with_threads(1, || beside.ahead(start, step, caller))
        });
        let Ok(ahead) = ahead;
        (here, ahead)
    }

    /// Runs the probe `step` from `start` on this thread the way the loop
    /// runs one on the caller — the same merge phase, the same MCMC-phase
    /// function — keeping its events for the commit and the CPU this
    /// thread spent on it for the run clock.
    fn ahead(&self, start: &Blockmodel, step: Step, caller: ThreadId) -> Result<Ahead, P::Error> {
        let cpu = sbp_mpi::thread_cpu_time();
        debug_assert_equals_rebuild(self.plane, start, "resident");
        let mut events = Vec::new();
        let mut sink = ProgressFn(|event: &ProgressEvent| events.push(event.clone()));
        let (bm, tally) = self.merge(start, step, &mut sink)?;
        let probe = self.sweep(bm, step, tally, &mut Vec::new(), &mut sink)?;
        Ok(Ahead {
            from: (start.num_blocks(), start.assignment().to_vec()),
            step,
            probe,
            events,
            cpu: sbp_mpi::thread_cpu_time() - cpu,
            on_caller: std::thread::current().id() == caller,
        })
    }

    /// One MCMC phase (paper Alg. 2 / Alg. 5): sweep this plane's
    /// vertices chunk by chunk through the plan (the one sweep loop
    /// besides `crate::naive`'s baseline), sync every `sync_period`
    /// sweeps (after each chunk of the plan that syncs), and stop on the
    /// convergence rule — the moving average of the last three per-sync
    /// ΔDL values falling below `threshold × initial DL` — after
    /// `max_sweeps`, or on a cancel decision. One agreed value carries
    /// both the DL and that decision, so participants never disagree on
    /// either. Reports one `Sweep` per synced sweep to `sink`, its
    /// `accepted` summed over the sweep's sync points; returns the
    /// phase's trajectory entry (its DL the last agreed one) and whether a
    /// sync point agreed on cancelling.
    fn mcmc(
        &self,
        bm: &mut Blockmodel,
        threshold: f64,
        iter_idx: usize,
        prev: &mut Vec<u32>,
        sink: &mut dyn ProgressSink,
    ) -> Result<(IterationStat, bool), P::Error> {
        let (plane, cfg) = (self.plane, self.cfg);
        let scfg = &cfg.sbp;
        let graph = plane.sweep_graph();
        let sweep_seed = mcmc_phase_seed(scfg.seed, iter_idx);
        let initial_dl = plane.agree(|| bm.description_length())?;
        let mut check = ConvergenceCheck::new(initial_dl, threshold);
        plane.begin_phase(bm, prev);
        let mut pending: Vec<AcceptedMove> = Vec::new();
        let mut proposed = 0usize;
        let mut stat = IterationStat {
            num_blocks: bm.num_blocks(),
            dl: initial_dl,
            sweeps: 0,
            moves: 0,
        };
        while stat.sweeps < scfg.max_sweeps {
            // A sweep syncs after every chunk that syncs or after none:
            // between the sync points of a longer period each participant
            // sees only its own moves, chunk after chunk.
            let syncs = (stat.sweeps + 1).is_multiple_of(self.sync_period)
                || stat.sweeps + 1 == scfg.max_sweeps;
            let mut accepted = 0usize;
            for chunk in self.plan {
                let outcome = chunk.sweep(graph, bm, scfg.beta, sweep_seed, stat.sweeps);
                pending.extend(outcome.moves);
                proposed += outcome.proposals;
                if syncs && chunk.syncs {
                    accepted += plane.sync(bm, prev, &pending)?;
                    pending.clear();
                }
            }
            stat.sweeps += 1;
            if !syncs {
                continue;
            }
            stat.moves += accepted;
            let (dl, cancel_now) =
                plane.agree(|| (bm.description_length(), self.cancel.is_cancelled()))?;
            stat.dl = dl;
            sink.on_event(&ProgressEvent::Sweep {
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
}

/// One merge phase on `plane` (paper Alg. 1 / Alg. 4): gather every
/// participant's proposals, choose the best `blocks_to_merge` merges, and
/// fold `bm`'s own lines through them. Every participant holds the same
/// integers and folds them through the same relabelling, so the merged
/// replicas agree without exchanging a cell — "apply the agreed merges to
/// the blockmodel", as Alg. 4 has it. Also returns how many proposals the
/// whole plane evaluated.
fn merge_step<P: Plane>(
    plane: &P,
    bm: &Blockmodel,
    blocks_to_merge: usize,
    cfg: &SbpConfig,
    iter_idx: usize,
) -> Result<(Blockmodel, usize), P::Error> {
    let seed = merge_phase_seed(cfg.seed, iter_idx);
    let cands = plane.merge_candidates(bm, cfg.merge_proposals_per_block, seed)?;
    let evaluated = cands.len() * cfg.merge_proposals_per_block;
    let (label, num_blocks) = merge_labels(bm.num_blocks(), cands, blocks_to_merge);
    let merged = bm.merged(&label, num_blocks);
    debug_assert_equals_rebuild(plane, &merged, "merged");
    Ok((merged, evaluated))
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
    let Ok((merged, _)) = merge_step(&LocalPlane::new(graph), bm, blocks_to_merge, cfg, iter_idx);
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
            strategy: McmcStrategy::Hybrid,
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

    /// The first probe of `iterations` that came out worse than `mid` —
    /// the one that established the bracket of a search seeded with
    /// `seed`'s `(block count, DL)` — and the block count of that `mid`.
    fn establishing_probe(
        seed: (usize, f64),
        iterations: &[IterationStat],
    ) -> Option<(usize, usize)> {
        let mut mid = seed;
        for (k, it) in iterations.iter().enumerate() {
            if it.dl > mid.1 {
                return Some((k, mid.0));
            }
            mid = (it.num_blocks, it.dl);
        }
        None
    }

    /// A solve builds its blockmodel from the graph a named few times.
    /// Cold: the seed (C = V); the establishing probe's `mid`, right after
    /// that probe — the search let it go while it was halving — unless the
    /// search ends there; and at most one `hi` the search let go before the
    /// bracket was established. Resumed: nothing is resident, so the first
    /// iteration builds its start; then the same two. Warm: the seed
    /// alone — a warm search keeps its `mid` and its `hi` — and nothing
    /// when the warm start carries the seed's model.
    /// Every other iteration starts from a resident model, which
    /// `WatchedPlane` holds to a rebuild — as it does every folded one.
    #[test]
    fn a_solve_builds_from_the_graph_once() {
        use crate::run::{CheckpointSpec, WarmStart};
        let g = clique_chain(6, 6);
        let n = g.num_vertices();
        let seed_dl =
            Blockmodel::from_assignment(&g, (0..n as u32).collect(), n).description_length();
        let builds = |calls: &[Call]| -> Vec<usize> {
            calls
                .iter()
                .filter_map(|c| match c {
                    Call::Build(blocks) => Some(*blocks),
                    Call::Iteration => None,
                })
                .collect()
        };
        let tops = |calls: &[Call]| -> Vec<usize> {
            (0..calls.len())
                .filter(|&i| calls[i] == Call::Iteration)
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
            let iterations = tops(&calls);
            assert_eq!(iterations.len(), cold.iterations.len());
            assert!(iterations.len() >= 4, "seed {seed}: fixture too small");
            assert_eq!(
                calls[0],
                Call::Build(n),
                "seed {seed}: the seed is built first"
            );
            let (k, mid) = establishing_probe((n, seed_dl), &cold.iterations)
                .expect("the bracket is established");
            let mid_rebuilt = k + 1 < cold.iterations.len();
            if mid_rebuilt {
                assert_eq!(
                    calls[iterations[k] + 1],
                    Call::Build(mid),
                    "seed {seed}: the establishing probe's mid"
                );
            }
            let built = builds(&calls);
            let hi = &built[1 + usize::from(mid_rebuilt)..];
            assert!(hi.len() <= 1, "seed {seed}: built {built:?}");
            if let Some(&hi) = hi.first() {
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
            let mid_rebuilt = k >= 3 && mid_rebuilt;
            if mid_rebuilt {
                assert_eq!(
                    calls[tops(&calls)[k - 3] + 1],
                    Call::Build(mid),
                    "seed {seed}: resumed, the establishing probe's mid"
                );
            }
            let built = builds(&calls);
            let hi = &built[1 + usize::from(mid_rebuilt)..];
            assert!(
                hi.len() <= 1 && hi.first() != built.first(),
                "seed {seed}: resumed built {built:?}"
            );
            assert_eq!(resumed.assignment, cold.assignment, "seed {seed}");
            assert_eq!(
                resumed.description_length.to_bits(),
                cold.description_length.to_bits()
            );

            // Warm, from where the cold search ended (the daemon's steady
            // state), and from that result split in two (a seed whose
            // first probes come out better): the polish pass and every
            // iteration run on the one model built for the seed — and on
            // none built at all when the warm start carries it, for the
            // same outcome, which hands back the model of its partition.
            let split: Vec<u32> = (0..n as u32)
                .map(|v| cold.assignment[v as usize] * 2 + v % 2)
                .collect();
            for (assignment, c) in [
                (cold.assignment.clone(), cold.num_blocks),
                (split, cold.num_blocks * 2),
            ] {
                let warm_cfg = RunConfig::seeded(seed).warm_start(WarmStart::new(assignment, c));
                let (calls, warm) = watched(&g, &warm_cfg);
                assert!(warm.iterations.len() > 1, "seed {seed}, C = {c}");
                assert_eq!(builds(&calls), [c], "seed {seed}, C = {c}");
                let start = warm_cfg.warm.as_ref().expect("warm");
                let model = Blockmodel::from_assignment(&g, start.assignment.clone(), c);
                let carried_cfg = RunConfig::seeded(seed)
                    .warm_start(WarmStart::from_model(std::sync::Arc::new(model)));
                let (calls, carried) = watched(&g, &carried_cfg);
                assert_eq!(builds(&calls), [], "seed {seed}, C = {c}");
                assert_eq!(carried.assignment, warm.assignment, "seed {seed}, C = {c}");
                let bits = |out: &RunOutcome| -> Vec<(usize, u64, usize)> {
                    let stats = out.iterations.iter();
                    stats
                        .map(|s| (s.num_blocks, s.dl.to_bits(), s.moves))
                        .collect()
                };
                assert_eq!(bits(&carried), bits(&warm), "seed {seed}, C = {c}");
                let model = carried.model.expect("a warm search hands its model back");
                let rebuilt =
                    Blockmodel::from_assignment(&g, carried.assignment, carried.num_blocks);
                assert!(model.same_state(&rebuilt), "seed {seed}, C = {c}");
            }
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
                    || g.out_edges(3).any(|(d, _)| d == v)
                    || g.out_edges(12).any(|(d, _)| d == v)
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

    /// What a search sweeps — the whole vertex set, or a warm start's
    /// dirty subset in sweep order — on a graph whose degrees vary.
    fn swept_sets(g: &Graph) -> Vec<Vec<Vertex>> {
        let plane = LocalPlane::new(g);
        let n = g.num_vertices() as u32;
        let dirty: Vec<Vertex> = (0..n)
            .rev()
            .filter(|v| v % 5 != 0)
            .chain([n + 9, 4])
            .collect();
        let warm = WarmStart::new(vec![0; n as usize], 1).with_dirty(dirty);
        let sets = vec![
            swept_vertices(&plane, None),
            swept_vertices(&plane, Some(&warm)),
        ];
        assert_eq!(sets[0], (0..n).collect::<Vec<_>>());
        assert_eq!(sets[1], (0..n).filter(|v| v % 5 != 0).collect::<Vec<_>>());
        sets
    }

    /// 700 vertices, out-degree 2, in-degree 0 up to 10.
    fn uneven_graph() -> Graph {
        let edges = (0..700u32).flat_map(|v| [(v, (v * 7 + 3) % 700, 1), (v, v / 3, 1)]);
        Graph::from_edges(700, edges)
    }

    /// The plan of a Metropolis–Hastings search is one chunk, swept in
    /// order and synced.
    #[test]
    fn an_mh_plan_is_one_synced_chunk_of_the_swept_set() {
        let g = uneven_graph();
        for swept in swept_sets(&g).into_iter().chain([vec![]]) {
            let plan = sweep_plan(McmcStrategy::MetropolisHastings, &g, &swept);
            let want = Chunk {
                vertices: swept,
                frozen: false,
                syncs: true,
            };
            assert_eq!(plan, [want]);
        }
    }

    /// The plan of a Batch search is its `batch_chunks`, each frozen and
    /// each synced: the swept set's residue lists, each in sweep order,
    /// always `BATCH_CHUNKS` of them.
    #[test]
    fn a_batch_plan_is_the_batch_chunks_each_synced() {
        use crate::hybrid::{batch_chunks, BATCH_CHUNKS};
        let g = uneven_graph();
        for swept in swept_sets(&g).into_iter().chain([vec![]]) {
            let plan = sweep_plan(McmcStrategy::Batch, &g, &swept);
            assert_eq!(plan.len(), BATCH_CHUNKS);
            for (c, (chunk, want)) in plan.iter().zip(batch_chunks(&swept)).enumerate() {
                assert!(chunk.frozen && chunk.syncs, "chunk {c}");
                assert_eq!(chunk.vertices, want, "chunk {c}");
                assert!(want.iter().all(|&v| v as usize % BATCH_CHUNKS == c));
                assert!(want.windows(2).all(|p| p[0] < p[1]), "sweep order");
            }
            let mut all: Vec<Vertex> = plan.into_iter().flat_map(|c| c.vertices).collect();
            all.sort_unstable();
            assert_eq!(all, swept);
        }
    }

    /// The plan of a Hybrid search: the swept set in `(Reverse(degree),
    /// v)` order, its ⌈10 %⌉ head one unfrozen chunk, the tail frozen
    /// chunks of at most `HYBRID_CHUNK`, and only the last chunk syncs —
    /// over an empty set too, which is then one empty synced chunk.
    #[test]
    fn a_hybrid_plan_is_a_degree_sorted_head_and_frozen_tail_chunks() {
        use crate::hybrid::{HYBRID_CHUNK, HYBRID_HEAD_FRACTION};
        let g = uneven_graph();
        for swept in swept_sets(&g) {
            let plan = sweep_plan(McmcStrategy::Hybrid, &g, &swept);
            let mut order = swept.clone();
            order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            let head = (swept.len() as f64 * HYBRID_HEAD_FRACTION).ceil() as usize;
            assert_eq!(head, swept.len().div_ceil(10));
            assert_eq!(plan[0].vertices, order[..head]);
            assert!(!plan[0].frozen);
            assert!(g.degree(order[0]) > g.degree(order[head]), "degrees vary");
            let tail = &plan[1..];
            assert_eq!(tail.len(), (swept.len() - head).div_ceil(HYBRID_CHUNK));
            assert!(tail.len() >= 2, "the tail spans several chunks");
            for chunk in tail {
                assert!(chunk.frozen);
                assert!(!chunk.vertices.is_empty() && chunk.vertices.len() <= HYBRID_CHUNK);
            }
            let syncs: Vec<bool> = plan.iter().map(|c| c.syncs).collect();
            assert_eq!(syncs.iter().filter(|&&s| s).count(), 1);
            assert_eq!(syncs.last(), Some(&true));
            let all: Vec<Vertex> = plan.into_iter().flat_map(|c| c.vertices).collect();
            assert_eq!(all, order);
        }
        let empty = sweep_plan(McmcStrategy::Hybrid, &g, &[]);
        let want = Chunk {
            vertices: vec![],
            frozen: false,
            syncs: true,
        };
        assert_eq!(empty, [want]);
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

    /// The iterations the searches on this thread ran ahead, by what
    /// became of them (`Search::settle_ahead` fills it; the root's
    /// `sbp_solver_overlapped_iterations_total` counts the same, but
    /// process-wide).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub(super) struct Overlaps {
        pub(super) committed: Vec<usize>,
        pub(super) dropped: Vec<usize>,
    }

    /// `(iteration, bracket established, block counts of the models held)`.
    pub(super) type Held = (usize, bool, Vec<usize>);

    thread_local! {
        pub(super) static OVERLAPS: std::cell::RefCell<Overlaps> = Default::default();
        /// The models the searches on this thread held resident during each
        /// MCMC phase `Search::probe` ran.
        pub(super) static RESIDENT: std::cell::RefCell<Vec<Held>> = Default::default();
        /// Makes the searches on this thread keep every start model, as
        /// they did before a cold search let `mid`'s go while halving — the
        /// reference the residency test holds the change to.
        pub(super) static HOLD_START: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// A search on the local plane over `graph` at pool width `threads`:
    /// its outcome, every event it reported (kind, payload and order, as
    /// `Debug` prints them — floats to the last bit), and what it ran
    /// ahead. `hook` sees each event after it is logged.
    fn at_width(
        graph: &Graph,
        cfg: &RunConfig,
        threads: usize,
        mut hook: impl FnMut(&ProgressEvent),
    ) -> (RunOutcome, Vec<String>, Overlaps) {
        let mut events = Vec::new();
        let mut sink = crate::run::ProgressFn(|e: &ProgressEvent| {
            events.push(format!("{e:?}"));
            hook(e);
        });
        OVERLAPS.take();
        let (out, _) = rayon::with_threads(threads, || {
            golden_search(&LocalPlane::new(graph), None, cfg, 1, &mut sink)
        });
        (out, events, OVERLAPS.take())
    }

    /// Runs `cfg()` at one and at two workers, asserts the two runs equal
    /// — outcome, DL bits, trajectory and event sequence — and that the
    /// one-worker run ran nothing ahead; returns the two-worker run.
    fn one_worker_equals_two(
        graph: &Graph,
        cfg: impl Fn() -> RunConfig,
        mut hook: impl FnMut(&RunConfig, &ProgressEvent),
    ) -> (RunOutcome, Vec<String>, Overlaps) {
        let runs: Vec<_> = [1, 2]
            .into_iter()
            .map(|threads| {
                let cfg = cfg();
                at_width(graph, &cfg, threads, |e| hook(&cfg, e))
            })
            .collect();
        let [(serial, serial_events, none), (pooled, pooled_events, overlaps)] = &runs[..] else {
            unreachable!()
        };
        assert_eq!(*none, Overlaps::default(), "width 1 ran a probe ahead");
        assert_eq!(serial.assignment, pooled.assignment);
        assert_eq!(serial.num_blocks, pooled.num_blocks);
        assert_eq!(
            serial.description_length.to_bits(),
            pooled.description_length.to_bits()
        );
        assert_eq!(serial.cancelled, pooled.cancelled);
        let trajectory = |o: &RunOutcome| -> Vec<(usize, u64, usize, usize)> {
            o.iterations
                .iter()
                .map(|s| (s.num_blocks, s.dl.to_bits(), s.sweeps, s.moves))
                .collect()
        };
        assert_eq!(trajectory(serial), trajectory(pooled));
        assert_eq!(serial_events, pooled_events);
        (pooled.clone(), pooled_events.clone(), overlaps.clone())
    }

    /// The daemon's steady state, shrunk: a warm start the search narrows
    /// down from, where the probe the bracket asks for after a worse one
    /// was already run beside it — and is committed, so the equivalence
    /// below is not vacuous.
    #[test]
    fn a_warm_search_that_commits_a_probe_run_ahead_equals_its_one_worker_run() {
        let g = clique_chain(10, 5);
        let n = g.num_vertices() as u32;
        let cold = solve_sbp(&g, None, &RunConfig::seeded(1), &mut NoProgress);
        let split: Vec<u32> = (0..n)
            .map(|v| cold.assignment[v as usize] * 2 + v % 2)
            .collect();
        let warm = || {
            RunConfig::seeded(1).warm_start(crate::run::WarmStart::new(
                split.clone(),
                cold.num_blocks * 2,
            ))
        };
        let (_, _, overlaps) = one_worker_equals_two(&g, warm, |_, _| {});
        assert!(!overlaps.committed.is_empty(), "{overlaps:?}");
    }

    /// A warm start on `clique_chain(10, 5)`: the cold partition at its
    /// own block count, `moved` of its vertices put in the next block.
    fn warm_from_cold(moved: &[Vertex]) -> (Graph, impl Fn() -> RunConfig) {
        let g = clique_chain(10, 5);
        let cold = solve_sbp(&g, None, &RunConfig::seeded(1), &mut NoProgress);
        let c = cold.num_blocks as u32;
        let mut start = cold.assignment;
        for &v in moved {
            start[v as usize] = (start[v as usize] + 1) % c;
        }
        let cfg = move || {
            RunConfig::seeded(1).warm_start(crate::run::WarmStart::new(start.clone(), c as usize))
        };
        (g, cfg)
    }

    /// The daemon's steady round: the refine pass moves nothing, so the
    /// first loop step, run beside it from the unpolished model, is
    /// committed.
    #[test]
    fn a_warm_search_whose_refine_moves_nothing_commits_iteration_0_run_ahead() {
        let (g, cfg) = warm_from_cold(&[]);
        let (out, _, overlaps) = one_worker_equals_two(&g, cfg, |_, _| {});
        assert_eq!(out.iterations[0].moves, 0, "the refine moved a vertex");
        assert_eq!(overlaps.committed.first(), Some(&0), "{overlaps:?}");
    }

    /// A refine pass that moves vertices leaves a seed the probe run
    /// beside it did not start from: that probe is dropped, iteration 0
    /// runs on the caller from the polished seed.
    #[test]
    fn a_warm_search_whose_refine_moves_vertices_drops_the_probe_run_ahead() {
        let (g, cfg) = warm_from_cold(&[0, 17, 33]);
        let (out, _, overlaps) = one_worker_equals_two(&g, cfg, |_, _| {});
        assert!(out.iterations[0].moves > 0, "the refine moved nothing");
        assert_eq!(overlaps.dropped.first(), Some(&0), "{overlaps:?}");
        assert!(!overlaps.committed.contains(&0), "{overlaps:?}");
    }

    /// A cancel the sink raises during the refine pass: `Cancelled` comes
    /// once, at iteration 0's top, and the probe run beside the refine is
    /// dropped without a single event of its own.
    #[test]
    fn a_cancel_during_the_refine_drops_the_probe_run_beside_it_unseen() {
        let (g, cfg) = warm_from_cold(&[]);
        let (out, events, overlaps) = one_worker_equals_two(&g, cfg, |cfg, e| {
            if matches!(e, ProgressEvent::Sweep { iteration, sweep: 0, .. } if *iteration == cfg.sbp.max_iterations)
            {
                cfg.cancel.cancel();
            }
        });
        assert_eq!(overlaps.dropped, [0], "{overlaps:?}");
        assert!(overlaps.committed.is_empty(), "{overlaps:?}");
        let cancelled: Vec<&String> = events
            .iter()
            .filter(|e| e.starts_with("Cancelled"))
            .collect();
        assert_eq!(cancelled, ["Cancelled { iteration: 0 }"]);
        assert!(
            !events.iter().any(|e| e.contains("iteration: 0,")),
            "the dropped probe reported: {events:?}"
        );
        assert!(out.cancelled);
        assert_eq!(out.iterations.len(), 1, "the refine's entry alone");
    }

    /// No run-ahead beside a refine whose bracket asks for no step: a
    /// one-block warm start, or no loop iteration at all; at a budget of
    /// one, iteration 0 alone runs ahead.
    #[test]
    fn a_warm_search_runs_no_probe_ahead_past_its_steps() {
        let (g, _) = warm_from_cold(&[]);
        let n = g.num_vertices();
        let one_block =
            || RunConfig::seeded(1).warm_start(crate::run::WarmStart::new(vec![0; n], 1));
        let (_, _, overlaps) = one_worker_equals_two(&g, one_block, |_, _| {});
        assert_eq!(overlaps, Overlaps::default());
        for (budget, ran_ahead) in [(0, vec![]), (1, vec![0])] {
            let (_, warm) = warm_from_cold(&[]);
            let cfg = || {
                let mut cfg = warm();
                cfg.sbp.max_iterations = budget;
                cfg
            };
            let (out, _, overlaps) = one_worker_equals_two(&g, cfg, |_, _| {});
            assert_eq!(out.iterations.len(), budget + 1, "budget {budget}");
            assert_eq!(
                overlaps,
                Overlaps {
                    committed: ran_ahead,
                    dropped: vec![]
                },
                "budget {budget}"
            );
        }
    }

    /// A search on the local plane over `graph` at pool width `threads`,
    /// keeping every start model (`hold`) or not: what `at_width` gives,
    /// and the models it held during each MCMC phase it ran on the caller.
    fn residency(
        graph: &Graph,
        cfg: &RunConfig,
        threads: usize,
        hold: bool,
    ) -> (Vec<Held>, RunOutcome, Vec<String>, Overlaps) {
        HOLD_START.set(hold);
        RESIDENT.take();
        let (out, events, overlaps) = at_width(graph, cfg, threads, |_| {});
        HOLD_START.set(false);
        (RESIDENT.take(), out, events, overlaps)
    }

    /// A cold search holds no model during a probe before its bracket is
    /// established — where it held that probe's start, `mid`'s — and
    /// afterwards exactly what it held when it kept every start model; the
    /// outcome, every event, and which probes run ahead are committed or
    /// dropped are the same. A warm search still holds its seed.
    #[test]
    fn a_cold_search_holds_no_start_model_until_its_bracket_is_established() {
        let g = clique_chain(10, 5);
        for seed in 1..=3u64 {
            let cfg = RunConfig::seeded(seed);
            let (held, out, events, overlaps) = residency(&g, &cfg, 2, false);
            let (kept, kept_out, kept_events, kept_overlaps) = residency(&g, &cfg, 2, true);
            assert_eq!(out.assignment, kept_out.assignment, "seed {seed}");
            assert_eq!(events, kept_events, "seed {seed}");
            assert_eq!(overlaps, kept_overlaps, "seed {seed}");
            assert_eq!(held.len(), kept.len(), "seed {seed}");
            for ((iteration, established, now), (_, _, before)) in held.iter().zip(&kept) {
                if *established {
                    assert_eq!(now, before, "seed {seed} iteration {iteration}");
                } else {
                    assert!(now.is_empty(), "seed {seed} iteration {iteration}: {now:?}");
                    assert_eq!(before.len(), 1, "seed {seed} iteration {iteration}");
                }
            }
            let phases = |established: bool| held.iter().filter(|h| h.1 == established).count();
            assert!(
                phases(false) >= 2 && phases(true) >= 2,
                "seed {seed}: {held:?}"
            );
        }
        // Warm, at width 1 so that iteration 0 runs on the caller.
        let (g, warm) = warm_from_cold(&[]);
        let c = warm().warm.expect("warm").num_blocks;
        let (held, ..) = residency(&g, &warm(), 1, false);
        assert_eq!(held.first(), Some(&(0, false, vec![c])), "{held:?}");
    }

    /// A cold search in which a probe run ahead is dropped (the probe
    /// beside it came out better than `mid`, so the bracket asked for a
    /// different step) and a later one is committed.
    #[test]
    fn a_cold_search_that_drops_a_probe_run_ahead_equals_its_one_worker_run() {
        let g = clique_chain(10, 5);
        let (_, _, overlaps) = one_worker_equals_two(&g, || RunConfig::seeded(1), |_, _| {});
        assert!(!overlaps.dropped.is_empty(), "{overlaps:?}");
        assert!(!overlaps.committed.is_empty(), "{overlaps:?}");
    }

    /// Hybrid and batch sweeps fan out over the pool themselves, so the
    /// search that runs a Metropolis–Hastings probe ahead above runs none
    /// with them: there is no idle worker to fill.
    #[test]
    fn pooled_sweep_strategies_run_no_probe_ahead() {
        let g = clique_chain(10, 5);
        for strategy in [McmcStrategy::Hybrid, McmcStrategy::Batch] {
            let cfg = || {
                let mut cfg = RunConfig::seeded(1);
                cfg.sbp.strategy = strategy;
                cfg
            };
            let (_, _, overlaps) = one_worker_equals_two(&g, cfg, |_, _| {});
            assert_eq!(overlaps, Overlaps::default(), "{strategy:?}");
        }
    }

    /// A cancel the sink raises while a probe runs ahead beside the one it
    /// reports on: the live probe stops at its next sync point and is
    /// recorded, `Cancelled` comes once, the best entry comes back, and
    /// the probe run ahead is dropped without a single event of its own.
    #[test]
    fn a_cancel_during_an_overlapped_pair_drops_the_probe_run_ahead_unseen() {
        let g = clique_chain(10, 5);
        let (_, _, clean) = one_worker_equals_two(&g, || RunConfig::seeded(1), |_, _| {});
        let ahead = clean.committed[0];
        let (out, events, overlaps) = one_worker_equals_two(
            &g,
            || RunConfig::seeded(1),
            |cfg, e| {
                if matches!(e, ProgressEvent::Sweep { iteration, sweep: 0, .. } if *iteration == ahead - 1)
                {
                    cfg.cancel.cancel();
                }
            },
        );
        assert!(overlaps.committed.is_empty(), "{overlaps:?}");
        assert_eq!(overlaps.dropped.last(), Some(&ahead), "{overlaps:?}");
        let cancelled: Vec<&String> = events
            .iter()
            .filter(|e| e.starts_with("Cancelled"))
            .collect();
        assert_eq!(
            cancelled,
            [&format!("Cancelled {{ iteration: {} }}", ahead - 1)]
        );
        assert!(
            !events
                .iter()
                .any(|e| e.contains(&format!("iteration: {ahead},"))),
            "the dropped probe reported: {events:?}"
        );
        assert!(!events.iter().any(|e| e.starts_with("Finished")));
        assert!(out.cancelled);
        assert_eq!(out.iterations.len(), ahead);
        let bm = Blockmodel::from_assignment(&g, out.assignment.clone(), out.num_blocks);
        assert!((bm.description_length() - out.description_length).abs() < 1e-9);
    }
}
