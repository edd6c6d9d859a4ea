//! The unified solver API: one trait, one config, one result shape.
//!
//! Sequential SBP, Hybrid SBP, batch SBP, DC-SBP and EDiSt are the same
//! inference engine under different execution strategies (the paper's
//! framing). This module gives that fact an API: an object-safe
//! [`Solver`] trait whose implementations are interchangeable backends,
//! a shared [`RunConfig`], and a single [`RunOutcome`] carrying the
//! partition, the per-iteration trajectory, timings, and (for
//! distributed backends) the cluster report.
//!
//! Long runs are observable and interruptible: every backend reports
//! [`ProgressEvent`]s through a caller-supplied [`ProgressSink`] and
//! polls a [`CancelToken`] at iteration boundaries, returning the
//! best-so-far bracket entry when cancelled. The `edist` facade crate
//! builds the `Partitioner` builder on top of this module.

use crate::blockmodel::Blockmodel;
use crate::checkpoint::CheckpointState;
use crate::sbp::{solve_sbp, IterationStat, McmcStrategy, SbpConfig};
use sbp_graph::{Graph, Vertex};
use sbp_mpi::ClusterReport;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------- cancellation

/// A cheap, cloneable cancellation handle.
///
/// Clone it, hand one copy to the run (via [`RunConfig::cancel`]) and
/// keep the other; calling [`CancelToken::cancel`] from any thread — or
/// from inside a progress callback — makes the solver stop at its next
/// check point and return the best partition found so far, flagged with
/// [`RunOutcome::cancelled`]. The check points are documented on
/// [`ProgressEvent::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

// ------------------------------------------------------------- progress

/// What a running solver reports while it works.
#[derive(Clone, Debug)]
pub enum ProgressEvent {
    /// Inference is starting on a graph of this size.
    Started {
        /// Vertices in the graph being partitioned.
        num_vertices: usize,
        /// Blocks in the starting partition.
        num_blocks: usize,
    },
    /// A distributed backend is spawning its simulated cluster.
    ClusterStarted {
        /// Simulated MPI ranks.
        ranks: usize,
    },
    /// A named pipeline stage is starting (e.g. `"sample"`, `"extend"`,
    /// `"local-sbp"`, `"finetune"`).
    PhaseStarted {
        /// Stage label.
        phase: &'static str,
    },
    /// A block-merge phase finished.
    Merged {
        /// Golden-search iteration index.
        iteration: usize,
        /// Block count before the merges.
        from_blocks: usize,
        /// Block count after the merges.
        num_blocks: usize,
    },
    /// One sync point of an MCMC phase finished (single-node backends:
    /// one sweep — the root already holds the agreed description length
    /// there, so emitting it costs nothing extra). Fine-grained
    /// observability for large-graph runs whose iterations take minutes.
    Sweep {
        /// Golden-search iteration index.
        iteration: usize,
        /// Sweep index within the iteration's MCMC phase.
        sweep: usize,
        /// Description length after the sweep (distributed backends: the
        /// rank-0 broadcast value every replica agreed on).
        dl: f64,
        /// Proposals evaluated during the sweep (distributed backends:
        /// rank 0's local count — the only rank whose events are relayed).
        proposed: usize,
        /// Moves accepted during the sweep (distributed backends: the
        /// exchanged global total every replica applied).
        accepted: usize,
    },
    /// A full merge+MCMC iteration finished.
    Iteration {
        /// Golden-search iteration index.
        iteration: usize,
        /// The iteration's trajectory entry.
        stat: IterationStat,
    },
    /// The run observed its [`CancelToken`] and is returning early.
    ///
    /// The one cancellation contract, for every backend: the token is
    /// read at the top of each golden-search iteration and at every sync
    /// point *after* the sweep(s) it closes — never between a sweep and
    /// its sync. The value acted on is the root's, agreed by all
    /// participants, so a distributed run stops at the same collective
    /// everywhere. A sync-point cancel still records the interrupted
    /// iteration (bracket entry, trajectory, checkpoint) before the run
    /// returns its best entry so far.
    Cancelled {
        /// The iteration that was interrupted: the one about to start
        /// (iteration-top check) or the one whose MCMC phase was cut
        /// short (sync-point check).
        iteration: usize,
    },
    /// The run completed normally.
    Finished {
        /// Final number of blocks.
        num_blocks: usize,
        /// Final description length.
        description_length: f64,
    },
}

/// Receives [`ProgressEvent`]s from a running solver.
///
/// Object-safe so backends can thread `&mut dyn ProgressSink` through
/// without generics; distributed backends relay rank 0's events to the
/// caller's sink on the spawning thread.
pub trait ProgressSink {
    /// Called for every event, in order. Keep it cheap: sequential
    /// backends invoke it inline from the optimization loop.
    fn on_event(&mut self, event: &ProgressEvent);
}

/// The silent sink used when no progress callback is registered.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProgress;

impl ProgressSink for NoProgress {
    fn on_event(&mut self, _event: &ProgressEvent) {}
}

/// Adapts any closure into a [`ProgressSink`].
pub struct ProgressFn<F>(pub F);

impl<F: FnMut(&ProgressEvent)> ProgressSink for ProgressFn<F> {
    fn on_event(&mut self, event: &ProgressEvent) {
        (self.0)(event)
    }
}

// -------------------------------------------------------------- config

/// Where and how often to write `.sbpc` golden-loop checkpoints (see
/// [`crate::checkpoint`]).
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// The `.sbpc` file to (over)write. Writes are atomic: a temp file
    /// in the same directory is renamed over `path`, so a crash mid-write
    /// never leaves a torn checkpoint.
    pub path: PathBuf,
    /// Write after every `every`-th golden-loop sync boundary (iteration
    /// end). `1` checkpoints every iteration; values are clamped to ≥ 1.
    pub every: usize,
}

/// Seeds the golden search from an existing partition instead of the
/// identity partition at `C = V` — the incremental re-partitioning entry
/// point used by `sbp-serve` after edge-delta ingest.
///
/// The bracket is seeded at the warm partition's block count, so the
/// search agglomerates down from there rather than re-halving from `V`.
/// When `dirty` is set, only those vertices re-enter MCMC sweeps (the
/// subset-sweep determinism contract makes this exact: a vertex's
/// proposal stream is keyed by `(seed, iteration, sweep, vertex)`, never
/// by which other vertices sweep). The description length is still
/// computed over the full blockmodel, so bracket decisions stay exact.
///
/// The seed's blockmodel is built from the graph, one walk over every
/// arc, unless `model` carries it ([`WarmStart::from_model`]): the search
/// then copies that model (a fold compacts it if a block is empty) and
/// walks no arc. The daemon carries the model its last round returned
/// ([`RunOutcome::model`]) with the round's deltas folded in
/// ([`Blockmodel::fold_edge_deltas`]).
///
/// Contract: `assignment.len()` must equal the graph's vertex count and
/// every label must be `< num_blocks` — the `Partitioner` facade and the
/// server validate this before building a config. A carried model must
/// be the model of `(assignment, num_blocks)` over the graph being
/// solved, equal to [`Blockmodel::from_assignment`] there: the search
/// uses it only when its assignment is the seed's, and debug builds check
/// it against that rebuild.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// Dense starting assignment (labels `0..num_blocks`).
    pub assignment: Vec<u32>,
    /// Block count of the starting assignment.
    pub num_blocks: usize,
    /// When `Some`, only these vertices are swept in MCMC phases
    /// (out-of-range ids are ignored; order and duplicates don't matter).
    /// `None` sweeps every vertex, as a cold run does.
    pub dirty: Option<Vec<Vertex>>,
    /// The blockmodel of the starting partition, when the caller holds
    /// it; `None` builds it from the graph.
    pub model: Option<Arc<Blockmodel>>,
}

impl WarmStart {
    /// A warm start that sweeps every vertex.
    pub fn new(assignment: Vec<u32>, num_blocks: usize) -> Self {
        WarmStart {
            assignment,
            num_blocks,
            dirty: None,
            model: None,
        }
    }

    /// A warm start from `model`'s partition that carries the model, so
    /// the search walks no arc to build its seed.
    pub fn from_model(model: Arc<Blockmodel>) -> Self {
        WarmStart {
            model: Some(Arc::clone(&model)),
            ..WarmStart::new(model.assignment().to_vec(), model.num_blocks())
        }
    }

    /// Restricts MCMC sweeps to the given vertices.
    pub fn with_dirty(mut self, dirty: Vec<Vertex>) -> Self {
        self.dirty = Some(dirty);
        self
    }
}

/// The backend-independent run configuration: the shared SBP
/// hyper-parameters plus the cancellation token and optional
/// checkpoint/resume/warm-start state. Backend-specific knobs (rank
/// counts, cost models, ownership schemes, sampling fractions) live on
/// the backend values themselves.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Hyper-parameters of the underlying SBP search, shared by every
    /// backend (the distributed ones run the same golden loop).
    pub sbp: SbpConfig,
    /// Cooperative cancellation handle; `Default` never cancels.
    pub cancel: CancelToken,
    /// When set, the golden loop writes a `.sbpc` snapshot at sync
    /// boundaries (distributed backends: rank 0 writes — every replica
    /// holds identical state there).
    pub checkpoint: Option<CheckpointSpec>,
    /// When set, the golden loop starts from this snapshot instead of
    /// the identity partition; the run is bit-identical to the
    /// uninterrupted one because every RNG stream is keyed by the
    /// (restored) iteration index, never by elapsed state.
    pub resume: Option<CheckpointState>,
    /// When set (and `resume` is not), the golden loop seeds its bracket
    /// from this partition instead of the identity partition. Only
    /// honoured by backends whose [`Solver::supports_warm_start`] is
    /// true; others must be rejected by the caller, never silently run
    /// cold.
    pub warm: Option<WarmStart>,
}

impl RunConfig {
    /// Wraps existing SBP hyper-parameters with a fresh (inert) token.
    pub fn from_sbp(sbp: SbpConfig) -> Self {
        RunConfig {
            sbp,
            cancel: CancelToken::new(),
            checkpoint: None,
            resume: None,
            warm: None,
        }
    }

    /// Default hyper-parameters with the given master seed.
    pub fn seeded(seed: u64) -> Self {
        RunConfig::from_sbp(SbpConfig {
            seed,
            ..SbpConfig::default()
        })
    }

    /// Seeds the golden search from `warm` (builder-style).
    pub fn warm_start(mut self, warm: WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }
}

// -------------------------------------------------------------- result

/// Why a run returned best-so-far instead of completing: the coarse,
/// rank-comparable classification of the `DistError` (see `sbp-dist`)
/// that aborted the schedule. Recorded on [`RunOutcome::degraded`]; the
/// partition is still the best bracket entry found before the failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedReason {
    /// A rank died (injected kill or peer abort observed mid-collective).
    RankFailure,
    /// A collective payload failed to decode on this rank.
    DecodeFailure,
    /// Distributed shard ingest failed before or during the run.
    ShardLoadFailure,
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedReason::RankFailure => write!(f, "rank failure"),
            DegradedReason::DecodeFailure => write!(f, "collective decode failure"),
            DegradedReason::ShardLoadFailure => write!(f, "shard ingest failure"),
        }
    }
}

/// The unified result shape every [`Solver`] returns.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Inferred block assignment (dense labels `0..num_blocks`).
    pub assignment: Vec<u32>,
    /// Inferred number of blocks.
    pub num_blocks: usize,
    /// Description length of the returned partition.
    pub description_length: f64,
    /// Per-iteration trajectory of the golden-ratio search (for
    /// DC-SBP, the root fine-tuning trajectory).
    pub iterations: Vec<IterationStat>,
    /// True when the run stopped early on its [`CancelToken`]; the
    /// partition is then the best bracket entry found so far.
    pub cancelled: bool,
    /// Virtual runtime: thread-CPU seconds for single-node backends,
    /// the BSP makespan for distributed ones (see `sbp-mpi`).
    pub virtual_seconds: f64,
    /// Communication/runtime report — `Some` for distributed backends.
    pub cluster: Option<ClusterReport>,
    /// Vertices actually sampled — `Some` for `Sampled` pipelines.
    pub sampled_vertices: Option<usize>,
    /// `Some` when a fault degraded the run: the partition is the best
    /// entry found before the failure, not the converged optimum. Every
    /// surviving rank reports the same classification (coordinated
    /// unwind), though the rank that *detected* a decode failure reports
    /// [`DegradedReason::DecodeFailure`] while its peers observe the
    /// cascade as [`DegradedReason::RankFailure`].
    pub degraded: Option<DegradedReason>,
    /// The blockmodel of the returned partition over the solved graph,
    /// when the search still held it at the end — a warm search always
    /// does. Its sparse lines keep the room a fold leaves them, so it can
    /// seed the next warm start ([`WarmStart::from_model`]) as it is.
    /// `None` where the backend keeps no model of the whole graph to the
    /// end (DC-SBP), or the search let that model go.
    pub model: Option<Blockmodel>,
}

impl RunOutcome {
    /// An empty outcome for the zero-vertex graph.
    pub fn empty() -> Self {
        RunOutcome {
            assignment: Vec::new(),
            num_blocks: 0,
            description_length: 0.0,
            iterations: Vec::new(),
            cancelled: false,
            virtual_seconds: 0.0,
            cluster: None,
            sampled_vertices: None,
            degraded: None,
            model: None,
        }
    }
}

// --------------------------------------------------------------- trait

/// A partitioning backend: one execution strategy of the shared SBP
/// inference engine.
///
/// Object-safe by design — the `edist` facade stores `Box<dyn Solver>`
/// and decorators like `sbp_sample::Sampled` wrap any inner solver.
/// Implementations must be deterministic given `cfg.sbp.seed` (modulo
/// cancellation timing) and must honour `cfg.cancel` at iteration
/// granularity or finer.
pub trait Solver {
    /// Human-readable backend name (e.g. `"edist(ranks=4)"`).
    fn name(&self) -> String;

    /// Runs inference on `graph`, reporting progress to `progress`.
    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome;

    /// Whether this backend honours [`RunConfig::warm_start`]. Defaults
    /// to `false`; callers must reject a warm config for a backend that
    /// returns false rather than let it silently run cold.
    fn supports_warm_start(&self) -> bool {
        false
    }
}

impl<S: Solver + ?Sized> Solver for &S {
    fn name(&self) -> String {
        (**self).name()
    }

    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome {
        (**self).solve(graph, cfg, progress)
    }

    fn supports_warm_start(&self) -> bool {
        (**self).supports_warm_start()
    }
}

impl<S: Solver + ?Sized> Solver for Box<S> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome {
        (**self).solve(graph, cfg, progress)
    }

    fn supports_warm_start(&self) -> bool {
        (**self).supports_warm_start()
    }
}

// ------------------------------------------------- single-node backends

/// The single-node backends: the golden search on the whole graph
/// ([`solve_sbp`]) with every sweep under the given strategy, whatever
/// `cfg.sbp.strategy` says. `SingleNode(McmcStrategy::MetropolisHastings)`
/// is sequential SBP, the paper's single-node baseline (Alg. 2);
/// `Hybrid` is Hybrid SBP (the paper's intra-rank shared-memory
/// parallelization); `Batch` is the schedule whose trajectory is exactly
/// invariant to EDiSt's rank count — see the backend-equivalence tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingleNode(pub McmcStrategy);

impl Solver for SingleNode {
    /// `sequential`, `hybrid` or `batch`: the names `--backend` takes.
    fn name(&self) -> String {
        match self.0 {
            McmcStrategy::MetropolisHastings => "sequential",
            McmcStrategy::Hybrid => "hybrid",
            McmcStrategy::Batch => "batch",
        }
        .into()
    }

    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome {
        let mut cfg = cfg.clone();
        cfg.sbp.strategy = self.0;
        solve_sbp(graph, None, &cfg, progress)
    }

    fn supports_warm_start(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::fixtures::two_cliques;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn backends_are_object_safe_and_solve() {
        let g = two_cliques(6);
        let cfg = RunConfig::seeded(3);
        for solver in [
            McmcStrategy::MetropolisHastings,
            McmcStrategy::Hybrid,
            McmcStrategy::Batch,
        ]
        .map(|strategy| Box::new(SingleNode(strategy)) as Box<dyn Solver>)
        {
            let out = solver.solve(&g, &cfg, &mut NoProgress);
            assert_eq!(out.assignment.len(), 12, "{}", solver.name());
            assert_eq!(out.num_blocks, 2, "{}", solver.name());
            assert!(!out.cancelled);
            assert!(out.cluster.is_none());
            assert!(!out.iterations.is_empty());
        }
    }

    #[test]
    fn progress_events_bracket_the_run() {
        let g = two_cliques(5);
        let mut events: Vec<String> = Vec::new();
        let mut sink = ProgressFn(|e: &ProgressEvent| {
            events.push(match e {
                ProgressEvent::Started { .. } => "started".into(),
                ProgressEvent::Merged { .. } => "merged".into(),
                ProgressEvent::Iteration { .. } => "iteration".into(),
                ProgressEvent::Finished { .. } => "finished".into(),
                other => format!("{other:?}"),
            });
        });
        let out = SingleNode(McmcStrategy::MetropolisHastings).solve(
            &g,
            &RunConfig::seeded(1),
            &mut sink,
        );
        assert_eq!(events.first().map(String::as_str), Some("started"));
        assert_eq!(events.last().map(String::as_str), Some("finished"));
        let iterations = events.iter().filter(|e| *e == "iteration").count();
        assert_eq!(iterations, out.iterations.len());
    }

    #[test]
    fn pre_cancelled_token_returns_start_partition() {
        let g = two_cliques(6);
        let cfg = RunConfig::seeded(2);
        cfg.cancel.cancel();
        let out = SingleNode(McmcStrategy::MetropolisHastings).solve(&g, &cfg, &mut NoProgress);
        assert!(out.cancelled);
        // Nothing ran: the seeded identity bracket entry comes back.
        assert_eq!(out.num_blocks, 12);
        assert!(out.iterations.is_empty());
    }
}
