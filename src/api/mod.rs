//! The unified partitioning API: one builder, five interchangeable
//! backends, one result shape.
//!
//! ```
//! use edist::prelude::*;
//!
//! let planted = generate(&SbmParams::example());
//! let run = Partitioner::on(&planted.graph)
//!     .backend(Backend::Edist { ranks: 4 })
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! assert!(nmi(&run.assignment, &planted.ground_truth) > 0.5);
//! assert!(run.cluster.unwrap().makespan > 0.0);
//! ```
//!
//! [`Partitioner`] validates its inputs, assembles the matching
//! [`Solver`] (optionally wrapped in the [`Sampled`] data-reduction
//! decorator), threads a progress callback and a [`CancelToken`]
//! through, and returns a [`Run`] carrying the partition, the
//! per-iteration trajectory, wall/virtual timings, and — for the
//! distributed backends — the [`ClusterReport`].
//!
//! A warm start is not a builder setting: its one caller, the resident
//! daemon (`sbp_serve`), checks [`Solver::supports_warm_start`] and hands
//! the solver a [`RunConfig::warm_start`] itself.

use sbp_core::run::{
    CancelToken, CheckpointSpec, DegradedReason, ProgressEvent, ProgressFn, RunConfig, RunOutcome,
    SingleNode, Solver,
};
use sbp_core::{CheckpointState, IterationStat, McmcStrategy, SbpConfig};
use sbp_dist::{DistSolver, FaultPlan, OwnershipStrategy, ShardedBackend};
use sbp_eval::normalized_dl;
use sbp_graph::Graph;
use sbp_mpi::ClusterReport;
use sbp_sample::{Sampled, SamplingStrategy};
use sbp_serve::Resolver;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

pub use sbp_dist::ShardIngestReport;

/// Boxed progress callback stored by the builder, as a sink.
type ProgressCallback<'a> = ProgressFn<Box<dyn FnMut(&ProgressEvent) + 'a>>;

/// Which execution strategy runs the shared SBP inference engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Single-node sequential Metropolis–Hastings (paper Alg. 2).
    Sequential,
    /// Single-node Hybrid SBP (sequential high-degree head + frozen
    /// low-degree chunks, the paper's intra-rank parallelization).
    Hybrid,
    /// Single-node frozen-state batch evaluation (python-reference
    /// parallelism; the strategy under which EDiSt trajectories are
    /// bit-identical at every rank count).
    Batch,
    /// Divide-and-conquer SBP (paper Alg. 3) on simulated MPI ranks.
    DcSbp {
        /// Simulated rank count.
        ranks: usize,
    },
    /// Exact distributed SBP (paper Algs. 4–5) on simulated MPI ranks.
    Edist {
        /// Simulated rank count.
        ranks: usize,
    },
}

impl Backend {
    /// Every name [`Backend::parse`] takes, sorted; `sbp` is a second
    /// name for `sequential`.
    pub const NAMES: [&'static str; 6] = ["batch", "dcsbp", "edist", "hybrid", "sbp", "sequential"];

    /// The backend a `--backend` name stands for; `ranks` sizes the
    /// distributed ones.
    pub fn parse(name: &str, ranks: usize) -> Result<Backend, String> {
        Ok(match name {
            "sequential" | "sbp" => Backend::Sequential,
            "hybrid" => Backend::Hybrid,
            "batch" => Backend::Batch,
            "dcsbp" => Backend::DcSbp { ranks },
            "edist" => Backend::Edist { ranks },
            other => {
                return Err(format!(
                    "unknown backend '{other}' (known: {})",
                    Self::NAMES.join(", ")
                ))
            }
        })
    }

    /// The driver this backend runs as over shards, on a cluster of TCP
    /// ranks or on simulated in-memory ones, and its rank count. With
    /// `shards`, the rank count must equal it: one rank loads exactly one
    /// shard. Refuses zero ranks, a zero EDiSt sync period and a
    /// single-node backend.
    pub fn distributed(
        self,
        sync_period: usize,
        shards: Option<usize>,
    ) -> Result<(ShardedBackend, usize), PartitionError> {
        let (driver, ranks) = match self {
            Backend::Edist { ranks } => (ShardedBackend::Edist { sync_period }, ranks),
            Backend::DcSbp { ranks } => (ShardedBackend::DcSbp, ranks),
            single => {
                return Err(PartitionError::ShardedUnsupported(format!(
                    "the {single} backend runs on one node (only Edist and DcSbp run over \
                     shards or on a cluster)"
                )))
            }
        };
        if ranks == 0 {
            return Err(PartitionError::ZeroRanks);
        }
        if sync_period == 0 && matches!(driver, ShardedBackend::Edist { .. }) {
            return Err(PartitionError::ZeroSyncPeriod);
        }
        match shards {
            Some(shards) if shards != ranks => {
                Err(PartitionError::ShardCountMismatch { ranks, shards })
            }
            _ => Ok((driver, ranks)),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Sequential => write!(f, "sequential"),
            Backend::Hybrid => write!(f, "hybrid"),
            Backend::Batch => write!(f, "batch"),
            Backend::DcSbp { ranks } => write!(f, "dcsbp(ranks={ranks})"),
            Backend::Edist { ranks } => write!(f, "edist(ranks={ranks})"),
        }
    }
}

/// Why a [`Partitioner::run`] call was rejected before doing any work.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionError {
    /// A distributed backend was configured with zero ranks.
    ZeroRanks,
    /// The sampling fraction was outside `(0, 1]` (or not a number); it
    /// carries the value as given.
    BadSampleFraction(f64),
    /// `sync_period` must be at least 1.
    ZeroSyncPeriod,
    /// `checkpoint_every` must be at least 1.
    ZeroCheckpointEvery,
    /// The `.sbps` shard directory could not be read or validated.
    ShardLoad(String),
    /// The requested feature/backend combination cannot run over a
    /// sharded source or on a cluster; the message says what and what to
    /// do instead.
    ShardedUnsupported(String),
    /// An explicit [`Partitioner::ownership`] setting contradicts the
    /// scheme the shards were planned under.
    ShardStrategyMismatch {
        /// Ownership the builder asked for.
        requested: OwnershipStrategy,
        /// Ownership baked into the shard headers.
        shards: OwnershipStrategy,
    },
    /// The requested rank count differs from the shard count — one rank
    /// loads exactly one shard.
    ShardCountMismatch {
        /// Ranks the backend asked for.
        ranks: usize,
        /// Shards present in the directory.
        shards: usize,
    },
    /// Checkpointing or resume was configured for a run with no golden
    /// loop to snapshot (sampling pipelines, the DC-SBP backend).
    CheckpointUnsupported(String),
    /// The [`Partitioner::resume_from`] snapshot could not be read or is
    /// not a well-formed `.sbpc` file.
    CheckpointLoad(String),
    /// The resume snapshot is well-formed but belongs to a different run
    /// (seed, strategy, or graph fingerprint disagree).
    CheckpointMismatch(String),
    /// The [`Partitioner::checkpoint_to`] path can never be written
    /// (its parent directory is missing), detected before the run starts
    /// so hours of work are not silently unprotected.
    CheckpointPath(String),
    /// A fault plan was configured for a single-node backend, which has
    /// no cluster to inject into.
    FaultUnsupported(String),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::ZeroRanks => {
                write!(f, "distributed backends need at least one rank")
            }
            PartitionError::BadSampleFraction(fraction) => {
                write!(f, "sampling fraction must be in (0, 1], got {fraction}")
            }
            PartitionError::ZeroSyncPeriod => {
                write!(f, "sync_period must be at least 1")
            }
            PartitionError::ZeroCheckpointEvery => {
                write!(f, "checkpoint_every must be at least 1")
            }
            PartitionError::ShardLoad(reason) => write!(f, "shard load failed: {reason}"),
            PartitionError::ShardedUnsupported(what) => write!(f, "{what}"),
            PartitionError::ShardStrategyMismatch { requested, shards } => write!(
                f,
                "builder asked for {requested:?} ownership but the shards were \
                 planned under {shards:?} (ownership is baked in at shard time; \
                 re-shard, or drop the .ownership() call)"
            ),
            PartitionError::ShardCountMismatch { ranks, shards } => write!(
                f,
                "backend wants {ranks} ranks but the directory holds {shards} shards \
                 (one rank loads exactly one shard)"
            ),
            PartitionError::CheckpointUnsupported(what) => write!(f, "{what}"),
            PartitionError::CheckpointLoad(reason) => {
                write!(f, "resume checkpoint load failed: {reason}")
            }
            PartitionError::CheckpointMismatch(reason) => {
                write!(f, "resume checkpoint rejected: {reason}")
            }
            PartitionError::CheckpointPath(reason) => {
                write!(f, "checkpoint path is not writable: {reason}")
            }
            PartitionError::FaultUnsupported(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The unified result of a [`Partitioner`] run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Name of the backend that produced the result (including the
    /// sampling decorator, when active).
    pub backend: String,
    /// Inferred block assignment (dense labels `0..num_blocks`).
    pub assignment: Vec<u32>,
    /// Inferred number of blocks.
    pub num_blocks: usize,
    /// Description length of the returned partition.
    pub description_length: f64,
    /// Per-iteration trajectory of the golden-ratio search.
    pub iterations: Vec<IterationStat>,
    /// True when the run stopped early on its [`CancelToken`]; the
    /// partition is then the best bracket entry found so far.
    pub cancelled: bool,
    /// Real elapsed time of the whole run (s).
    pub wall_seconds: f64,
    /// Virtual runtime: thread-CPU seconds for single-node backends, the
    /// simulated BSP makespan for distributed ones.
    pub virtual_seconds: f64,
    /// Communication/runtime report — `Some` for distributed backends.
    pub cluster: Option<ClusterReport>,
    /// Vertices actually sampled — `Some` when sampling was enabled.
    pub sampled_vertices: Option<usize>,
    /// Shard-ingest report — `Some` when the run loaded `.sbps` shards
    /// via [`Partitioner::on_sharded`] instead of an in-memory graph.
    pub ingest: Option<ShardIngestReport>,
    /// `Some` when a fault degraded a distributed run: the partition is
    /// the best bracket entry found before the failure, not the converged
    /// optimum. See [`DegradedReason`] for what every surviving rank
    /// agrees on.
    pub degraded: Option<DegradedReason>,
}

impl Run {
    /// Wraps a solver's [`RunOutcome`] into the unified result.
    pub fn from_outcome(
        backend: String,
        outcome: RunOutcome,
        wall_seconds: f64,
        ingest: Option<ShardIngestReport>,
    ) -> Run {
        Run {
            backend,
            assignment: outcome.assignment,
            num_blocks: outcome.num_blocks,
            description_length: outcome.description_length,
            iterations: outcome.iterations,
            cancelled: outcome.cancelled,
            wall_seconds,
            virtual_seconds: outcome.virtual_seconds,
            cluster: outcome.cluster,
            sampled_vertices: outcome.sampled_vertices,
            ingest,
            degraded: outcome.degraded,
        }
    }

    /// Normalized description length against the null single-community
    /// model (lower is better; `< 1` beats the null model).
    pub fn dl_norm(&self, graph: &Graph) -> f64 {
        normalized_dl(
            self.description_length,
            graph.num_vertices(),
            graph.total_edge_weight(),
        )
    }

    /// Normalized description length for sharded runs, using the global
    /// vertex/edge counts from the ingest report (no graph in memory).
    pub fn dl_norm_sharded(&self) -> Option<f64> {
        self.ingest.map(|ingest| {
            normalized_dl(
                self.description_length,
                ingest.num_vertices,
                ingest.total_edge_weight,
            )
        })
    }
}

/// Where the graph comes from.
enum Source<'a> {
    /// An in-memory [`Graph`], replicated on every simulated rank.
    Graph(&'a Graph),
    /// A directory of `.sbps` shards; each rank loads only its own shard
    /// (see `sbp_dist::sharded`).
    Shards(PathBuf),
}

/// Builder for a partitioning run: pick a [`Backend`], tune the shared
/// hyper-parameters, optionally add sampling, a progress callback, and a
/// cancellation token, then [`run`](Partitioner::run).
pub struct Partitioner<'a> {
    source: Source<'a>,
    backend: Option<Backend>,
    sbp: SbpConfig,
    /// `None` until [`Partitioner::ownership`] is called, so the sharded
    /// path can distinguish "default" from an explicit request it would
    /// have to silently override.
    ownership: Option<OwnershipStrategy>,
    sync_period: usize,
    /// `None` until [`Partitioner::skip_finetune`] is called (same
    /// rationale as `ownership`).
    skip_finetune: Option<bool>,
    sample: Option<(SamplingStrategy, f64)>,
    cancel: CancelToken,
    /// The registered progress callback (a no-op without one).
    progress: ProgressCallback<'a>,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: usize,
    resume_path: Option<PathBuf>,
    fault: FaultPlan,
}

impl<'a> Partitioner<'a> {
    /// Starts a builder for `graph` with default hyper-parameters. With
    /// no explicit [`backend`](Partitioner::backend) call, the
    /// single-node backend matching the configured
    /// [`McmcStrategy`] runs — sequential MH by
    /// default.
    pub fn on(graph: &'a Graph) -> Self {
        Self::with_source(Source::Graph(graph))
    }

    /// Starts a builder over a directory of `.sbps` shards written by
    /// [`sbp_graph::shard::shard_graph`] (or `edist-cli shard`). The run
    /// spawns one simulated rank per shard; each rank loads **only its
    /// own shard** plus exchanged cut edges, so the monolithic graph
    /// never materializes (see `sbp_dist::sharded` for the exactness
    /// guarantees). Only the distributed backends apply: with no explicit
    /// [`backend`](Partitioner::backend) the run uses EDiSt on one rank
    /// per shard; a `DcSbp` backend always behaves as its no-fine-tune
    /// variant; an explicit backend's `ranks` must equal the shard count.
    pub fn on_sharded(dir: impl Into<PathBuf>) -> Self {
        Self::with_source(Source::Shards(dir.into()))
    }

    fn with_source(source: Source<'a>) -> Self {
        Partitioner {
            source,
            backend: None,
            sbp: SbpConfig::default(),
            ownership: None,
            sync_period: 1,
            skip_finetune: None,
            sample: None,
            cancel: CancelToken::new(),
            progress: ProgressFn(Box::new(|_| {})),
            checkpoint_path: None,
            checkpoint_every: 1,
            resume_path: None,
            fault: FaultPlan::none(),
        }
    }

    /// Selects the execution backend explicitly. A single-node backend
    /// chosen here overrides the `strategy` field of the configured
    /// [`SbpConfig`] (the backend *is* the strategy); the distributed
    /// backends honour it for their intra-rank sweeps.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Replaces the full SBP hyper-parameter set. When no explicit
    /// [`backend`](Partitioner::backend) is selected, `sbp.strategy`
    /// also picks the single-node backend, so
    /// `Partitioner::on(&g).config(cfg).run()` reproduces
    /// `solve_sbp(&g, None, &RunConfig::from_sbp(cfg), …)` exactly for
    /// every strategy.
    pub fn config(mut self, sbp: SbpConfig) -> Self {
        self.sbp = sbp;
        self
    }

    /// Sets the master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.sbp.seed = seed;
        self
    }

    /// Sets EDiSt's vertex-ownership scheme (default: sorted-balanced).
    /// On a sharded source the ownership is baked into the shards, so an
    /// explicit setting that contradicts them is rejected at
    /// [`run`](Partitioner::run) instead of silently overridden.
    pub fn ownership(mut self, ownership: OwnershipStrategy) -> Self {
        self.ownership = Some(ownership);
        self
    }

    /// Sets EDiSt's sweeps-per-move-exchange period (default 1).
    pub fn sync_period(mut self, period: usize) -> Self {
        self.sync_period = period;
        self
    }

    /// Skips DC-SBP's root-side fine-tuning pass (ablation switch).
    /// Sharded DC-SBP always runs without fine-tuning (the root never
    /// holds the whole graph), so `skip_finetune(false)` on a sharded
    /// source is rejected at [`run`](Partitioner::run) rather than
    /// silently forced.
    pub fn skip_finetune(mut self, skip: bool) -> Self {
        self.skip_finetune = Some(skip);
        self
    }

    /// Enables sampling-based data reduction: infer on a `fraction`
    /// sample drawn with `strategy`, then extend to the full graph.
    pub fn sample(mut self, strategy: SamplingStrategy, fraction: f64) -> Self {
        self.sample = Some((strategy, fraction));
        self
    }

    /// Attaches a cancellation token; keep a clone and call
    /// [`CancelToken::cancel`] to stop the run at its next checkpoint.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Registers a progress callback. Sequential backends invoke it
    /// inline from the optimization loop; distributed backends relay
    /// rank 0's events to it live on the calling thread.
    pub fn progress(mut self, callback: impl FnMut(&ProgressEvent) + 'a) -> Self {
        self.progress = ProgressFn(Box::new(callback));
        self
    }

    /// Writes a `.sbpc` golden-loop snapshot to `path` at sync
    /// boundaries (atomically: temp file + rename, so a crash mid-write
    /// never leaves a torn checkpoint). Distributed backends write from
    /// rank 0, where every replica holds identical state. Combine with
    /// [`checkpoint_every`](Partitioner::checkpoint_every) to thin the
    /// cadence; resume with [`resume_from`](Partitioner::resume_from).
    /// The path's parent directory is validated at
    /// [`run`](Partitioner::run) — a run that could never write its
    /// protection fails fast instead of silently running bare.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Checkpoints every `every`-th sync boundary instead of every one
    /// (default 1; 0 is refused at [`run`](Partitioner::run)). Only
    /// meaningful together with [`checkpoint_to`](Partitioner::checkpoint_to).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Resumes the golden loop from a `.sbpc` snapshot written by an
    /// earlier [`checkpoint_to`](Partitioner::checkpoint_to) run. The
    /// snapshot is loaded and validated against this run's seed,
    /// strategy, and graph fingerprint at [`run`](Partitioner::run); a
    /// resumed run is bit-identical to the uninterrupted one because
    /// every RNG stream is keyed by the (restored) iteration index,
    /// never by elapsed state. The snapshot's backend does not need to
    /// match: a sequential checkpoint resumes under EDiSt at any rank
    /// count, and vice versa, as long as the MCMC strategy agrees.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_path = Some(path.into());
        self
    }

    /// Injects a deterministic fault plan (see [`FaultPlan::parse`])
    /// into the simulated cluster: every rank's communicator is wrapped
    /// in `sbp_dist::FaultComm`, which kills ranks, mangles payloads, or
    /// delays collectives at exact sync points. Supported by every
    /// distributed run (`Edist`, `DcSbp`, sharded or not); rejected for
    /// single-node backends at [`run`](Partitioner::run).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// The backend an in-memory run will actually use: an unspecified
    /// backend follows the configured MCMC strategy.
    fn effective_backend(&self) -> Backend {
        match (self.backend, self.sbp.strategy) {
            (Some(backend), _) => backend,
            (None, McmcStrategy::MetropolisHastings) => Backend::Sequential,
            (None, McmcStrategy::Hybrid) => Backend::Hybrid,
            (None, McmcStrategy::Batch) => Backend::Batch,
        }
    }

    /// The MCMC strategy the run's golden loop executes — what a resume
    /// snapshot must agree with. Single-node backends *are* their
    /// strategy (they override `sbp.strategy`); the distributed backends
    /// honour the configured one for their intra-rank sweeps.
    fn effective_strategy(&self) -> McmcStrategy {
        match self.effective_backend() {
            Backend::Sequential => McmcStrategy::MetropolisHastings,
            Backend::Hybrid => McmcStrategy::Hybrid,
            Backend::Batch => McmcStrategy::Batch,
            Backend::DcSbp { .. } | Backend::Edist { .. } => self.sbp.strategy,
        }
    }

    /// Builds the configured [`Solver`] without running it.
    fn solver(&self) -> Result<Box<dyn Solver>, PartitionError> {
        let base: Box<dyn Solver> = match self.effective_backend() {
            single @ (Backend::Sequential | Backend::Hybrid | Backend::Batch) => {
                if !self.fault.is_empty() {
                    return Err(PartitionError::FaultUnsupported(format!(
                        "the {single} backend cannot inject faults (it has no cluster; \
                         only the Edist and DcSbp backends carry a communicator to decorate)"
                    )));
                }
                Box::new(SingleNode(self.effective_strategy()))
            }
            backend => {
                let (driver, ranks) = backend.distributed(self.sync_period, None)?;
                Box::new(DistSolver {
                    backend: driver,
                    ranks,
                    ownership: self.ownership.unwrap_or_default(),
                    skip_finetune: self.skip_finetune.unwrap_or(false),
                    fault: self.fault.clone(),
                })
            }
        };
        match self.sample {
            None => Ok(base),
            Some((strategy, fraction)) => {
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(PartitionError::BadSampleFraction(fraction));
                }
                Ok(Box::new(Sampled {
                    strategy,
                    fraction,
                    ..Sampled::new(base)
                }))
            }
        }
    }

    /// Resolves the builder's checkpoint/resume requests into the
    /// [`RunConfig`] fields, validating everything that can fail before
    /// the run starts: backend support, the checkpoint path's parent
    /// directory, and the resume snapshot (loaded here, and checked
    /// against the run's seed, strategy, and graph fingerprint).
    /// `total_edge_weight` is `None` on the sharded path, where the
    /// global weight is not known until ingest — there the snapshot's
    /// own figure is accepted and only seed/strategy/vertex-count are
    /// cross-checked.
    fn checkpoint_cfg(
        &self,
        num_vertices: usize,
        total_edge_weight: Option<u64>,
    ) -> Result<(Option<CheckpointSpec>, Option<CheckpointState>), PartitionError> {
        if self.checkpoint_every == 0 {
            return Err(PartitionError::ZeroCheckpointEvery);
        }
        if self.checkpoint_path.is_none() && self.resume_path.is_none() {
            return Ok((None, None));
        }
        if self.sample.is_some() {
            return Err(PartitionError::CheckpointUnsupported(
                "sampling pipelines cannot checkpoint or resume (the snapshot would \
                 capture the sample's golden loop, not the full run; checkpoint an \
                 unsampled run instead)"
                    .into(),
            ));
        }
        if matches!(self.effective_backend(), Backend::DcSbp { .. }) {
            return Err(PartitionError::CheckpointUnsupported(
                "DC-SBP cannot checkpoint or resume (its per-rank solves share no \
                 golden loop to snapshot; use Edist for a resumable distributed run)"
                    .into(),
            ));
        }
        let checkpoint = match &self.checkpoint_path {
            None => None,
            Some(path) => {
                // The golden loop writes best-effort (a transient write
                // failure must not abort the run it protects), so a path
                // that can *never* be written is rejected up front.
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    if !parent.is_dir() {
                        return Err(PartitionError::CheckpointPath(format!(
                            "parent directory {} does not exist",
                            parent.display()
                        )));
                    }
                }
                Some(CheckpointSpec {
                    path: path.clone(),
                    every: self.checkpoint_every,
                })
            }
        };
        let resume = match &self.resume_path {
            None => None,
            Some(path) => {
                let state = CheckpointState::read_from(path)
                    .map_err(|e| PartitionError::CheckpointLoad(e.to_string()))?;
                let tew = total_edge_weight.unwrap_or(state.total_edge_weight);
                state
                    .validate_against(self.sbp.seed, &self.effective_strategy(), num_vertices, tew)
                    .map_err(|e| PartitionError::CheckpointMismatch(e.to_string()))?;
                Some(state)
            }
        };
        Ok((checkpoint, resume))
    }

    /// Runs inference and returns the unified [`Run`] result.
    pub fn run(mut self) -> Result<Run, PartitionError> {
        match &self.source {
            Source::Graph(graph) => {
                let graph = *graph;
                let solver = self.solver()?;
                let (checkpoint, resume) = self.checkpoint_cfg(
                    graph.num_vertices(),
                    Some(graph.total_edge_weight().max(0) as u64),
                )?;
                let cfg = RunConfig {
                    cancel: self.cancel.clone(),
                    checkpoint,
                    resume,
                    ..RunConfig::from_sbp(self.sbp.clone())
                };
                let wall = Instant::now();
                let outcome = solver.solve(graph, &cfg, &mut self.progress);
                let wall = wall.elapsed().as_secs_f64();
                Ok(Run::from_outcome(solver.name(), outcome, wall, None))
            }
            Source::Shards(dir) => {
                let dir = dir.clone();
                self.run_shards(&dir)
            }
        }
    }

    /// The sharded-source run path: validate the directory, pick the
    /// sharded driver matching the backend, stream events, attach the
    /// ingest report.
    fn run_shards(&mut self, dir: &std::path::Path) -> Result<Run, PartitionError> {
        if self.sample.is_some() {
            return Err(PartitionError::ShardedUnsupported(
                "sampling is not supported over sharded input (sample before sharding, \
                 or load the graph in memory)"
                    .into(),
            ));
        }
        let header = sbp_graph::shard::validate_shard_dir(dir)
            .map_err(|e| PartitionError::ShardLoad(e.to_string()))?;
        let shards = header.shard_count;
        // The ownership scheme is baked into the shards; an explicit
        // builder setting that contradicts them must error, not be
        // silently overridden.
        if let Some(requested) = self.ownership {
            if requested != header.strategy {
                return Err(PartitionError::ShardStrategyMismatch {
                    requested,
                    shards: header.strategy,
                });
            }
        }
        let backend = self.backend.unwrap_or(Backend::Edist { ranks: shards });
        let (sharded, _) = backend.distributed(self.sync_period, Some(shards))?;
        // Sharded DC-SBP cannot fine-tune (the root never holds the whole
        // graph); an explicit request for fine-tuning must error, not be
        // silently forced off.
        if sharded == ShardedBackend::DcSbp && self.skip_finetune == Some(false) {
            return Err(PartitionError::ShardedUnsupported(
                "DC-SBP fine-tuning is not available over sharded input \
                 (it needs the whole graph on the root; run Edist over the \
                 same shards to refine distributively)"
                    .into(),
            ));
        }
        let (checkpoint, resume) = self.checkpoint_cfg(header.num_vertices, None)?;
        let cfg = RunConfig {
            cancel: self.cancel.clone(),
            checkpoint,
            resume,
            ..RunConfig::from_sbp(self.sbp.clone())
        };
        let solver = DistSolver {
            fault: self.fault.clone(),
            ..DistSolver::new(sharded, shards)
        };
        let wall = Instant::now();
        let (outcome, ingest) =
            solver.run(sbp_dist::run::Source::Shards(dir), &cfg, &mut self.progress);
        Ok(Run::from_outcome(
            format!("{}-sharded(ranks={shards})", sharded.name()),
            outcome,
            wall.elapsed().as_secs_f64(),
            ingest,
        ))
    }
}

/// The daemon's [`Resolver`]: a name of [`Backend::NAMES`] on `ranks`
/// ranks, checked as [`Backend::distributed`] checks it, becomes the
/// solver [`Partitioner`] builds for that backend over a graph.
pub fn default_registry() -> Resolver {
    |name, ranks, sync_period| {
        let backend = Backend::parse(name, ranks)?;
        // The builder's solver reads nothing of the graph it runs over.
        let none = Graph::from_edges(0, Vec::new());
        let partitioner = Partitioner::on(&none).backend(backend);
        let solver = partitioner.sync_period(sync_period).solver();
        solver.map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::fixtures::two_cliques;

    #[test]
    fn builder_runs_every_backend() {
        let g = two_cliques(8);
        for backend in [
            Backend::Sequential,
            Backend::Hybrid,
            Backend::Batch,
            Backend::DcSbp { ranks: 2 },
            Backend::Edist { ranks: 2 },
        ] {
            let run = Partitioner::on(&g)
                .backend(backend)
                .seed(5)
                .run()
                .unwrap_or_else(|e| panic!("{backend}: {e}"));
            assert_eq!(run.assignment.len(), 16, "{backend}");
            assert_eq!(run.num_blocks, 2, "{backend}");
            assert!(run.wall_seconds >= 0.0);
            let distributed = matches!(backend, Backend::DcSbp { .. } | Backend::Edist { .. });
            assert_eq!(run.cluster.is_some(), distributed, "{backend}");
        }
    }

    #[test]
    fn zero_ranks_is_rejected() {
        let g = two_cliques(4);
        let err = Partitioner::on(&g)
            .backend(Backend::Edist { ranks: 0 })
            .run()
            .unwrap_err();
        assert_eq!(err, PartitionError::ZeroRanks);
    }

    #[test]
    fn bad_sample_fraction_is_rejected() {
        let g = two_cliques(4);
        let err = Partitioner::on(&g)
            .sample(SamplingStrategy::UniformNode, 1.5)
            .run()
            .unwrap_err();
        assert_eq!(err, PartitionError::BadSampleFraction(1.5));
        assert!(err.to_string().contains("1.5"));
    }

    #[test]
    fn dl_norm_beats_null_model_on_structured_graph() {
        let g = two_cliques(8);
        let run = Partitioner::on(&g).seed(1).run().unwrap();
        assert!(run.dl_norm(&g) < 1.0);
    }

    fn sharded_fixture(tag: &str, shards: usize) -> std::path::PathBuf {
        let g = two_cliques(8);
        let dir = std::env::temp_dir().join(format!("api_shard_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sbp_graph::shard::shard_graph(&g, &dir, shards, OwnershipStrategy::SortedBalanced).unwrap();
        dir
    }

    #[test]
    fn on_sharded_defaults_to_edist_over_all_shards() {
        let dir = sharded_fixture("default", 2);
        let run = Partitioner::on_sharded(&dir).seed(5).run().unwrap();
        assert_eq!(run.backend, "edist-sharded(ranks=2)");
        assert_eq!(run.num_blocks, 2);
        assert_eq!(run.assignment.len(), 16);
        let ingest = run.ingest.expect("sharded run reports ingest");
        assert_eq!(ingest.ranks, 2);
        assert_eq!(ingest.num_vertices, 16);
        assert!(run.dl_norm_sharded().unwrap() < 1.0);
        assert!(run.cluster.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_validates_backend_and_rank_count() {
        let dir = sharded_fixture("validate", 2);
        let err = Partitioner::on_sharded(&dir)
            .backend(Backend::Edist { ranks: 3 })
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            PartitionError::ShardCountMismatch {
                ranks: 3,
                shards: 2
            }
        );
        let err = Partitioner::on_sharded(&dir)
            .backend(Backend::Sequential)
            .run()
            .unwrap_err();
        assert!(matches!(err, PartitionError::ShardedUnsupported(_)));
        let err = Partitioner::on_sharded(&dir)
            .sample(SamplingStrategy::UniformNode, 0.5)
            .run()
            .unwrap_err();
        assert!(matches!(err, PartitionError::ShardedUnsupported(_)));
        let err = Partitioner::on_sharded(std::env::temp_dir().join("no_such_shards"))
            .run()
            .unwrap_err();
        assert!(matches!(err, PartitionError::ShardLoad(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_rejects_contradictory_explicit_settings() {
        // The fixture shards under SortedBalanced; ownership is baked in.
        let dir = sharded_fixture("explicit", 2);
        let err = Partitioner::on_sharded(&dir)
            .ownership(OwnershipStrategy::Modulo)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            PartitionError::ShardStrategyMismatch {
                requested: OwnershipStrategy::Modulo,
                shards: OwnershipStrategy::SortedBalanced,
            }
        );
        // An explicit setting that AGREES with the shards is fine.
        let run = Partitioner::on_sharded(&dir)
            .ownership(OwnershipStrategy::SortedBalanced)
            .seed(1)
            .run()
            .unwrap();
        assert_eq!(run.num_blocks, 2);
        // Fine-tuning cannot happen over shards: explicit opt-in errors,
        // explicit opt-out (matching the forced behavior) is accepted.
        let err = Partitioner::on_sharded(&dir)
            .backend(Backend::DcSbp { ranks: 2 })
            .skip_finetune(false)
            .run()
            .unwrap_err();
        assert!(matches!(err, PartitionError::ShardedUnsupported(_)));
        assert!(err.to_string().contains("fine-tuning"));
        Partitioner::on_sharded(&dir)
            .backend(Backend::DcSbp { ranks: 2 })
            .skip_finetune(true)
            .seed(1)
            .run()
            .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_dcsbp_backend_runs() {
        let dir = sharded_fixture("dcsbp", 2);
        let run = Partitioner::on_sharded(&dir)
            .backend(Backend::DcSbp { ranks: 2 })
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(run.backend, "dcsbp-sharded(ranks=2)");
        assert_eq!(run.assignment.len(), 16);
        assert!(run.ingest.is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
