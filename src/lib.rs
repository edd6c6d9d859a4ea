//! # edist — Exact Distributed Stochastic Block Partitioning
//!
//! A from-scratch Rust reproduction of *“Exact Distributed Stochastic
//! Block Partitioning”* (Wanye, Gleyzer, Kao, Feng — IEEE CLUSTER 2023,
//! arXiv:2305.18663): the EDiSt algorithm, the divide-and-conquer DC-SBP
//! baseline it is evaluated against, and every substrate they need —
//! graph storage and IO, a DC-SBM graph generator, the DCSBM inference
//! engine, an in-process MPI-style cluster simulator, and the evaluation
//! metrics.
//!
//! ## Quickstart
//!
//! Sequential SBP, Hybrid SBP, batch SBP, DC-SBP, and EDiSt are the same
//! inference engine under different execution strategies; the
//! [`Partitioner`] builder is the one entrypoint to
//! all of them:
//!
//! ```
//! use edist::prelude::*;
//!
//! // Generate a planted-partition graph (4 communities, easy mixing).
//! let planted = generate(&SbmParams::example());
//!
//! // Run EDiSt on 4 simulated MPI ranks.
//! let run = Partitioner::on(&planted.graph)
//!     .backend(Backend::Edist { ranks: 4 })
//!     .seed(42)
//!     .run()
//!     .expect("valid configuration");
//!
//! // Community recovery is measured with NMI against the planted truth.
//! assert!(nmi(&run.assignment, &planted.ground_truth) > 0.5);
//! // Distributed backends attach the simulated-cluster report.
//! assert!(run.cluster.unwrap().makespan > 0.0);
//! // Every run carries the golden-search trajectory.
//! assert!(!run.iterations.is_empty());
//! ```
//!
//! Swap `.backend(…)` to change the execution strategy — nothing else
//! in the call changes:
//!
//! * [`Backend::Sequential`](api::Backend) — single-node MH baseline;
//! * `Backend::Hybrid` — shared-memory hybrid;
//! * `Backend::Batch` — frozen-state batch sweeps;
//! * `Backend::DcSbp { ranks }` — divide-and-conquer on simulated MPI;
//! * `Backend::Edist { ranks }` — exact distributed SBP.
//!
//! Long runs are observable and interruptible:
//!
//! ```no_run
//! use edist::prelude::*;
//!
//! let planted = generate(&SbmParams::example());
//! let token = CancelToken::new();
//! let run = Partitioner::on(&planted.graph)
//!     .backend(Backend::Edist { ranks: 8 })
//!     .progress(|event| {
//!         if let ProgressEvent::Iteration { iteration, stat } = event {
//!             eprintln!("iter {iteration}: {} blocks, DL {:.1}", stat.num_blocks, stat.dl);
//!         }
//!     })
//!     .cancel_token(token.clone()) // token.cancel() aborts with best-so-far
//!     .run()
//!     .unwrap();
//! # let _ = run;
//! ```
//!
//! Sampling-based data reduction (paper §V-F) composes with every
//! backend via `.sample(strategy, fraction)`.
//!
//! ## Robustness: checkpoints and fault injection
//!
//! Long runs snapshot the golden loop at sync boundaries with
//! `.checkpoint_to(path)` / `.checkpoint_every(n)` and restart
//! **bit-identically** with `.resume_from(path)` (every RNG stream is a
//! pure function of `(seed, iteration, sweep, vertex)`, so nothing is
//! lost by the interruption). Distributed failures degrade instead of
//! crashing: a dead rank or corrupted collective frame unwinds every
//! rank coordinately and the run returns best-so-far with
//! [`api::Run::degraded`] set. `.fault_plan(...)` injects
//! deterministic, seed-keyed faults (kill / mangle / delay) into the
//! simulated cluster to rehearse exactly that — see
//! [`dist::fault`].
//!
//! ## Sharded graph ingest (paper-scale IO)
//!
//! At paper scale no machine can hold the whole edge list, so graphs can
//! be split into per-rank binary `.sbps` shards
//! ([`graph::shard`]) and partitioned with each simulated rank
//! loading **only its own shard** plus exchanged cut edges:
//!
//! ```no_run
//! use edist::prelude::*;
//!
//! # fn demo(graph: &Graph) -> Result<(), Box<dyn std::error::Error>> {
//! // Offline: split the graph once (or use `edist-cli shard`).
//! shard_graph(graph, std::path::Path::new("shards/"), 8, OwnershipStrategy::SortedBalanced)?;
//! // Online: one rank per shard; the monolithic graph never materializes.
//! let run = Partitioner::on_sharded("shards/").seed(42).run()?;
//! let ingest = run.ingest.unwrap();
//! assert!(ingest.max_rank_local_arcs < ingest.total_arcs);
//! # Ok(()) }
//! ```
//!
//! The sharded EDiSt driver keeps the replicated blockmodel exact through
//! integer cell-delta collectives — bit-identical to a monolithic run in
//! **both** storage regimes, since sparse matrix lines iterate in
//! canonical order (`sbp_core::line`; see `sbp_dist::sharded`) — with
//! the move exchange delta+varint-compressed ([`graph::varint`],
//! accounted in [`ClusterReport`](mpi::ClusterReport)).
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`api`] | (this crate) | `Partitioner` builder, `Backend`, unified `Run` |
//! | [`graph`] | `sbp-graph` | CSR digraph, Matrix Market / edge-list IO, `.sbps` shards + varint codec, ownership schemes, subgraphs, island census |
//! | [`gen`] | `sbp-gen` | degree-corrected SBM generator + the paper's dataset families |
//! | [`core`] | `sbp-core` | blockmodel, ΔS kernels, proposals, merges, MCMC, golden-ratio SBP, the `Solver` trait |
//! | [`mpi`] | `sbp-mpi` | communicator trait, thread cluster, virtual clocks, cost model |
//! | [`dist`] | `sbp-dist` | DC-SBP (Alg. 3) and EDiSt (Algs. 4–5) solver backends, distributed shard loader + sharded drivers |
//! | [`eval`] | `sbp-eval` | NMI, ARI, normalized description length |
//! | [`sample`] | `sbp-sample` | sampling strategies + the `Sampled` solver decorator |
//! | [`serve`] | `sbp-serve` | resident partition daemon: binary wire protocol, edge-delta ingest, warm (incremental) re-partitioning |
//!
//! See `README.md` for the system inventory, the substitutions made to
//! run the paper's cluster-scale evaluation on a single machine, and how
//! to regenerate every table/figure.

#![forbid(unsafe_code)]

pub mod api;

pub use sbp_core as core;
pub use sbp_dist as dist;
pub use sbp_eval as eval;
pub use sbp_gen as gen;
pub use sbp_graph as graph;
pub use sbp_metrics as metrics;
pub use sbp_mpi as mpi;
pub use sbp_sample as sample;
pub use sbp_serve as serve;

pub use api::{Backend, PartitionError, Partitioner, Run};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::api::{default_registry, run_solver, Backend, PartitionError, Partitioner, Run};
    pub use sbp_core::{
        solve_sbp, Blockmodel, CancelToken, CheckpointError, CheckpointSpec, CheckpointState,
        DegradedReason, GoldenBracket, IterationStat, McmcStrategy, NoProgress, ProgressEvent,
        ProgressFn, ProgressSink, RunConfig, RunOutcome, SbpConfig, Solver, WarmStart,
    };
    pub use sbp_dist::{
        load_dist_graph, run_sharded, DistError, DistGraph, DistSolver, Fault, FaultComm,
        FaultPlan, OwnershipStrategy, ShardIngestReport, ShardedBackend,
    };
    pub use sbp_eval::{adjusted_rand_index, nmi, normalized_dl};
    pub use sbp_gen::{
        generate, graph_challenge, param_study, realworld, scaling_graph, Difficulty,
        ParamStudySpec, PlantedGraph, RealWorldStandIn, SbmParams, ScalingGraph,
    };
    pub use sbp_graph::shard::{shard_graph, ShardPlan, ShardReader, ShardWriter};
    pub use sbp_graph::{induced_subgraph, island_fraction_round_robin, round_robin_parts, Graph};
    pub use sbp_mpi::{ClusterReport, Communicator, CostModel, SelfComm, ThreadCluster};
    pub use sbp_sample::{extend_partition, sample_vertices, Sampled, SamplingStrategy};
    pub use sbp_serve::{Client, Listen, Request, Response, ServeError, Server, ServerOptions};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let g = Graph::from_edges(4, vec![(0, 1, 1), (1, 0, 1)]);
        assert_eq!(g.num_vertices(), 4);
        // The builder types are all reachable through the prelude.
        let err = Partitioner::on(&g)
            .backend(Backend::DcSbp { ranks: 0 })
            .run()
            .unwrap_err();
        assert_eq!(err, PartitionError::ZeroRanks);
    }
}
