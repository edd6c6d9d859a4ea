//! # sbp-dist — the distributed stochastic block partitioning algorithms
//!
//! The paper's Algs. 3–5 are SPMD programs: one rank program over MPI
//! collectives. This crate has exactly one of those, and every
//! deployment — {thread simulator, real TCP processes} × {replicated
//! graph, `.sbps` shards} × {EDiSt, DC-SBP} — is a caller of it. EDiSt
//! has no loop of its own: it is `sbp-core`'s golden search on this
//! crate's plane.
//!
//! ```text
//!  callers                   the run path (mod run)              sbp-core
//!  ───────                   ──────────────────────              ────────
//!  DistSolver    ┐                                      EDiSt    golden_search ─► Plane
//!                ├► run_thread_cluster ─┐              ┌──────►   (the one loop)    │
//!  run_sharded   ┘   streams rank-0     ├► run_rank ───┤                            ├─ LocalPlane
//!                    events, folds      │  one fault   │ DC-SBP                     │   (single node)
//!  run_tcp_rank ────────────────────────┘  decoration, └──────► dcsbp::dcsbp_driver └─ edist::DistPlane
//!    one OS process = one rank             guarded               (Alg. 3; its local     over Communicator ×
//!                                          ingest                solves and fine-tune   {ReplicatedData,
//!                                                                are solve_sbp)          ShardedData}
//! ```
//!
//! * **Source** ([`run::Source`]): a replicated [`sbp_graph::Graph`], or a
//!   shard directory each rank ingests its own file of
//!   ([`load_dist_graph`]). Either becomes a *data plane* — how the
//!   replicated blockmodel is (re)built and how peers' moves reach it —
//!   and everything above it is generic over the data plane, so sharded
//!   runs are bit-identical to replicated ones (see [`sharded`]).
//! * **Rank body** (`run::run_rank`): generic over
//!   [`sbp_mpi::Communicator`], so the thread simulator and a TCP process
//!   execute the identical collective schedule. It is the one place a
//!   [`FaultPlan`] decorates the communicator.
//! * **EDiSt** ([`mod@edist`]): `edist::DistPlane` implements
//!   [`sbp_core::plane::Plane`] once for any `(Communicator, data plane)`
//!   pair — the *work* (merge proposals, MCMC vertex sweeps) is
//!   partitioned by ownership while allgathered candidate and move lists
//!   keep every rank's blockmodel bit-identical — and
//!   [`sbp_core::sbp::golden_search`] runs on it. The search, the MCMC
//!   phase loop, cancellation, the checkpoint writer and the outcome
//!   assembly are therefore the single-node ones: exactness at any rank
//!   count holds by construction.
//! * **DC-SBP** ([`mod@dcsbp`]): divide-and-conquer — independent
//!   per-rank inference on *induced* subgraphs (the step that creates
//!   island vertices on sparse graphs), gather to the root, label-offset
//!   combination, root-side fine-tuning.
//! * **Fold**: the thread runner streams rank 0's progress events to the
//!   caller live, honours a broadcast-coordinated cancellation token, and
//!   folds the per-rank outcomes (makespan, degraded cascade, move-byte
//!   sums) into one [`sbp_core::RunOutcome`] with a [`ClusterReport`]. A
//!   TCP process can only see itself and attaches a one-rank view.
//!
//! The entrypoints are [`DistSolver`], the one [`Solver`](sbp_core::Solver)
//! for both algorithms over a replicated graph, and [`run_sharded`]
//! (both usually reached through the `edist` facade's `Partitioner`
//! builder), and [`run_tcp_rank`] for one rank of a real cluster.
//!
//! ## Coordinated unwind
//!
//! Failures never panic the cluster or deadlock a collective. Every
//! collective of the plane and of the DC-SBP driver runs under
//! `error::guard_collectives`; a rank that fails — shard ingest error,
//! malformed peer payload, an injected [`fault::RankDeath`], a dead TCP
//! peer — poisons its peers through `error::abort_schedule` (waking
//! anyone blocked in a collective) and returns its best-so-far partition
//! with [`sbp_core::RunOutcome::degraded`] set. Peers observe the poison
//! as a typed [`DistError::PeerAborted`] and unwind the same way, so all
//! ranks return. The detecting rank reports the specific
//! [`sbp_core::DegradedReason`]; cascade observers report `RankFailure`.
//! [`fault::FaultComm`] injects deterministic, seed-keyed faults (kill /
//! mangle / delay, counted in collective sync points) to exercise the
//! protocol in tests, and the search's rank-0 `.sbpc` snapshots
//! ([`sbp_core::checkpoint`]) give bit-identical resume after a crash —
//! at any rank count, monolithic or sharded, since every rank holds the
//! identical bracket and trajectory.

#![forbid(unsafe_code)]

pub mod dcsbp;
pub mod distgraph;
pub mod edist;
pub mod error;
pub mod exchange;
pub mod fault;
pub mod ownership;
pub mod run;
pub mod sharded;
pub mod solver;
pub mod tcprun;

pub use distgraph::{load_dist_graph, DistGraph, ShardIngestReport};
pub use error::{DecodeError, DistError};
pub use exchange::ExchangeStats;
pub use fault::{Fault, FaultComm, FaultPlan, RankDeath};
pub use ownership::{balanced_ownership, modulo_ownership, owned_blocks, OwnershipStrategy};
pub use run::{run_sharded, ShardedBackend};
pub use sbp_mpi::ClusterReport;
pub use solver::DistSolver;
pub use tcprun::{run_tcp_rank, TcpRun, TcpSource};

/// SplitMix64-style mixing used to derive per-rank / per-phase RNG streams
/// from the master seed, so simulated rank counts never share a stream.
pub(crate) fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_seeds_differ_per_salt() {
        let a = mix_seed(42, 0);
        let b = mix_seed(42, 1);
        let c = mix_seed(42, 2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }
}
