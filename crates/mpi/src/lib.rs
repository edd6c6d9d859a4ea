//! # sbp-mpi — the distributed-computing substrate
//!
//! The paper evaluates EDiSt with MPI on a 64-node InfiniBand cluster. This
//! crate substitutes that environment with an **in-process cluster
//! simulator**:
//!
//! * every MPI rank is a real OS thread executing the actual distributed
//!   algorithm; ranks interact *only* through the [`Communicator`] trait,
//!   whose collectives have `MPI_Allgatherv`/`MPI_Gatherv`/`MPI_Bcast`
//!   semantics — so the algorithms are genuinely distributed programs;
//! * runtimes are reported through **virtual clocks**: between collectives
//!   each rank accumulates its measured *thread CPU time* (correct even
//!   when 64 rank threads share one physical core), and at each collective
//!   all participating clocks synchronize to the maximum plus a LogGP-style
//!   communication cost `α·⌈log₂ n⌉ + β·bytes` from a configurable
//!   [`CostModel`]. The resulting BSP makespan is the "runtime" reported by
//!   the benchmark harness.
//!
//! [`SelfComm`] is the trivial single-rank communicator (shared-memory
//! baseline); [`ThreadCluster`] spawns `n` rank threads and returns their
//! results plus the makespan and communication statistics.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod comm;
pub mod cost;
pub mod cputime;
pub mod report;
pub mod tcp;
pub mod thread;
pub mod wire;

pub use comm::{CommStats, Communicator, SelfComm};
pub use cost::CostModel;
pub use cputime::thread_cpu_time;
pub use report::ClusterReport;
pub use tcp::{TcpComm, TcpConfig, TcpError};
pub use thread::{ClusterOutcome, PeerAborted, RankOutcome, ThreadCluster};
pub use wire::Wire;
