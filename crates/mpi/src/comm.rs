//! The communicator abstraction.

use crate::wire::Wire;

/// Communication statistics accumulated by a rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Collectives this rank participated in.
    pub collectives: u64,
    /// Payload bytes this rank contributed.
    pub bytes_sent: u64,
    /// Payload bytes this rank received from peers.
    pub bytes_received: u64,
}

/// MPI-style communicator. The distributed algorithms in `sbp-dist` are
/// written against this trait only, so they run identically on the
/// in-process thread cluster, real TCP processes, or (in principle) real
/// MPI bindings.
///
/// All collectives are *matched by call order* across ranks, exactly like
/// MPI: every rank must invoke the same sequence of collectives.
pub trait Communicator {
    /// This rank's id, `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// `MPI_Allgatherv`: every rank contributes `local`; every rank
    /// receives all contributions, indexed by rank.
    fn allgatherv<T: Clone + Send + Wire + 'static>(&self, local: Vec<T>) -> Vec<Vec<T>>;

    /// `MPI_Alltoallv`: rank `r` sends `per_dest[d]` to rank `d` and
    /// receives one vector from every rank, indexed by source. Unlike
    /// [`Communicator::allgatherv`] the payloads are point-to-point — the
    /// sharded-ingest cut-edge exchange depends on this, since routing cut
    /// edges through an allgather would hand every rank the whole graph.
    ///
    /// # Panics
    /// Panics if `per_dest.len() != self.size()`.
    fn alltoallv<T: Clone + Send + Wire + 'static>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>>;

    /// `MPI_Gatherv`: contributions travel to `root`, which receives
    /// `Some(all)`; other ranks receive `None`.
    fn gatherv<T: Clone + Send + Wire + 'static>(
        &self,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>>;

    /// `MPI_Bcast`: `root` supplies `Some(data)`; every rank returns the
    /// root's value. Non-root ranks pass `None`.
    fn broadcast<T: Clone + Send + Wire + 'static>(&self, root: usize, data: Option<T>) -> T;

    /// Current virtual-clock reading in seconds: accumulated thread CPU
    /// time plus modeled communication costs (see crate docs).
    fn virtual_time(&self) -> f64;

    /// Adds `seconds` of compute done for this rank on another thread —
    /// the pool-worker CPU of the probes a golden search ran ahead and
    /// committed (`sbp_core::sbp`, "Overlapped probes") — to a virtual
    /// clock that reads this thread's CPU only; a negative amount takes
    /// off CPU this thread spent on a probe the search dropped. A wall
    /// clock already contains the one and cannot shed the other, hence
    /// the no-op default.
    fn charge(&self, _seconds: f64) {}

    /// Communication statistics so far.
    fn stats(&self) -> CommStats;

    /// Notifies every peer that this rank is abandoning the collective
    /// schedule (coordinated-unwind protocol). Peers blocked in — or later
    /// entering — a collective observe the notice as a typed
    /// [`PeerAborted`](crate::thread::PeerAborted) unwind instead of
    /// deadlocking. A rank MUST call this before returning early from a
    /// matched-collective region, and MUST NOT issue further collectives
    /// afterwards.
    fn poison(&self);
}
