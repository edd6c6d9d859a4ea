//! The communicator abstraction and the trivial single-rank implementation.

use crate::wire::Wire;
use std::cell::Cell;

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
/// written against this trait only, so they run identically on the trivial
/// single-rank communicator, the in-process thread cluster, or (in
/// principle) real MPI bindings.
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
    /// afterwards. The default is a no-op, which is correct for
    /// single-rank communicators (there are no peers to wake).
    fn poison(&self) {}
}

/// The single-rank communicator: all collectives are identities and the
/// virtual clock is plain thread CPU time. This is the "shared memory
/// baseline" configuration of the paper's figures.
pub struct SelfComm {
    /// Thread CPU at creation, less what [`Communicator::charge`] added.
    start_cpu: Cell<f64>,
    stats: Cell<CommStats>,
}

impl SelfComm {
    /// Creates a single-rank communicator; the virtual clock starts now.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        SelfComm {
            start_cpu: Cell::new(crate::cputime::thread_cpu_time()),
            stats: Cell::new(CommStats::default()),
        }
    }

    fn bump(&self) {
        let mut s = self.stats.get();
        s.collectives += 1;
        self.stats.set(s);
    }
}

impl Communicator for SelfComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn allgatherv<T: Clone + Send + Wire + 'static>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        self.bump();
        vec![local]
    }

    fn alltoallv<T: Clone + Send + Wire + 'static>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(per_dest.len(), 1, "single-rank communicator has one dest");
        self.bump();
        per_dest
    }

    fn gatherv<T: Clone + Send + Wire + 'static>(
        &self,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert_eq!(root, 0, "single-rank communicator only has rank 0");
        self.bump();
        Some(vec![local])
    }

    fn broadcast<T: Clone + Send + Wire + 'static>(&self, root: usize, data: Option<T>) -> T {
        assert_eq!(root, 0, "single-rank communicator only has rank 0");
        self.bump();
        data.expect("broadcast root must supply data")
    }

    fn virtual_time(&self) -> f64 {
        crate::cputime::thread_cpu_time() - self.start_cpu.get()
    }

    fn charge(&self, seconds: f64) {
        self.start_cpu.set(self.start_cpu.get() - seconds);
    }

    fn stats(&self) -> CommStats {
        self.stats.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selfcomm_identity_collectives() {
        let c = SelfComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        assert_eq!(c.allgatherv(vec![1, 2, 3]), vec![vec![1, 2, 3]]);
        assert_eq!(c.alltoallv(vec![vec![7u8]]), vec![vec![7u8]]);
        assert_eq!(c.gatherv(0, vec![9]), Some(vec![vec![9]]));
        assert_eq!(c.broadcast(0, Some(42)), 42);
        assert_eq!(c.stats().collectives, 4);
    }

    #[test]
    fn selfcomm_clock_advances_with_work() {
        let c = SelfComm::new();
        let t0 = c.virtual_time();
        let mut x = 0u64;
        for i in 0..3_000_000u64 {
            x = x.wrapping_add(i ^ (i << 3));
        }
        std::hint::black_box(x);
        assert!(c.virtual_time() > t0);
    }

    #[test]
    fn selfcomm_charge_moves_the_clock_by_its_amount() {
        let c = SelfComm::new();
        let t0 = c.virtual_time();
        c.charge(5.0);
        let t1 = c.virtual_time();
        c.charge(-2.0);
        let t2 = c.virtual_time();
        // Plus the few microseconds of CPU between the reads.
        assert!(
            (5.0..5.1).contains(&(t1 - t0)),
            "charge(5.0) moved {}",
            t1 - t0
        );
        assert!(
            (-2.0..-1.9).contains(&(t2 - t1)),
            "charge(-2.0) moved {}",
            t2 - t1
        );
    }

    #[test]
    #[should_panic(expected = "rank 0")]
    fn selfcomm_rejects_nonzero_root() {
        let c = SelfComm::new();
        c.gatherv::<u8>(1, vec![]);
    }
}
