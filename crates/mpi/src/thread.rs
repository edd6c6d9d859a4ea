//! The in-process thread cluster: rank threads + channel collectives +
//! virtual clocks.

use crate::comm::{CommStats, Communicator};
use crate::cost::CostModel;
use crate::cputime::thread_cpu_time;
use crate::wire::Wire;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};

enum Envelope {
    Data {
        from: usize,
        t: f64,
        bytes: usize,
        payload: Box<dyn Any + Send>,
    },
    /// A peer rank abandoned the collective schedule (panic or typed
    /// abort); unwind this rank too instead of deadlocking.
    Poison { from: usize },
}

/// Panic payload raised when a collective observes a peer's poison
/// notice. Fault-aware drivers `catch_unwind` around their collective
/// regions and downcast to this type to convert peer death into a typed
/// error (returning best-so-far instead of crashing); payloads of any
/// other type are genuine bugs and must be re-raised via
/// `resume_unwind`.
#[derive(Clone, Copy)]
pub struct PeerAborted {
    /// The rank whose poison notice this rank observed. With cascading
    /// aborts this is the *nearest* aborted peer, not necessarily the
    /// originating failure.
    pub from: usize,
}

impl std::fmt::Debug for PeerAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer rank {} aborted the collective schedule", self.from)
    }
}

/// A buffered incoming message: (virtual clock, payload bytes, payload).
type Buffered = (f64, usize, Box<dyn Any + Send>);

/// Per-rank communicator handle for the thread cluster. Not `Sync`: each
/// rank thread owns exactly one.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    /// Out-of-order arrivals, queued per source rank.
    pending: RefCell<Vec<VecDeque<Buffered>>>,
    cost: CostModel,
    vclock: Cell<f64>,
    last_cpu: Cell<f64>,
    stats: Cell<CommStats>,
}

impl ThreadComm {
    fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Envelope>>,
        receiver: Receiver<Envelope>,
        cost: CostModel,
    ) -> Self {
        ThreadComm {
            rank,
            size,
            senders,
            receiver,
            pending: RefCell::new((0..size).map(|_| VecDeque::new()).collect()),
            cost,
            vclock: Cell::new(0.0),
            last_cpu: Cell::new(thread_cpu_time()),
            stats: Cell::new(CommStats::default()),
        }
    }

    /// Accrues CPU time since the last collective into the virtual clock
    /// and returns the updated reading.
    fn accrue_busy(&self) -> f64 {
        let now = thread_cpu_time();
        let busy = (now - self.last_cpu.get()).max(0.0);
        let t = self.vclock.get() + busy;
        self.vclock.set(t);
        t
    }

    /// Marks the end of a collective: local (de)serialization work inside
    /// the collective is replaced by the modeled cost, not double-counted.
    fn finish_collective(&self) {
        self.last_cpu.set(thread_cpu_time());
    }

    fn send_to(&self, dest: usize, t: f64, bytes: usize, payload: Box<dyn Any + Send>) {
        // A closed peer channel means that rank already abandoned the
        // schedule (coordinated unwind) and its thread returned; its
        // poison notice is necessarily in our queue already, so the next
        // recv unwinds this rank. Dropping the send instead of panicking
        // keeps the abort race-free.
        let _ = self.senders[dest].send(Envelope::Data {
            from: self.rank,
            t,
            bytes,
            payload,
        });
    }

    /// Receives the next matched envelope from rank `from`, buffering
    /// out-of-order arrivals from other ranks.
    fn recv_from(&self, from: usize) -> Buffered {
        if let Some(hit) = self.pending.borrow_mut()[from].pop_front() {
            return hit;
        }
        loop {
            match self
                .receiver
                .recv()
                .expect("cluster channel closed while awaiting collective")
            {
                Envelope::Data {
                    from: f,
                    t,
                    bytes,
                    payload,
                } => {
                    if f == from {
                        return (t, bytes, payload);
                    }
                    self.pending.borrow_mut()[f].push_back((t, bytes, payload));
                }
                Envelope::Poison { from } => {
                    // `resume_unwind` skips the panic hook: the poison
                    // is part of the coordinated-unwind protocol and is
                    // always caught at the rank boundary, so a backtrace
                    // would be pure noise.
                    std::panic::resume_unwind(Box::new(PeerAborted { from }));
                }
            }
        }
    }

    fn add_stats(&self, sent: usize, received: usize) {
        let mut s = self.stats.get();
        s.collectives += 1;
        s.bytes_sent += sent as u64;
        s.bytes_received += received as u64;
        self.stats.set(s);
    }

    fn poison_peers(&self) {
        for (i, s) in self.senders.iter().enumerate() {
            if i != self.rank {
                let _ = s.send(Envelope::Poison { from: self.rank });
            }
        }
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn allgatherv<T: Clone + Send + Wire + 'static>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        // Implemented as gather-to-0 + broadcast: identical semantics and
        // modeled cost to a mesh exchange, but O(n) channel messages
        // instead of O(n²) — the mesh's thread wake-ups dominate wall time
        // when many rank threads share few cores. The *virtual* cost stays
        // the LogGP collective model either way.
        let my_t = self.accrue_busy();
        let my_bytes = local.len() * std::mem::size_of::<T>();
        if self.size == 1 {
            self.vclock.set(my_t);
            self.add_stats(0, 0);
            self.finish_collective();
            return vec![local];
        }
        if self.rank != 0 {
            self.send_to(0, my_t, my_bytes, Box::new(local));
            let (t_sync, total_bytes, payload) = self.recv_from(0);
            self.vclock.set(t_sync);
            self.add_stats(my_bytes, total_bytes - my_bytes);
            self.finish_collective();
            return *payload
                .downcast::<Vec<Vec<T>>>()
                .expect("collective type mismatch across ranks");
        }
        // Root: assemble, synchronize clocks, redistribute.
        let mut result: Vec<Option<Vec<T>>> = (0..self.size).map(|_| None).collect();
        let mut t_max = my_t;
        let mut total_bytes = my_bytes;
        result[0] = Some(local);
        #[allow(clippy::needless_range_loop)] // `from` is a rank id, not just an index
        for from in 1..self.size {
            let (t, bytes, payload) = self.recv_from(from);
            t_max = t_max.max(t);
            total_bytes += bytes;
            result[from] = Some(
                *payload
                    .downcast::<Vec<T>>()
                    .expect("collective type mismatch across ranks"),
            );
        }
        let assembled: Vec<Vec<T>> = result
            .into_iter()
            .map(|r| r.expect("every rank slot filled"))
            .collect();
        let t_sync = t_max + self.cost.collective(self.size, total_bytes);
        for dest in 1..self.size {
            self.send_to(dest, t_sync, total_bytes, Box::new(assembled.clone()));
        }
        self.vclock.set(t_sync);
        self.add_stats(my_bytes, total_bytes - my_bytes);
        self.finish_collective();
        assembled
    }

    fn alltoallv<T: Clone + Send + Wire + 'static>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            per_dest.len(),
            self.size,
            "alltoallv needs one payload per rank"
        );
        let my_t = self.accrue_busy();
        let elem = std::mem::size_of::<T>();
        if self.size == 1 {
            self.vclock.set(my_t);
            self.add_stats(0, 0);
            self.finish_collective();
            return per_dest;
        }
        // True point-to-point mesh: rank r's bucket for rank d travels
        // directly, so — unlike the allgather — no rank ever observes
        // traffic that is not addressed to it.
        let mut result: Vec<Option<Vec<T>>> = (0..self.size).map(|_| None).collect();
        let mut sent_bytes = 0usize;
        for (dest, payload) in per_dest.into_iter().enumerate() {
            if dest == self.rank {
                result[dest] = Some(payload);
            } else {
                let bytes = payload.len() * elem;
                sent_bytes += bytes;
                self.send_to(dest, my_t, bytes, Box::new(payload));
            }
        }
        let mut t_max = my_t;
        let mut received_bytes = 0usize;
        #[allow(clippy::needless_range_loop)] // `from` is a rank id, not just an index
        for from in 0..self.size {
            if from == self.rank {
                continue;
            }
            let (t, bytes, payload) = self.recv_from(from);
            t_max = t_max.max(t);
            received_bytes += bytes;
            result[from] = Some(
                *payload
                    .downcast::<Vec<T>>()
                    .expect("collective type mismatch across ranks"),
            );
        }
        self.vclock
            .set(t_max + self.cost.collective(self.size, sent_bytes + received_bytes));
        self.add_stats(sent_bytes, received_bytes);
        self.finish_collective();
        result
            .into_iter()
            .map(|r| r.expect("every rank slot filled"))
            .collect()
    }

    fn gatherv<T: Clone + Send + Wire + 'static>(
        &self,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        assert!(root < self.size, "gather root out of range");
        let my_t = self.accrue_busy();
        let my_bytes = local.len() * std::mem::size_of::<T>();
        if self.rank != root {
            self.send_to(root, my_t, my_bytes, Box::new(local));
            self.add_stats(my_bytes, 0);
            self.finish_collective();
            return None;
        }
        let mut result: Vec<Option<Vec<T>>> = (0..self.size).map(|_| None).collect();
        result[self.rank] = Some(local);
        let mut t_max = my_t;
        let mut total_bytes = my_bytes;
        let mut received = 0usize;
        #[allow(clippy::needless_range_loop)] // `from` is a rank id, not just an index
        for from in 0..self.size {
            if from == root {
                continue;
            }
            let (t, bytes, payload) = self.recv_from(from);
            t_max = t_max.max(t);
            total_bytes += bytes;
            received += bytes;
            result[from] = Some(
                *payload
                    .downcast::<Vec<T>>()
                    .expect("collective type mismatch across ranks"),
            );
        }
        self.vclock
            .set(t_max + self.cost.collective(self.size, total_bytes));
        self.add_stats(0, received);
        self.finish_collective();
        Some(
            result
                .into_iter()
                .map(|r| r.expect("every rank slot filled"))
                .collect(),
        )
    }

    fn broadcast<T: Clone + Send + Wire + 'static>(&self, root: usize, data: Option<T>) -> T {
        assert!(root < self.size, "broadcast root out of range");
        let my_t = self.accrue_busy();
        if self.rank == root {
            let data = data.expect("broadcast root must supply data");
            let bytes = std::mem::size_of::<T>();
            for dest in 0..self.size {
                if dest != root {
                    self.send_to(dest, my_t, bytes, Box::new(data.clone()));
                }
            }
            self.vclock
                .set(my_t + self.cost.collective(self.size, bytes));
            self.add_stats(bytes * (self.size - 1), 0);
            self.finish_collective();
            data
        } else {
            let (t, bytes, payload) = self.recv_from(root);
            self.vclock
                .set(my_t.max(t) + self.cost.collective(self.size, bytes));
            self.add_stats(0, bytes);
            self.finish_collective();
            *payload
                .downcast::<T>()
                .expect("collective type mismatch across ranks")
        }
    }

    fn virtual_time(&self) -> f64 {
        self.vclock.get() + (thread_cpu_time() - self.last_cpu.get()).max(0.0)
    }

    fn charge(&self, seconds: f64) {
        self.vclock.set(self.vclock.get() + seconds);
    }

    fn stats(&self) -> CommStats {
        self.stats.get()
    }

    fn poison(&self) {
        self.poison_peers();
    }
}

/// What one rank produced.
#[derive(Clone, Debug)]
pub struct RankOutcome<R> {
    /// The closure's return value.
    pub result: R,
    /// Final virtual-clock reading (BSP time of this rank).
    pub virtual_time: f64,
    /// Communication statistics.
    pub stats: CommStats,
}

/// Outcome of a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterOutcome<R> {
    /// Per-rank outcomes, indexed by rank.
    pub ranks: Vec<RankOutcome<R>>,
    /// Real elapsed wall time of the whole cluster run (s) — the
    /// physical twin of the virtual-clock [`ClusterOutcome::makespan`].
    /// On the simulator the two differ wildly (rank threads share
    /// cores); on a real transport they converge.
    pub wall_seconds: f64,
}

impl<R> ClusterOutcome<R> {
    /// The BSP makespan: the maximum final virtual clock — the simulated
    /// wall time of the distributed run.
    pub fn makespan(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.virtual_time)
            .fold(0.0, f64::max)
    }

    /// Total bytes moved across the simulated interconnect.
    pub fn total_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.stats.bytes_sent).sum()
    }

    /// Rank 0's result (where gather-style algorithms place the answer).
    pub fn root(&self) -> &R {
        &self.ranks[0].result
    }
}

/// Spawns `n` rank threads running `f` and collects their outcomes.
pub struct ThreadCluster;

impl ThreadCluster {
    /// Runs `f(comm)` on `n` rank threads connected by an all-to-all
    /// channel mesh with the given [`CostModel`]. Panics in any rank are
    /// propagated (peers are poisoned first, so nothing deadlocks).
    pub fn run<R, F>(n: usize, cost: CostModel, f: F) -> ClusterOutcome<R>
    where
        R: Send,
        F: Fn(&ThreadComm) -> R + Send + Sync,
    {
        assert!(n > 0, "need at least one rank");
        let started = std::time::Instant::now();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        let f = &f;
        let outcomes: Vec<RankOutcome<R>> = std::thread::scope(|scope| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, receiver)| {
                    let senders = senders.clone();
                    scope.spawn(move || {
                        let comm = ThreadComm::new(rank, n, senders, receiver, cost);
                        let result = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                        match result {
                            Ok(result) => {
                                // Tail compute after the last collective.
                                let vt = comm.virtual_time();
                                RankOutcome {
                                    result,
                                    virtual_time: vt,
                                    stats: comm.stats(),
                                }
                            }
                            Err(e) => {
                                comm.poison_peers();
                                resume_unwind(e);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(o) => o,
                    Err(e) => resume_unwind(e),
                })
                .collect()
        });
        ClusterOutcome {
            ranks: outcomes,
            wall_seconds: started.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allgather_returns_rank_ordered_contributions() {
        let out = ThreadCluster::run(4, CostModel::zero(), |comm| {
            let local = vec![comm.rank() as u32 * 10, comm.rank() as u32 * 10 + 1];
            comm.allgatherv(local)
        });
        for rank in 0..4 {
            let gathered = &out.ranks[rank].result;
            assert_eq!(gathered.len(), 4);
            for (src, part) in gathered.iter().enumerate() {
                assert_eq!(part, &vec![src as u32 * 10, src as u32 * 10 + 1]);
            }
        }
    }

    #[test]
    fn allgather_identical_across_ranks() {
        let out = ThreadCluster::run(8, CostModel::zero(), |comm| {
            comm.allgatherv(vec![comm.rank() * 7])
        });
        let first = &out.ranks[0].result;
        for r in &out.ranks {
            assert_eq!(&r.result, first);
        }
    }

    #[test]
    fn alltoallv_routes_point_to_point() {
        let out = ThreadCluster::run(3, CostModel::zero(), |comm| {
            // Rank r sends [r*10 + d] to rank d.
            let per_dest: Vec<Vec<u32>> = (0..3)
                .map(|d| vec![comm.rank() as u32 * 10 + d as u32])
                .collect();
            comm.alltoallv(per_dest)
        });
        for (rank, r) in out.ranks.iter().enumerate() {
            let got = &r.result;
            assert_eq!(got.len(), 3);
            for (src, payload) in got.iter().enumerate() {
                assert_eq!(payload, &vec![src as u32 * 10 + rank as u32]);
            }
        }
    }

    #[test]
    fn alltoallv_counts_only_addressed_bytes() {
        // Rank 0 sends 100 u64s to rank 1 and nothing to rank 2; rank 2
        // must receive zero bytes — an allgather would have charged it.
        let out = ThreadCluster::run(3, CostModel::zero(), |comm| {
            let mut per_dest = vec![Vec::new(); 3];
            if comm.rank() == 0 {
                per_dest[1] = vec![0u64; 100];
            }
            comm.alltoallv(per_dest);
            comm.stats()
        });
        assert_eq!(out.ranks[0].result.bytes_sent, 800);
        assert_eq!(out.ranks[1].result.bytes_received, 800);
        assert_eq!(out.ranks[2].result.bytes_received, 0);
        assert_eq!(out.ranks[2].result.bytes_sent, 0);
    }

    #[test]
    fn alltoallv_with_empty_payloads_and_self_delivery() {
        let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
            let mut per_dest: Vec<Vec<u8>> = vec![Vec::new(); 2];
            per_dest[comm.rank()] = vec![comm.rank() as u8; 3]; // to self only
            comm.alltoallv(per_dest)
        });
        for (rank, r) in out.ranks.iter().enumerate() {
            assert_eq!(r.result[rank], vec![rank as u8; 3]);
            assert!(r.result[1 - rank].is_empty());
        }
    }

    #[test]
    fn gather_only_root_receives() {
        let out = ThreadCluster::run(3, CostModel::zero(), |comm| {
            comm.gatherv(1, vec![comm.rank() as u8])
        });
        assert!(out.ranks[0].result.is_none());
        assert!(out.ranks[2].result.is_none());
        let root = out.ranks[1].result.as_ref().expect("root has data");
        assert_eq!(root, &vec![vec![0u8], vec![1], vec![2]]);
    }

    #[test]
    fn broadcast_distributes_root_value() {
        let out = ThreadCluster::run(5, CostModel::zero(), |comm| {
            let data = (comm.rank() == 2).then_some(String::from("hello"));
            comm.broadcast(2, data)
        });
        for r in &out.ranks {
            assert_eq!(r.result, "hello");
        }
    }

    #[test]
    fn empty_payload_allgather() {
        let out = ThreadCluster::run(3, CostModel::zero(), |comm| {
            comm.allgatherv::<u64>(Vec::new())
        });
        for r in &out.ranks {
            assert_eq!(r.result, vec![Vec::<u64>::new(); 3]);
        }
    }

    #[test]
    fn multiple_collectives_in_sequence() {
        let out = ThreadCluster::run(4, CostModel::zero(), |comm| {
            let a = comm.allgatherv(vec![comm.rank()]);
            comm.broadcast(0, (comm.rank() == 0).then_some(7u8));
            comm.allgatherv(vec![a.len() * 100 + comm.rank()])
        });
        for r in &out.ranks {
            assert_eq!(r.result, vec![vec![400], vec![401], vec![402], vec![403]]);
        }
    }

    #[test]
    fn single_rank_cluster_works() {
        let out = ThreadCluster::run(1, CostModel::hdr100(), |comm| {
            assert_eq!(comm.size(), 1);
            comm.allgatherv(vec![1, 2, 3])
        });
        assert_eq!(out.ranks[0].result, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn virtual_clock_includes_comm_cost() {
        // With an enormous per-collective latency the makespan must be
        // dominated by the modeled cost even though real time is tiny.
        let big = CostModel {
            latency: 10.0,
            per_byte: 0.0,
        };
        let out = ThreadCluster::run(2, big, |comm| {
            comm.allgatherv::<u8>(vec![]);
            comm.allgatherv::<u8>(vec![]);
        });
        // Two empty allgathers × ceil(log2 2)=1 stage × 10s = 20s of
        // virtual time.
        assert!(out.makespan() >= 20.0, "makespan {}", out.makespan());
        assert!(out.makespan() < 25.0, "makespan {}", out.makespan());
    }

    #[test]
    fn virtual_clock_tracks_slowest_rank() {
        let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                // Busy-spin some CPU.
                let mut x = 0u64;
                for i in 0..20_000_000u64 {
                    x = x.wrapping_add(i * i);
                }
                std::hint::black_box(x);
            }
            // An empty allgather synchronizes the virtual clocks.
            comm.allgatherv::<u8>(vec![]);
            comm.virtual_time()
        });
        // After it both clocks equal the slow rank's time.
        let (t0, t1) = (out.ranks[0].result, out.ranks[1].result);
        assert!(
            (t0 - t1).abs() < 0.05 * t0.max(t1).max(1e-3),
            "clocks diverged: {t0} vs {t1}"
        );
    }

    #[test]
    fn charge_moves_the_virtual_clock_by_its_amount() {
        let out = ThreadCluster::run(1, CostModel::zero(), |comm| {
            let t0 = comm.virtual_time();
            comm.charge(5.0);
            let t1 = comm.virtual_time();
            comm.charge(-2.0);
            (t1 - t0, comm.virtual_time() - t1)
        });
        let (up, down) = out.ranks[0].result;
        // Plus the few microseconds of CPU between the reads.
        assert!((5.0..5.1).contains(&up), "charge(5.0) moved the clock {up}");
        assert!((-2.0..-1.9).contains(&down), "charge(-2.0) moved it {down}");
    }

    #[test]
    fn stats_count_collectives_and_bytes() {
        let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
            comm.allgatherv(vec![0u64; 100]);
            comm.stats()
        });
        for r in &out.ranks {
            assert_eq!(r.result.collectives, 1);
            assert_eq!(r.result.bytes_sent, 800);
            assert_eq!(r.result.bytes_received, 800);
        }
    }

    #[test]
    fn panicking_rank_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            ThreadCluster::run(3, CostModel::zero(), |comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                comm.allgatherv::<u8>(vec![]);
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn out_of_order_arrival_is_buffered() {
        // Rank 1 races ahead sending two collectives' payloads before rank
        // 0 finishes its compute; rank 0 must match them in order.
        let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
            if comm.rank() == 0 {
                let mut x = 0u64;
                for i in 0..5_000_000u64 {
                    x = x.wrapping_add(i);
                }
                std::hint::black_box(x);
            }
            let a = comm.allgatherv(vec![comm.rank() as u32 + 10]);
            let b = comm.allgatherv(vec![comm.rank() as u32 + 20]);
            (a, b)
        });
        for r in &out.ranks {
            assert_eq!(r.result.0, vec![vec![10], vec![11]]);
            assert_eq!(r.result.1, vec![vec![20], vec![21]]);
        }
    }
}
