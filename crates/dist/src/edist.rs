//! EDiSt — exact distributed stochastic block partitioning (paper
//! Algs. 4–5).
//!
//! Every rank holds the full graph and a replica of the blockmodel; only
//! the *work* is partitioned. Each iteration of the golden-ratio search
//! runs:
//!
//! 1. **Distributed merge phase** (Alg. 4): rank `r` evaluates merge
//!    proposals for the blocks it owns (`b mod n == r`), the candidate
//!    lists are allgathered, and every rank applies the identical best
//!    merge set (the candidate order is normalized by `apply_merges`'
//!    total-order sort, so replicas stay bit-identical).
//! 2. **Distributed MCMC phase** (Alg. 5): rank `r` sweeps the vertices it
//!    owns against its replica, accepted moves are allgathered every
//!    `sync_period` sweeps, and each rank applies its peers' moves. Since
//!    a vertex is moved only by its owner, the post-sync assignment — and
//!    therefore the blockmodel, a pure function of the assignment — is
//!    identical on every rank.
//!
//! **Rank-count-invariant randomness.** Every RNG stream is derived from
//! the master seed and a *vertex or block key* (via
//! [`sbp_core::sbp::merge_phase_seed`] / [`sbp_core::sbp::mcmc_phase_seed`]
//! and the `(seed, sweep, vertex)` keying inside the sweeps) — never from
//! the rank id. A proposal therefore draws the same randomness no matter
//! which rank evaluates it, so a single-rank EDiSt run is bit-identical
//! to sequential SBP, and under the frozen-state `Batch` strategy the
//! whole trajectory is bit-identical across rank counts (see the
//! backend-equivalence tests in the facade crate).
//!
//! Convergence and cancellation decisions use values broadcast from rank
//! 0. Since canonical sparse-line iteration (`sbp_core::line`), replicas
//! holding the same integer state compute bit-identical floating-point
//! sums in both storage regimes, so the broadcast is no longer papering
//! over layout-dependent last-bit drift — it remains because a
//! cancellation racing a collective must never make ranks disagree on
//! control flow (that would mismatch the collective schedule), and as
//! defense in depth for the DL.

use crate::checkpoint::maybe_checkpoint;
use crate::error::{abort_empty, abort_schedule, guard_collectives, DistError};
use crate::exchange::{decode_moves, encode_moves, ExchangeStats};
use crate::ownership::{owned_blocks, OwnershipStrategy};
use crate::run::EventRelay;
use sbp_core::checkpoint::CheckpointState;
use sbp_core::golden::{BracketEntry, GoldenBracket, NextStep};
use sbp_core::hybrid::{batch_sweep, hybrid_sweep};
use sbp_core::mcmc::{keyed_mh_sweep, AcceptedMove, ConvergenceCheck, SweepOutcome};
use sbp_core::merge::{apply_merges, propose_merges, MergeCandidate};
use sbp_core::run::{CancelToken, CheckpointSpec, DegradedReason, ProgressEvent, RunOutcome};
use sbp_core::sbp::{mcmc_phase_seed, merge_phase_seed};
use sbp_core::{Blockmodel, IterationStat, McmcStrategy, SbpConfig};
use sbp_graph::{Graph, Vertex};
use sbp_mpi::Communicator;

/// EDiSt configuration — what [`crate::run`] lowers the shared
/// [`sbp_core::RunConfig`] to.
#[derive(Clone, Debug)]
pub(crate) struct EdistConfig {
    /// Hyper-parameters of the underlying SBP search.
    pub sbp: SbpConfig,
    /// Sweeps between move exchanges (1 = the paper's every-sweep
    /// allgather; larger values trade staleness for fewer collectives).
    pub sync_period: usize,
    /// Write an `.sbpc` snapshot (rank 0 only) at matching golden-loop
    /// boundaries.
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from a previously-loaded snapshot instead of the identity
    /// partition. Must already be validated against this run's graph,
    /// seed, and strategy (the API layer does this).
    pub resume: Option<CheckpointState>,
}

/// Broadcasts rank 0's description length so every replica records the
/// bit-identical value (see module docs).
pub(crate) fn shared_dl<C: Communicator>(comm: &C, bm: &Blockmodel) -> f64 {
    comm.broadcast(0, (comm.rank() == 0).then(|| bm.description_length()))
}

/// Broadcasts rank 0's view of the cancellation token so every rank
/// takes the same branch at the same collective.
pub(crate) fn shared_cancelled<C: Communicator>(comm: &C, cancel: &CancelToken) -> bool {
    comm.broadcast(0, (comm.rank() == 0).then(|| cancel.is_cancelled()))
}

/// The data plane the distributed drivers run against.
///
/// EDiSt's *control flow* — golden search, distributed merge phase, sweep
/// and sync schedule, convergence rule, broadcast-coordinated
/// cancellation, event emission — is identical whether the graph is fully
/// replicated (this module) or sharded per rank
/// ([`crate::sharded`]); only how the replicated blockmodel is (re)built
/// and how peers' moves reach the replica differ. Keeping the loop in one
/// place means a change to the collective schedule cannot desynchronize
/// one driver but not the other. [`crate::dcsbp`]'s driver runs over the
/// same planes for the same reason.
pub(crate) trait EdistData {
    /// Global vertex count.
    fn num_vertices(&self) -> usize;
    /// Global total edge weight (the checkpoint fingerprint — must match
    /// what a monolithic view of the graph would report).
    fn total_edge_weight(&self) -> i64;
    /// Graph used for owned-vertex sweeps and own-move application. The
    /// sharded plane's graph is complete only for owned vertices — the
    /// sweeps never walk further.
    fn sweep_graph(&self) -> &Graph;
    /// Vertices this rank sweeps.
    fn my_vertices(&self) -> &[Vertex];
    /// The whole graph, when this rank holds it (DC-SBP's root-side
    /// fine-tuning needs it; the sharded plane has none to give).
    fn whole_graph(&self) -> Option<&Graph>;
    /// The starting blockmodel (compacted identity partition); identical
    /// on every rank.
    fn start_blockmodel<C: Communicator>(&self, comm: &C) -> Result<Blockmodel, DistError>;
    /// The replicated blockmodel implied by `assignment`; identical on
    /// every rank (a collective on the sharded plane, which can fail on
    /// a corrupted cell payload).
    fn build_blockmodel<C: Communicator>(
        &self,
        comm: &C,
        assignment: Vec<u32>,
        num_blocks: usize,
    ) -> Result<Blockmodel, DistError>;
    /// Executes one sync point: ships this rank's pending moves (plus
    /// whatever else the plane needs — the sharded plane piggybacks its
    /// cell-delta and cut-arc sections onto the same buffer, so every
    /// sync costs **one** allgather on either plane), applies the
    /// gathered peer moves to the replica, and returns the total move
    /// count across ranks. `prev` holds the globally-agreed assignment
    /// at the previous sync and must be advanced (the replicated plane
    /// can ignore it). `xstats` records the move-section bytes. A
    /// malformed peer payload surfaces as a [`DistError`] — the driver
    /// aborts the schedule coordinately rather than panicking.
    fn exchange_moves<C: Communicator>(
        &self,
        comm: &C,
        bm: &mut Blockmodel,
        prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
        xstats: &mut ExchangeStats,
    ) -> Result<usize, DistError>;
}

/// The fully-replicated data plane: every rank holds the whole graph
/// (the paper's EDiSt deployment).
pub(crate) struct ReplicatedData<'a> {
    graph: &'a Graph,
    mine: Vec<Vertex>,
}

impl<'a> ReplicatedData<'a> {
    /// This rank's plane over `graph`, sweeping its share under `ownership`.
    pub(crate) fn new<C: Communicator>(
        graph: &'a Graph,
        ownership: OwnershipStrategy,
        comm: &C,
    ) -> Self {
        let mine = ownership
            .partition(graph, comm.size())
            .swap_remove(comm.rank());
        ReplicatedData { graph, mine }
    }
}

impl EdistData for ReplicatedData<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn total_edge_weight(&self) -> i64 {
        self.graph.total_edge_weight()
    }

    fn sweep_graph(&self) -> &Graph {
        self.graph
    }

    fn my_vertices(&self) -> &[Vertex] {
        &self.mine
    }

    fn whole_graph(&self) -> Option<&Graph> {
        Some(self.graph)
    }

    fn start_blockmodel<C: Communicator>(&self, _comm: &C) -> Result<Blockmodel, DistError> {
        // Identical starting point to the single-node engine: the
        // compacted identity partition.
        let n = self.graph.num_vertices();
        Ok(
            Blockmodel::from_assignment(self.graph, (0..n as u32).collect(), n)
                .compacted(self.graph),
        )
    }

    fn build_blockmodel<C: Communicator>(
        &self,
        _comm: &C,
        assignment: Vec<u32>,
        num_blocks: usize,
    ) -> Result<Blockmodel, DistError> {
        Ok(Blockmodel::from_assignment(
            self.graph, assignment, num_blocks,
        ))
    }

    fn exchange_moves<C: Communicator>(
        &self,
        comm: &C,
        bm: &mut Blockmodel,
        _prev: &mut Vec<u32>,
        pending: &[AcceptedMove],
        xstats: &mut ExchangeStats,
    ) -> Result<usize, DistError> {
        let payload = encode_moves(pending);
        xstats.record(pending.len(), payload.len());
        let gathered = comm
            .allgatherv(payload)
            .into_iter()
            .map(|bytes| decode_moves(&bytes))
            .collect::<Result<Vec<Vec<AcceptedMove>>, _>>()?;
        let mut moves = 0usize;
        for (from_rank, peer_moves) in gathered.into_iter().enumerate() {
            moves += peer_moves.len();
            if from_rank == comm.rank() {
                continue; // already applied during the sweep
            }
            for m in peer_moves {
                bm.move_vertex(self.graph, m.v, m.to);
            }
        }
        Ok(moves)
    }
}

/// What one guarded golden-loop iteration decided.
enum IterStep {
    /// The broadcast cancellation decision fired before the iteration.
    Cancelled,
    /// The bracket converged; `best` is the final answer.
    Finished(BracketEntry),
    /// A merge+MCMC iteration was recorded into the bracket.
    Recorded {
        /// The MCMC phase observed a broadcast cancellation mid-iteration.
        phase_cancelled: bool,
    },
}

/// The shared EDiSt control loop over any [`EdistData`] plane.
///
/// ## Coordinated unwind
///
/// Every collective region runs under [`guard_collectives`]: a local
/// failure (malformed peer payload, injected [`crate::fault::RankDeath`])
/// or an observed peer abort ([`sbp_mpi::PeerAborted`]) surfaces as a
/// [`DistError`] instead of a panic. The failing rank then poisons its
/// peers via [`abort_schedule`] — waking anyone blocked in a collective —
/// and returns its best-so-far bracket entry with
/// [`RunOutcome::degraded`] set. The rank that *detects* a failure
/// reports its specific [`DegradedReason`]; ranks that merely observe
/// the cascade report [`DegradedReason::RankFailure`].
///
/// ## Checkpoint / resume
///
/// With `cfg.checkpoint` set, rank 0 snapshots the bracket, trajectory
/// and next-iteration index after every `every`-th recorded iteration
/// (see [`crate::checkpoint`]). With `cfg.resume` set, the loop starts
/// from the snapshot instead of the identity partition; because all RNG
/// streams are keyed by `(seed, iteration, sweep, vertex)`, the resumed
/// trajectory is bit-identical to the uninterrupted one.
pub(crate) fn edist_driver<C: Communicator, D: EdistData>(
    comm: &C,
    data: &D,
    cfg: &EdistConfig,
    cancel: &CancelToken,
    relay: &EventRelay,
) -> (RunOutcome, ExchangeStats) {
    let mut xstats = ExchangeStats::default();
    if data.num_vertices() == 0 {
        return (RunOutcome::empty(), xstats);
    }
    let (rank, size) = (comm.rank(), comm.size());

    let init = guard_collectives(|| {
        if let Some(state) = &cfg.resume {
            // The snapshot was validated by the caller; every rank holds
            // the same one, so no collective is needed here.
            Ok((
                state.bracket(cfg.sbp.block_reduction_rate),
                state.iterations.clone(),
                state.next_iter as usize,
            ))
        } else {
            let start = data.start_blockmodel(comm)?;
            let dl = shared_dl(comm, &start);
            let mut bracket = GoldenBracket::new(cfg.sbp.block_reduction_rate);
            bracket.seed(BracketEntry {
                assignment: start.assignment().to_vec(),
                num_blocks: start.num_blocks(),
                dl,
            });
            Ok((bracket, Vec::new(), 0))
        }
    });
    let (mut bracket, mut iterations, first_iter) = match init {
        Ok(t) => t,
        Err(err) => return (abort_empty(comm, &err), xstats),
    };
    let mut cancelled = false;
    let mut degraded: Option<DegradedReason> = None;

    for iter_idx in first_iter..cfg.sbp.max_iterations {
        let step = guard_collectives(|| {
            if shared_cancelled(comm, cancel) {
                return Ok(IterStep::Cancelled);
            }
            match bracket.next() {
                NextStep::Done(best) => Ok(IterStep::Finished(best)),
                NextStep::Continue {
                    start,
                    blocks_to_merge,
                } => {
                    let from_blocks = start.num_blocks;
                    let bm = data.build_blockmodel(comm, start.assignment, start.num_blocks)?;

                    // ---- distributed merge phase (Alg. 4) ----
                    // Solver-layer metrics are recorded by rank 0 only:
                    // every rank walks the same replicated golden loop,
                    // so an ungated count would be multiplied by the
                    // rank count. Observe-only — no collective is added.
                    let merge_clock = (rank == 0).then(sbp_core::sbp::phase_clock).flatten();
                    let my_blocks = owned_blocks(bm.num_blocks(), rank, size);
                    let merge_seed = merge_phase_seed(cfg.sbp.seed, iter_idx);
                    let mine = propose_merges(
                        &bm,
                        &my_blocks,
                        cfg.sbp.merge_proposals_per_block,
                        merge_seed,
                    );
                    let candidates: Vec<MergeCandidate> =
                        comm.allgatherv(mine).into_iter().flatten().collect();
                    let (assignment, num_blocks) = apply_merges(&bm, candidates, blocks_to_merge);
                    let mut bm = data.build_blockmodel(comm, assignment, num_blocks)?;
                    sbp_core::sbp::record_merge_timing(merge_clock);
                    relay.emit(ProgressEvent::Merged {
                        iteration: iter_idx,
                        from_blocks,
                        num_blocks: bm.num_blocks(),
                    });

                    // ---- distributed MCMC phase (Alg. 5) ----
                    let threshold = if bracket.established() {
                        cfg.sbp.threshold_post
                    } else {
                        cfg.sbp.threshold_pre
                    };
                    let mcmc_clock = (rank == 0).then(sbp_core::sbp::phase_clock).flatten();
                    let phase = mcmc_phase_distributed(
                        comm,
                        data,
                        &mut bm,
                        cfg,
                        threshold,
                        iter_idx,
                        cancel,
                        relay,
                        &mut xstats,
                    )?;
                    sbp_core::sbp::record_mcmc_timing(mcmc_clock);
                    if rank == 0 {
                        sbp_core::sbp::record_iteration();
                        sbp_core::sbp::observe_block_sizes(&bm);
                    }

                    let entry = BracketEntry {
                        assignment: bm.assignment().to_vec(),
                        num_blocks: bm.num_blocks(),
                        dl: phase.dl,
                    };
                    let stat = IterationStat {
                        num_blocks: entry.num_blocks,
                        dl: entry.dl,
                        sweeps: phase.sweeps,
                        moves: phase.moves,
                    };
                    relay.emit(ProgressEvent::Iteration {
                        iteration: iter_idx,
                        stat: stat.clone(),
                    });
                    iterations.push(stat);
                    bracket.record(entry);
                    Ok(IterStep::Recorded {
                        phase_cancelled: phase.cancelled,
                    })
                }
            }
        });
        match step {
            Ok(IterStep::Cancelled) => {
                cancelled = true;
                relay.emit(ProgressEvent::Cancelled {
                    iteration: iter_idx,
                });
                break;
            }
            Ok(IterStep::Finished(best)) => {
                relay.emit(ProgressEvent::Finished {
                    num_blocks: best.num_blocks,
                    description_length: best.dl,
                });
                return (outcome_from(comm, best, iterations, false, None), xstats);
            }
            Ok(IterStep::Recorded { phase_cancelled }) => {
                if rank == 0 {
                    maybe_checkpoint(
                        cfg.checkpoint.as_ref(),
                        &cfg.sbp,
                        data.num_vertices() as u64,
                        data.total_edge_weight().max(0) as u64,
                        &bracket,
                        &iterations,
                        iter_idx + 1,
                    );
                }
                if phase_cancelled {
                    cancelled = true;
                    relay.emit(ProgressEvent::Cancelled {
                        iteration: iter_idx,
                    });
                    break;
                }
            }
            Err(err) => {
                degraded = Some(abort_schedule(comm, &err));
                break;
            }
        }
    }
    let best = bracket.best().expect("bracket was seeded").clone();
    if !cancelled && degraded.is_none() {
        relay.emit(ProgressEvent::Finished {
            num_blocks: best.num_blocks,
            description_length: best.dl,
        });
    }
    (
        outcome_from(comm, best, iterations, cancelled, degraded),
        xstats,
    )
}

fn outcome_from<C: Communicator>(
    comm: &C,
    best: BracketEntry,
    iterations: Vec<IterationStat>,
    cancelled: bool,
    degraded: Option<DegradedReason>,
) -> RunOutcome {
    RunOutcome {
        assignment: best.assignment,
        num_blocks: best.num_blocks,
        description_length: best.dl,
        iterations,
        cancelled,
        degraded,
        virtual_seconds: comm.virtual_time(),
        cluster: None,
        sampled_vertices: None,
    }
}

/// What one distributed MCMC phase produced.
struct DistributedPhase {
    dl: f64,
    sweeps: usize,
    moves: usize,
    cancelled: bool,
}

/// Per-rank wire counters, resolved once per MCMC phase and recorded at
/// the existing sync points (observe-only: no extra collectives, no
/// extra wire bytes). The rank id is folded into the metric name so
/// simulated ranks sharing one process registry stay distinguishable.
struct WireMetrics {
    syncs: std::sync::Arc<sbp_metrics::Counter>,
    moves: std::sync::Arc<sbp_metrics::Counter>,
    bytes_raw: std::sync::Arc<sbp_metrics::Counter>,
    bytes_encoded: std::sync::Arc<sbp_metrics::Counter>,
}

impl WireMetrics {
    fn new(rank: usize) -> Self {
        let name = |base: &str| sbp_metrics::labeled(base, "rank", rank);
        WireMetrics {
            syncs: sbp_metrics::counter(&name("sbp_wire_syncs_total")),
            moves: sbp_metrics::counter(&name("sbp_wire_moves_total")),
            bytes_raw: sbp_metrics::counter(&name("sbp_wire_move_bytes_raw_total")),
            bytes_encoded: sbp_metrics::counter(&name("sbp_wire_move_bytes_encoded_total")),
        }
    }

    /// Records one sync point: the moves this rank shipped and the byte
    /// delta `exchange_moves` added to the per-phase accounting.
    fn record_sync(&self, shipped: usize, before: ExchangeStats, after: ExchangeStats) {
        self.syncs.inc();
        self.moves.add(shipped as u64);
        self.bytes_raw
            .add(after.move_bytes_raw - before.move_bytes_raw);
        self.bytes_encoded
            .add(after.move_bytes_encoded - before.move_bytes_encoded);
    }
}

/// One distributed MCMC phase: sweep owned vertices, sync every
/// `sync_period` sweeps through the data plane's single-allgather move
/// exchange (delta+varint payloads — see [`crate::exchange`]; the
/// encoding is lossless, so exactness is untouched; the sharded plane
/// concatenates its cell-delta and cut-arc sections onto the same
/// buffer), and stop on the shared convergence rule (or a broadcast
/// cancellation decision). Emits a [`ProgressEvent::Sweep`] after every
/// sync point — rank 0 already holds the broadcast DL there.
#[allow(clippy::too_many_arguments)]
fn mcmc_phase_distributed<C: Communicator, D: EdistData>(
    comm: &C,
    data: &D,
    bm: &mut Blockmodel,
    cfg: &EdistConfig,
    threshold: f64,
    iter_idx: usize,
    cancel: &CancelToken,
    relay: &EventRelay,
    xstats: &mut ExchangeStats,
) -> Result<DistributedPhase, DistError> {
    let beta = cfg.sbp.beta;
    let sync_period = cfg.sync_period.max(1);
    let graph = data.sweep_graph();
    let my_vertices = data.my_vertices();
    // Vertex-keyed streams: the seed depends on the iteration only, never
    // on the rank, so rank counts explore the same randomness.
    let sweep_seed = mcmc_phase_seed(cfg.sbp.seed, iter_idx);
    let initial_dl = shared_dl(comm, bm);
    let mut check = ConvergenceCheck::new(initial_dl, threshold);
    // The globally-agreed assignment at the last sync point (the sharded
    // plane's move application is phrased relative to it).
    let mut prev = bm.assignment().to_vec();
    let mut pending: Vec<AcceptedMove> = Vec::new();
    let mut dl = initial_dl;
    let mut moves = 0usize;
    let mut cancelled = false;
    let wire = sbp_metrics::enabled().then(|| WireMetrics::new(comm.rank()));

    let mut sweeps = 0usize;
    let mut proposed_since_sync = 0usize;
    while sweeps < cfg.sbp.max_sweeps {
        let outcome: SweepOutcome = match &cfg.sbp.strategy {
            McmcStrategy::MetropolisHastings => {
                keyed_mh_sweep(graph, bm, my_vertices, beta, sweep_seed, sweeps)
            }
            McmcStrategy::Hybrid(hcfg) => {
                hybrid_sweep(graph, bm, my_vertices, beta, hcfg, sweep_seed, sweeps)
            }
            McmcStrategy::Batch => batch_sweep(graph, bm, my_vertices, beta, sweep_seed, sweeps),
        };
        pending.extend(outcome.moves);
        proposed_since_sync += outcome.proposals;
        sweeps += 1;

        if sweeps.is_multiple_of(sync_period) || sweeps == cfg.sbp.max_sweeps {
            let shipped = pending.len();
            let xstats_before = *xstats;
            let exchanged = data.exchange_moves(comm, bm, &mut prev, &pending, xstats)?;
            moves += exchanged;
            if let Some(w) = &wire {
                w.record_sync(shipped, xstats_before, *xstats);
            }
            pending.clear();
            // One broadcast carries both the convergence value and the
            // cancellation decision, so all ranks agree on both.
            let (new_dl, cancel_now) = comm.broadcast(
                0,
                (comm.rank() == 0).then(|| (bm.description_length(), cancel.is_cancelled())),
            );
            dl = new_dl;
            if comm.rank() == 0 {
                // Rank 0 counts for the whole cluster: `exchanged` is
                // already the global move total, while `proposed` is
                // rank 0's local share (summing it globally would add
                // a collective to an observe-only path).
                sbp_core::sbp::record_sweep(proposed_since_sync, exchanged);
            }
            relay.emit(ProgressEvent::Sweep {
                iteration: iter_idx,
                sweep: sweeps - 1,
                dl,
                proposed: proposed_since_sync,
                accepted: exchanged,
            });
            proposed_since_sync = 0;
            if cancel_now {
                cancelled = true;
                break;
            }
            if check.record(dl) {
                break;
            }
        }
    }
    Ok(DistributedPhase {
        dl,
        sweeps,
        moves,
        cancelled,
    })
}

#[cfg(test)]
mod tests {
    use crate::solver::Edist;
    use sbp_core::run::{NoProgress, RunConfig, RunOutcome, Solver};
    use sbp_graph::fixtures::two_cliques;
    use sbp_graph::{Graph, OwnershipStrategy};
    use sbp_mpi::CostModel;

    fn solve(graph: &Graph, solver: Edist) -> RunOutcome {
        solver.solve(graph, &RunConfig::default(), &mut NoProgress)
    }

    fn zero_cost(ranks: usize) -> Edist {
        Edist {
            cost: CostModel::zero(),
            ..Edist::new(ranks)
        }
    }

    #[test]
    fn single_rank_recovers_two_cliques() {
        let res = solve(&two_cliques(8), zero_cost(1));
        assert_eq!(res.num_blocks, 2);
        assert_eq!(res.assignment[0], res.assignment[7]);
        assert_ne!(res.assignment[0], res.assignment[8]);
    }

    #[test]
    fn sync_period_two_still_converges() {
        let solver = Edist {
            sync_period: 2,
            ..zero_cost(3)
        };
        assert_eq!(solve(&two_cliques(8), solver).num_blocks, 2);
    }

    #[test]
    fn modulo_ownership_works_too() {
        let solver = Edist {
            ownership: OwnershipStrategy::Modulo,
            ..zero_cost(2)
        };
        let res = solve(&two_cliques(8), solver);
        assert_eq!(res.assignment.len(), 16);
        assert_eq!(res.num_blocks, 2);
    }

    #[test]
    fn empty_graph_is_handled() {
        let res = solve(&Graph::from_edges(0, Vec::new()), zero_cost(3));
        assert!(res.assignment.is_empty());
        assert_eq!(res.num_blocks, 0);
    }
}
