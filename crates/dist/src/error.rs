//! Typed failure propagation for the distributed runtime.
//!
//! Every failure a distributed driver can survive is a [`DistError`]:
//! malformed collective payloads ([`DecodeError`]), shard-ingest
//! failures, and peers abandoning the collective schedule (rank death,
//! observed as a poison notice). Drivers convert a `DistError` into a
//! degraded best-so-far [`RunOutcome`] instead of
//! panicking the cluster — see the coordinated-unwind notes on
//! `guard_collectives`.

use sbp_graph::shard::ShardError;
use sbp_mpi::thread::PeerAborted;
use sbp_mpi::Communicator;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::fault::RankDeath;
use sbp_core::{DegradedReason, RunOutcome};

/// A malformed wire payload detected by one of the strict decoders in
/// [`crate::exchange`]. Re-exported from [`sbp_graph::frame`], where it
/// lives so the TCP transport in `sbp-mpi` shares the same type.
pub use sbp_graph::frame::DecodeError;

/// A failure the distributed runtime survives by unwinding all ranks
/// coordinately and returning best-so-far.
#[derive(Debug)]
pub enum DistError {
    /// A collective payload failed to decode on this rank.
    Decode(DecodeError),
    /// Distributed shard ingest failed on this rank.
    Shard(ShardError),
    /// Two shards both claim ownership of the same vertex.
    OwnershipOverlap {
        /// The doubly-owned vertex.
        vertex: usize,
    },
    /// No shard claims ownership of some vertex.
    OwnershipGap {
        /// The unowned vertex.
        vertex: usize,
    },
    /// A peer rank abandoned the collective schedule; this rank observed
    /// its poison notice mid-collective.
    PeerAborted {
        /// The nearest aborted peer (aborts cascade, so not necessarily
        /// the originating failure).
        rank: usize,
    },
    /// This rank itself was killed by an injected fault
    /// ([`crate::fault::FaultComm`]).
    RankKilled {
        /// The killed rank (this rank).
        rank: usize,
        /// The 0-based collective index at which the kill fired.
        sync_point: u64,
    },
}

impl DistError {
    /// The coarse reason recorded on a degraded
    /// [`RunOutcome`].
    pub fn degraded_reason(&self) -> DegradedReason {
        match self {
            DistError::Decode(_) => DegradedReason::DecodeFailure,
            DistError::Shard(_) | DistError::OwnershipOverlap { .. } => {
                DegradedReason::ShardLoadFailure
            }
            DistError::OwnershipGap { .. } => DegradedReason::ShardLoadFailure,
            DistError::PeerAborted { .. } | DistError::RankKilled { .. } => {
                DegradedReason::RankFailure
            }
        }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Decode(e) => write!(f, "collective decode failure: {e}"),
            DistError::Shard(e) => write!(f, "shard ingest failure: {e}"),
            DistError::OwnershipOverlap { vertex } => {
                write!(f, "vertex {vertex} owned by two shards")
            }
            DistError::OwnershipGap { vertex } => {
                write!(f, "vertex {vertex} not owned by any shard")
            }
            DistError::PeerAborted { rank } => {
                write!(f, "peer rank {rank} aborted the collective schedule")
            }
            DistError::RankKilled { rank, sync_point } => {
                write!(f, "rank {rank} killed at sync point {sync_point}")
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<DecodeError> for DistError {
    fn from(e: DecodeError) -> Self {
        DistError::Decode(e)
    }
}

impl From<ShardError> for DistError {
    fn from(e: ShardError) -> Self {
        DistError::Shard(e)
    }
}

/// Runs a matched-collective region, converting the two *typed* unwind
/// payloads of the coordinated-unwind protocol into [`DistError`]s:
///
/// * [`PeerAborted`] — a peer poisoned the schedule (its own failure or
///   a cascade); raised by `ThreadComm` from inside a collective;
/// * [`RankDeath`] — an injected kill from [`crate::fault::FaultComm`]
///   fired on this rank.
///
/// Any other panic payload is a genuine bug and is re-raised. On its own
/// local `Err` (e.g. a decode failure) the *caller* must invoke
/// [`Communicator::poison`] before abandoning the schedule, so peers
/// blocked in collectives unwind instead of deadlocking; this helper
/// only performs the payload conversion.
pub(crate) fn guard_collectives<T>(
    f: impl FnOnce() -> Result<T, DistError>,
) -> Result<T, DistError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            if let Some(p) = payload.downcast_ref::<PeerAborted>() {
                Err(DistError::PeerAborted { rank: p.from })
            } else if let Some(d) = payload.downcast_ref::<RankDeath>() {
                Err(DistError::RankKilled {
                    rank: d.rank,
                    sync_point: d.sync_point,
                })
            } else {
                resume_unwind(payload)
            }
        }
    }
}

/// Aborts this rank's participation: wakes peers via
/// [`Communicator::poison`] (unless the failure *was* a peer abort, in
/// which case the originator has already poisoned everyone and
/// re-poisoning is merely redundant) and maps the error to the degraded
/// reason recorded on the outcome.
pub(crate) fn abort_schedule<C: Communicator>(comm: &C, err: &DistError) -> DegradedReason {
    if !matches!(err, DistError::PeerAborted { .. }) {
        comm.poison();
    }
    err.degraded_reason()
}

/// [`abort_schedule`] for a rank with no partition to return yet: the
/// degraded, explicitly empty outcome.
pub(crate) fn abort_empty<C: Communicator>(comm: &C, err: &DistError) -> RunOutcome {
    let mut out = RunOutcome::empty();
    out.degraded = Some(abort_schedule(comm, err));
    out.virtual_seconds = comm.virtual_time();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_errors_display_their_context() {
        let e = DecodeError::CountExceedsPayload {
            what: "move",
            declared: 1 << 40,
            max: 12,
        };
        let msg = e.to_string();
        assert!(msg.contains("move"), "{msg}");
        assert!(msg.contains("12"), "{msg}");
        let e = DecodeError::SectionOutOfBounds {
            declared: 200,
            available: 3,
        };
        assert!(e.to_string().contains("200"), "{e}");
    }

    #[test]
    fn dist_errors_map_to_degraded_reasons() {
        assert_eq!(
            DistError::Decode(DecodeError::Truncated { what: "move" }).degraded_reason(),
            DegradedReason::DecodeFailure
        );
        assert_eq!(
            DistError::PeerAborted { rank: 3 }.degraded_reason(),
            DegradedReason::RankFailure
        );
        assert_eq!(
            DistError::RankKilled {
                rank: 1,
                sync_point: 7
            }
            .degraded_reason(),
            DegradedReason::RankFailure
        );
        assert_eq!(
            DistError::OwnershipGap { vertex: 5 }.degraded_reason(),
            DegradedReason::ShardLoadFailure
        );
    }

    #[test]
    fn guard_converts_typed_payloads_and_reraises_others() {
        let r = guard_collectives(|| -> Result<(), DistError> {
            std::panic::panic_any(PeerAborted { from: 2 });
        });
        assert!(matches!(r, Err(DistError::PeerAborted { rank: 2 })));

        let r = guard_collectives(|| -> Result<(), DistError> {
            std::panic::panic_any(RankDeath {
                rank: 1,
                sync_point: 4,
            });
        });
        assert!(matches!(
            r,
            Err(DistError::RankKilled {
                rank: 1,
                sync_point: 4
            })
        ));

        let reraised = std::panic::catch_unwind(|| {
            let _ = guard_collectives(|| -> Result<(), DistError> {
                panic!("genuine bug");
            });
        });
        assert!(reraised.is_err());
    }
}
