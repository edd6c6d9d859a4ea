//! Deterministic fault injection for the distributed drivers.
//!
//! [`FaultComm`] decorates any [`Communicator`] and executes a
//! [`FaultPlan`] keyed to the communicator's **sync points**: every
//! collective the wrapped rank issues (allgather, alltoall, gather,
//! broadcast) increments a per-rank counter, and faults fire
//! when the counter reaches their `at_sync` value. Because the drivers
//! issue identical collective schedules on every run (the bit-identity
//! contract), a `(plan, seed)` pair reproduces the exact same failure in
//! `cargo test` every time — no timing, no real network, no flakes.
//!
//! Three fault kinds model the classic distributed failure modes:
//!
//! * [`Fault::Kill`] — the rank abandons the schedule *before*
//!   contributing to collective `at_sync`, by raising the typed
//!   [`RankDeath`] unwind. The driver's collective guard (see
//!   `crate::error`) converts it into [`DistError::RankKilled`], poisons
//!   the peers, and returns best-so-far; peers observe the poison as
//!   [`sbp_mpi::PeerAborted`] and degrade coordinately.
//! * [`Fault::MangleRecv`] — byte payloads *received* by the rank at
//!   collective `at_sync` are corrupted (one bit-flip, then a truncation
//!   to a shorter prefix) with a SplitMix64 stream keyed on
//!   `(plan.seed, at_sync, frame)`. Only `Vec<u8>` frames are mangled —
//!   exactly the wire payloads the strict decoders in
//!   [`crate::exchange`] guard — and only frames from peers, so the
//!   corruption models a lossy interconnect, not local memory
//!   corruption.
//! * [`Fault::Delay`] — from collective `at_sync` onwards the rank's
//!   virtual clock reads `virtual_seconds` late, modeling a straggler.
//!   The skew is local to the decorated rank's own readings (the
//!   underlying simulator still synchronizes the true clocks), which is
//!   sufficient for testing timeout/health reporting paths.
//!
//! [`DistError::RankKilled`]: crate::error::DistError::RankKilled

use sbp_mpi::{CommStats, Communicator, Wire};
use std::any::Any;
use std::cell::Cell;
use std::fmt;

/// Panic payload raised by [`FaultComm`] when a [`Fault::Kill`] fires.
/// Like [`sbp_mpi::PeerAborted`], this is a *typed* unwind: the driver's
/// collective guard downcasts it into a [`DistError`](crate::error::DistError)
/// instead of crashing the process.
#[derive(Clone, Copy)]
pub struct RankDeath {
    /// The rank that was killed.
    pub rank: usize,
    /// The sync point at which it died (collectives issued so far).
    pub sync_point: u64,
}

impl fmt::Debug for RankDeath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} killed by fault plan at sync point {}",
            self.rank, self.sync_point
        )
    }
}

/// One injected fault. `rank` is the rank the fault applies to; `at_sync`
/// is the 0-based index of the collective (as counted by that rank) at
/// which it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The rank abandons the collective schedule before contributing to
    /// collective `at_sync`.
    Kill {
        /// Target rank.
        rank: usize,
        /// Sync point at which the rank dies.
        at_sync: u64,
    },
    /// Byte payloads received by `rank` at collective `at_sync` are
    /// deterministically corrupted.
    MangleRecv {
        /// Target rank.
        rank: usize,
        /// Sync point whose received frames are corrupted.
        at_sync: u64,
    },
    /// From collective `at_sync` onwards, `rank`'s virtual clock reads
    /// `virtual_seconds` late.
    Delay {
        /// Target rank.
        rank: usize,
        /// Sync point from which the skew applies.
        at_sync: u64,
        /// Added virtual seconds.
        virtual_seconds: f64,
    },
}

impl Fault {
    fn rank(&self) -> usize {
        match *self {
            Fault::Kill { rank, .. }
            | Fault::MangleRecv { rank, .. }
            | Fault::Delay { rank, .. } => rank,
        }
    }
}

/// A reproducible schedule of injected faults, applied by [`FaultComm`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Keys the corruption streams of [`Fault::MangleRecv`] entries.
    pub seed: u64,
    /// The faults to inject.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with no faults (decorating with it is a no-op).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True when the plan has at least one fault targeting `rank`.
    pub fn targets(&self, rank: usize) -> bool {
        self.faults.iter().any(|f| f.rank() == rank)
    }

    /// Parses the CLI fault-plan syntax: comma-separated entries of
    ///
    /// * `kill:R@K` — kill rank `R` at sync point `K`;
    /// * `mangle:R@K` — corrupt rank `R`'s received frames at sync `K`;
    /// * `delay:R@K:SECS` — skew rank `R`'s clock by `SECS` from sync `K`;
    /// * `seed:N` — set the corruption seed (defaults to 0).
    ///
    /// Example: `"seed:7,kill:1@3,mangle:0@2,delay:2@5:1.5"`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("fault entry `{entry}` missing `:`"))?;
            if kind == "seed" {
                plan.seed = rest.parse().map_err(|_| format!("bad seed in `{entry}`"))?;
                continue;
            }
            let (rank_s, tail) = rest
                .split_once('@')
                .ok_or_else(|| format!("fault entry `{entry}` missing `@sync`"))?;
            let rank: usize = rank_s
                .parse()
                .map_err(|_| format!("bad rank in `{entry}`"))?;
            let fault = match kind {
                "kill" => Fault::Kill {
                    rank,
                    at_sync: tail
                        .parse()
                        .map_err(|_| format!("bad sync point in `{entry}`"))?,
                },
                "mangle" => Fault::MangleRecv {
                    rank,
                    at_sync: tail
                        .parse()
                        .map_err(|_| format!("bad sync point in `{entry}`"))?,
                },
                "delay" => {
                    let (sync_s, secs_s) = tail
                        .split_once(':')
                        .ok_or_else(|| format!("delay entry `{entry}` missing `:SECS`"))?;
                    Fault::Delay {
                        rank,
                        at_sync: sync_s
                            .parse()
                            .map_err(|_| format!("bad sync point in `{entry}`"))?,
                        virtual_seconds: secs_s
                            .parse()
                            .map_err(|_| format!("bad delay seconds in `{entry}`"))?,
                    }
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Communicator`] decorator that executes a [`FaultPlan`]. See the
/// module docs for the fault model. Wrapping a communicator with an
/// empty plan is behaviorally transparent.
pub struct FaultComm<'a, C: Communicator> {
    inner: &'a C,
    plan: FaultPlan,
    sync: Cell<u64>,
    extra_delay: Cell<f64>,
}

impl<'a, C: Communicator> FaultComm<'a, C> {
    /// Decorates `inner` with `plan`. Faults targeting other ranks are
    /// ignored by this instance (each rank decorates its own handle).
    pub fn new(inner: &'a C, plan: FaultPlan) -> Self {
        FaultComm {
            inner,
            plan,
            sync: Cell::new(0),
            extra_delay: Cell::new(0.0),
        }
    }

    /// Advances the sync-point counter and fires any `Kill`/`Delay`
    /// faults scheduled for this rank at this point. Returns the sync
    /// point just entered.
    fn tick(&self) -> u64 {
        let k = self.sync.get();
        self.sync.set(k + 1);
        let me = self.inner.rank();
        for f in &self.plan.faults {
            match *f {
                Fault::Kill { rank, at_sync } if rank == me && at_sync == k => {
                    // `resume_unwind`, not `panic_any`: the death is
                    // always caught by `guard_collectives`, and skipping
                    // the panic hook keeps backtrace noise out of the
                    // coordinated-unwind path.
                    std::panic::resume_unwind(Box::new(RankDeath {
                        rank: me,
                        sync_point: k,
                    }));
                }
                Fault::Delay {
                    rank,
                    at_sync,
                    virtual_seconds,
                } if rank == me && at_sync == k => {
                    self.extra_delay
                        .set(self.extra_delay.get() + virtual_seconds);
                }
                _ => {}
            }
        }
        k
    }

    /// Corrupts received byte frames if a `MangleRecv` fault fires at
    /// sync point `k`. Non-byte payloads and this rank's own frame are
    /// left untouched.
    fn mangle_frames<T: 'static>(&self, k: u64, frames: &mut [Vec<T>]) {
        let me = self.inner.rank();
        let fires = self.plan.faults.iter().any(
            |f| matches!(*f, Fault::MangleRecv { rank, at_sync } if rank == me && at_sync == k),
        );
        if !fires {
            return;
        }
        let mut state = self.plan.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for (from, frame) in frames.iter_mut().enumerate() {
            let any: &mut dyn Any = frame;
            let Some(frame) = any.downcast_mut::<Vec<u8>>() else {
                // Non-byte payload: nothing to corrupt.
                return;
            };
            if from == me || frame.is_empty() {
                continue;
            }
            // One bit-flip anywhere, then a truncation to a strict
            // prefix: the truncation guarantees the frame no longer
            // decodes (strict decoders reject any proper prefix), the
            // flip exercises the value/limit checks too.
            let bit = (splitmix64(&mut state) as usize) % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
            let keep = (splitmix64(&mut state) as usize) % frame.len();
            frame.truncate(keep);
        }
    }
}

impl<C: Communicator> Communicator for FaultComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allgatherv<T: Clone + Send + Wire + 'static>(&self, local: Vec<T>) -> Vec<Vec<T>> {
        let k = self.tick();
        let mut out = self.inner.allgatherv(local);
        self.mangle_frames(k, &mut out);
        out
    }

    fn alltoallv<T: Clone + Send + Wire + 'static>(&self, per_dest: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let k = self.tick();
        let mut out = self.inner.alltoallv(per_dest);
        self.mangle_frames(k, &mut out);
        out
    }

    fn gatherv<T: Clone + Send + Wire + 'static>(
        &self,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let k = self.tick();
        let mut out = self.inner.gatherv(root, local);
        if let Some(frames) = &mut out {
            self.mangle_frames(k, frames);
        }
        out
    }

    fn broadcast<T: Clone + Send + Wire + 'static>(&self, root: usize, data: Option<T>) -> T {
        self.tick();
        self.inner.broadcast(root, data)
    }

    fn virtual_time(&self) -> f64 {
        self.inner.virtual_time() + self.extra_delay.get()
    }

    fn charge(&self, seconds: f64) {
        self.inner.charge(seconds);
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn poison(&self) {
        self.inner.poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_mpi::thread::ThreadComm;
    use sbp_mpi::{CostModel, ThreadCluster};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `f` on the one rank of a cluster whose collectives cost
    /// nothing, so its clock reads that rank's CPU plus what is charged.
    fn on_one_rank<R: Send>(f: impl Fn(&ThreadComm) -> R + Send + Sync) -> R {
        ThreadCluster::run(1, CostModel::zero(), f)
            .ranks
            .remove(0)
            .result
    }

    #[test]
    fn parse_roundtrips_the_documented_syntax() {
        let plan = FaultPlan::parse("seed:7, kill:1@3, mangle:0@2, delay:2@5:1.5").expect("parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.faults,
            vec![
                Fault::Kill {
                    rank: 1,
                    at_sync: 3
                },
                Fault::MangleRecv {
                    rank: 0,
                    at_sync: 2
                },
                Fault::Delay {
                    rank: 2,
                    at_sync: 5,
                    virtual_seconds: 1.5
                },
            ]
        );
        assert!(plan.targets(1));
        assert!(!plan.targets(3));
        assert!(FaultPlan::parse("").expect("empty ok").is_empty());
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "kill",
            "kill:1",
            "kill:x@3",
            "kill:1@x",
            "delay:1@2",
            "delay:1@2:abc",
            "explode:1@2",
            "seed:banana",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        on_one_rank(|inner| {
            let fc = FaultComm::new(inner, FaultPlan::none());
            assert_eq!(fc.allgatherv(vec![1u8, 2]), vec![vec![1u8, 2]]);
            assert_eq!(fc.broadcast(0, Some(9u32)), 9);
            assert_eq!(fc.stats().collectives, 2);
            // A charge reaches the wrapped clock.
            let t0 = fc.virtual_time();
            fc.charge(5.0);
            assert!((5.0..5.1).contains(&(inner.virtual_time() - t0)));
        });
    }

    #[test]
    fn kill_raises_typed_rank_death_at_the_exact_sync_point() {
        on_one_rank(|inner| {
            let plan = FaultPlan::parse("kill:0@2").expect("parses");
            let fc = FaultComm::new(inner, plan);
            fc.allgatherv::<u8>(vec![]); // sync 0
            fc.allgatherv::<u8>(vec![]); // sync 1
            let err =
                catch_unwind(AssertUnwindSafe(|| fc.allgatherv::<u8>(vec![]))).expect_err("killed");
            let death = err.downcast_ref::<RankDeath>().expect("typed payload");
            assert_eq!(death.rank, 0);
            assert_eq!(death.sync_point, 2);
        });
    }

    #[test]
    fn delay_skews_only_the_reported_clock() {
        on_one_rank(|inner| {
            let plan = FaultPlan::parse("delay:0@1:2.5").expect("parses");
            let fc = FaultComm::new(inner, plan);
            fc.allgatherv::<u8>(vec![]); // sync 0: before the fault
            assert!(fc.virtual_time() < 1.0);
            fc.allgatherv::<u8>(vec![]); // sync 1: fault fires
            let skewed = fc.virtual_time();
            assert!(skewed >= 2.5, "clock not skewed: {skewed}");
            assert!(inner.virtual_time() < 1.0, "inner clock must be untouched");
        });
    }

    #[test]
    fn mangle_corrupts_only_peer_byte_frames_on_the_target_rank() {
        let payload = |r: usize| vec![r as u8; 32];
        let run = |plan_spec: &'static str| {
            ThreadCluster::run(3, CostModel::zero(), move |comm| {
                let plan = FaultPlan::parse(plan_spec).expect("parses");
                let fc = FaultComm::new(comm, plan);
                fc.allgatherv(payload(fc.rank()))
            })
        };
        let clean = run("");
        let mangled = run("seed:42,mangle:1@0");
        for rank in 0..3 {
            let (c, m) = (&clean.ranks[rank].result, &mangled.ranks[rank].result);
            if rank == 1 {
                assert_eq!(m[1], c[1], "own frame must be untouched");
                assert_ne!(m[0], c[0], "peer frame 0 must be corrupted");
                assert_ne!(m[2], c[2], "peer frame 2 must be corrupted");
                assert!(m[0].len() < c[0].len(), "truncation must shorten");
            } else {
                assert_eq!(m, c, "non-target rank {rank} must see clean frames");
            }
        }
    }

    #[test]
    fn mangle_is_deterministic_for_a_fixed_seed() {
        let run = || {
            ThreadCluster::run(2, CostModel::zero(), |comm| {
                let plan = FaultPlan::parse("seed:9,mangle:0@0").expect("parses");
                let fc = FaultComm::new(comm, plan);
                fc.allgatherv(vec![fc.rank() as u8; 64])
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.ranks[0].result, b.ranks[0].result);
    }

    #[test]
    fn mangle_leaves_non_byte_payloads_alone() {
        // u32 frames are not wire payloads; the mangler must skip them
        // even when the fault fires and a peer frame is present.
        let out = ThreadCluster::run(2, CostModel::zero(), |comm| {
            let plan = FaultPlan::parse("mangle:0@0").expect("parses");
            let fc = FaultComm::new(comm, plan);
            fc.allgatherv(vec![fc.rank() as u32; 4])
        });
        assert_eq!(out.ranks[0].result, vec![vec![0u32; 4], vec![1u32; 4]]);
    }
}
