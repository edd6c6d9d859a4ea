//! `.sbpc` golden-loop checkpoints: snapshot, binary codec, resume.
//!
//! A checkpoint captures the complete cross-iteration state of the
//! golden search at a sync boundary (the end of a merge+MCMC iteration):
//! the three bracket points, the index of the next iteration, and the
//! recorded trajectory. That is *sufficient* for a bit-identical resume
//! because every RNG stream in the engine is a pure function of
//! `(seed, iteration, sweep, vertex)` — nothing is keyed on elapsed
//! wall-clock state, rank id, or consumed randomness (see
//! [`crate::sbp::merge_phase_seed`] / [`crate::sbp::mcmc_phase_seed`]).
//! Description lengths are stored as raw IEEE-754 bits, so bracket
//! comparisons after a resume see the exact same f64s.
//!
//! # Format (`.sbpc`, version 1)
//!
//! All multi-byte integers are LEB128 varints (`sbp_graph::varint`)
//! unless marked `le64`; f64s are stored as `le64` of `to_bits()`.
//!
//! ```text
//! magic      "SBPC" (4 bytes)
//! version    u8 = 1
//! strategy   u8 tag (0 = MetropolisHastings, 1 = Hybrid, 3 = Batch;
//!            2, unchunked Batch, decodes and is refused at resume)
//! payload:
//!   seed                 le64
//!   num_vertices         varint   (graph fingerprint)
//!   total_edge_weight    varint   (graph fingerprint)
//!   next_iter            varint
//!   trajectory_len       varint
//!   trajectory entries   { num_blocks varint, sweeps varint,
//!                          moves varint, dl le64 }
//!   bracket_mask         u8 (bit0 = hi, bit1 = mid, bit2 = lo)
//!   bracket entries      { num_blocks varint, dl le64,
//!                          assignment_len varint, labels varint… }
//! checksum   le64 (order-sensitive mix over every preceding byte,
//!                  header included)
//! ```
//!
//! Only the fixed-width parts — magic, version, strategy tag, `le64` seed
//! and trailer checksum — are written by hand. Everything between the
//! seed and the checksum is a run of [`sbp_mpi::Wire`] values, whose
//! varints and `le64` floats are the table's own: the fingerprint and
//! `next_iter` as one `(u64, u64, u64)`, the trajectory as a
//! `Vec<(usize, usize, usize, f64)>`, the mask as a `u8`, and each
//! bracket entry as a `(usize, f64)` followed by its `Vec<u32>` labels.
//!
//! Decoding is strict and hostile-input safe: every declared count is
//! checked against the bytes actually remaining *before* any allocation,
//! labels must be dense (`< num_blocks`), assignment lengths must match
//! the fingerprint, trailing bytes are rejected, and the checksum is
//! verified before any field is interpreted. Writes are atomic
//! (temp-file + rename), so a crash mid-write never leaves a torn file.

use crate::golden::{BracketEntry, GoldenBracket};
use crate::sbp::{IterationStat, McmcStrategy};
use sbp_graph::frame::{checksum_bytes, DecodeError};
use sbp_mpi::wire::{self, Wire};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"SBPC";
const VERSION: u8 = 1;

/// Vertex-count ceiling shared with the `.sbps` reader: assignments are
/// `u32`-labelled, so anything above `u32::MAX + 1` vertices is malformed
/// by construction and rejected before allocating.
const MAX_VERTICES: u64 = (u32::MAX as u64) + 1;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is not a well-formed `.sbpc` snapshot.
    Malformed(String),
    /// The snapshot is well-formed but belongs to a different run
    /// (graph fingerprint, seed, or strategy disagree).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        CheckpointError::Malformed(e.to_string())
    }
}

/// The complete cross-iteration state of the golden search at a sync
/// boundary, plus the run fingerprint used to reject resuming against
/// the wrong graph/seed/strategy.
#[derive(Clone, Debug)]
pub struct CheckpointState {
    /// Master seed of the run (fingerprint; RNG streams derive from it).
    pub seed: u64,
    /// Strategy tag (fingerprint): 0 = MH, 1 = Hybrid, 3 = Batch. 2 was
    /// Batch as one whole-sweep chunk; such a snapshot still decodes and
    /// is refused as a mismatch, never resumed onto another schedule.
    pub strategy_tag: u8,
    /// Vertex count of the graph (fingerprint).
    pub num_vertices: u64,
    /// Total edge weight of the graph (fingerprint).
    pub total_edge_weight: u64,
    /// Index of the next golden-loop iteration to run.
    pub next_iter: u64,
    /// Trajectory recorded so far.
    pub iterations: Vec<IterationStat>,
    /// Bracket point with the most blocks.
    pub hi: Option<BracketEntry>,
    /// Best bracket point (must be present in any resumable snapshot —
    /// the bracket is seeded before the first boundary).
    pub mid: Option<BracketEntry>,
    /// Bracket point with the fewest blocks.
    pub lo: Option<BracketEntry>,
}

/// The wire tag for a strategy. Batch is 3 since its sweeps run in
/// [`crate::hybrid::BATCH_CHUNKS`] synced chunks; tag 2 named the
/// unchunked schedule.
pub fn strategy_tag(strategy: &McmcStrategy) -> u8 {
    match strategy {
        McmcStrategy::MetropolisHastings => 0,
        McmcStrategy::Hybrid => 1,
        McmcStrategy::Batch => 3,
    }
}

impl CheckpointState {
    /// Rebuilds the golden bracket this snapshot captured.
    pub fn bracket(&self, rate: f64) -> GoldenBracket {
        GoldenBracket::from_parts(rate, self.hi.clone(), self.mid.clone(), self.lo.clone())
    }

    /// Why this snapshot's graph fingerprint does not match a graph of
    /// `num_vertices` vertices and `total_edge_weight`, or `None` when
    /// it does.
    pub fn graph_mismatch(&self, num_vertices: usize, total_edge_weight: u64) -> Option<String> {
        if self.num_vertices != num_vertices as u64 {
            Some(format!(
                "snapshot has {} vertices, graph has {num_vertices}",
                self.num_vertices
            ))
        } else if self.total_edge_weight != total_edge_weight {
            Some(format!(
                "snapshot total edge weight {} != graph's {total_edge_weight}",
                self.total_edge_weight
            ))
        } else {
            None
        }
    }

    /// Checks this snapshot against the run about to consume it.
    pub fn validate_against(
        &self,
        seed: u64,
        strategy: &McmcStrategy,
        num_vertices: usize,
        total_edge_weight: u64,
    ) -> Result<(), CheckpointError> {
        if self.seed != seed {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot seed {} != run seed {seed}",
                self.seed
            )));
        }
        if self.strategy_tag != strategy_tag(strategy) {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot strategy tag {} != run strategy tag {}",
                self.strategy_tag,
                strategy_tag(strategy)
            )));
        }
        if let Some(reason) = self.graph_mismatch(num_vertices, total_edge_weight) {
            return Err(CheckpointError::Mismatch(reason));
        }
        if self.mid.is_none() {
            return Err(CheckpointError::Mismatch(
                "snapshot has no best bracket entry to resume from".into(),
            ));
        }
        Ok(())
    }

    /// Serializes to `.sbpc` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        buf.push(self.strategy_tag);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        (self.num_vertices, self.total_edge_weight, self.next_iter).wire_write(&mut buf);
        let trajectory: Vec<_> = self
            .iterations
            .iter()
            .map(|s| (s.num_blocks, s.sweeps, s.moves, s.dl))
            .collect();
        trajectory.wire_write(&mut buf);
        let mask = u8::from(self.hi.is_some())
            | (u8::from(self.mid.is_some()) << 1)
            | (u8::from(self.lo.is_some()) << 2);
        buf.push(mask);
        for entry in [&self.hi, &self.mid, &self.lo].into_iter().flatten() {
            (entry.num_blocks, entry.dl).wire_write(&mut buf);
            entry.assignment.wire_write(&mut buf);
        }
        // The checksum covers everything before it — header bytes
        // included, so a flipped strategy tag (still a "valid" tag) can
        // never masquerade as an intact snapshot.
        let sum = mix_bytes(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Parses `.sbpc` bytes (strict; see the module docs for the
    /// hostile-input guarantees).
    pub fn decode(buf: &[u8]) -> Result<Self, CheckpointError> {
        if buf.len() < MAGIC.len() + 2 + 8 {
            return Err(malformed("file shorter than the fixed header"));
        }
        if &buf[..4] != MAGIC {
            return Err(malformed("bad magic (not an .sbpc file)"));
        }
        if buf[4] != VERSION {
            return Err(malformed(format!("unsupported version {}", buf[4])));
        }
        let strategy_tag = buf[5];
        if strategy_tag > 3 {
            return Err(malformed(format!("unknown strategy tag {strategy_tag}")));
        }
        let (body, trailer) = buf.split_at(buf.len() - 8);
        if mix_bytes(body) != u64::from_le_bytes(trailer.try_into().expect("8 bytes")) {
            return Err(malformed("checksum mismatch"));
        }
        let (seed, payload) = body[6..]
            .split_first_chunk::<8>()
            .ok_or_else(|| malformed("seed truncated"))?;

        let pos = &mut 0usize;
        let (num_vertices, total_edge_weight, next_iter) =
            <(u64, u64, u64)>::wire_read(payload, pos)?;
        if num_vertices > MAX_VERTICES {
            return Err(malformed(format!(
                "vertex count {num_vertices} exceeds the u32 label space"
            )));
        }
        // Each entry occupies ≥ 11 bytes (three varints + le64 DL); a
        // larger declared count cannot fit and is refused before the
        // vector is sized.
        let cap = (payload.len() - *pos) / 11;
        let iterations =
            wire::read_vec::<(usize, usize, usize, f64)>(payload, pos, cap, "trajectory count")?
                .into_iter()
                .map(|(num_blocks, sweeps, moves, dl)| IterationStat {
                    num_blocks,
                    dl,
                    sweeps,
                    moves,
                })
                .collect();

        let mask = u8::wire_read(payload, pos)?;
        if mask > 0b111 {
            return Err(malformed(format!(
                "bracket mask {mask:#04x} has unknown bits set"
            )));
        }
        let mut entries: [Option<BracketEntry>; 3] = [None, None, None];
        for (bit, slot) in entries.iter_mut().enumerate() {
            if mask & (1 << bit) == 0 {
                continue;
            }
            let (num_blocks, dl) = <(usize, f64)>::wire_read(payload, pos)?;
            if num_blocks as u64 > num_vertices.max(1) {
                return Err(malformed(format!(
                    "block count {num_blocks} exceeds vertex count {num_vertices}"
                )));
            }
            // At most V labels, and no more than the bytes left could
            // hold, both refused before the vector is sized.
            let assignment: Vec<u32> =
                wire::read_vec(payload, pos, num_vertices as usize, "assignment length")?;
            if assignment.len() as u64 != num_vertices {
                return Err(malformed(format!(
                    "assignment length {} != vertex count {num_vertices}",
                    assignment.len()
                )));
            }
            if let Some(label) = assignment.iter().find(|&&l| l as usize >= num_blocks) {
                return Err(malformed(format!(
                    "label {label} not below block count {num_blocks}"
                )));
            }
            *slot = Some(BracketEntry {
                assignment,
                num_blocks,
                dl,
            });
        }
        if *pos != payload.len() {
            return Err(malformed("trailing bytes after bracket entries"));
        }
        let [hi, mid, lo] = entries;
        Ok(CheckpointState {
            seed: u64::from_le_bytes(*seed),
            strategy_tag,
            num_vertices,
            total_edge_weight,
            next_iter,
            iterations,
            hi,
            mid,
            lo,
        })
    }

    /// Atomically writes this snapshot to `path` (temp file + rename in
    /// the same directory).
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.encode();
        let tmp = tmp_sibling(path);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Reads and parses a snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }
}

fn malformed(reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(reason.into())
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "checkpoint.sbpc".into());
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Seed of the `.sbpc` trailer checksum (the serve frames use the same
/// routine under their own seed).
const CHECKSUM_SEED: u64 = 0x5BC5_BC5B_C5BC_5BC5;

/// The trailer checksum: detects truncation, bit flips, and reordering
/// without a dependency on a hash crate.
fn mix_bytes(bytes: &[u8]) -> u64 {
    checksum_bytes(CHECKSUM_SEED, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_graph::varint::write_u64;

    fn sample_state() -> CheckpointState {
        CheckpointState {
            seed: 42,
            strategy_tag: 0,
            num_vertices: 6,
            total_edge_weight: 14,
            next_iter: 3,
            iterations: vec![
                IterationStat {
                    num_blocks: 3,
                    dl: 123.456,
                    sweeps: 7,
                    moves: 11,
                },
                IterationStat {
                    num_blocks: 2,
                    dl: 99.25,
                    sweeps: 5,
                    moves: 2,
                },
            ],
            hi: Some(BracketEntry {
                assignment: vec![0, 1, 2, 3, 4, 5],
                num_blocks: 6,
                dl: 200.0,
            }),
            mid: Some(BracketEntry {
                assignment: vec![0, 0, 1, 1, 2, 2],
                num_blocks: 3,
                dl: 123.456,
            }),
            lo: None,
        }
    }

    /// `.sbpc` files are byte-unchanged by the shared checksum routine:
    /// the trailer of a fixed snapshot is pinned to the value the
    /// format's own routine produced before `checksum_bytes` existed.
    #[test]
    fn trailer_checksum_is_pinned() {
        let bytes = sample_state().encode();
        assert_eq!(bytes.len(), 81);
        let sum = u64::from_le_bytes(bytes[73..].try_into().unwrap());
        assert_eq!(sum, 0x7069_b52c_f870_a6e9);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let state = sample_state();
        let decoded = CheckpointState::decode(&state.encode()).expect("roundtrip");
        assert_eq!(decoded.seed, 42);
        assert_eq!(decoded.strategy_tag, 0);
        assert_eq!(decoded.next_iter, 3);
        assert_eq!(decoded.iterations.len(), 2);
        assert_eq!(
            decoded.iterations[0].dl.to_bits(),
            state.iterations[0].dl.to_bits()
        );
        let mid = decoded.mid.expect("mid present");
        assert_eq!(mid.assignment, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(mid.dl.to_bits(), 123.456f64.to_bits());
        assert!(decoded.lo.is_none());
        assert_eq!(decoded.hi.expect("hi present").num_blocks, 6);
    }

    #[test]
    fn file_roundtrip_and_atomic_overwrite() {
        let dir = std::env::temp_dir().join(format!("sbpc_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.sbpc");
        let state = sample_state();
        state.write_to(&path).expect("write");
        state.write_to(&path).expect("overwrite");
        let back = CheckpointState::read_from(&path).expect("read");
        assert_eq!(back.next_iter, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected_not_panicking() {
        let good = sample_state().encode();
        for cut in 0..good.len() {
            assert!(
                CheckpointState::decode(&good[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                // A flip may survive only by being rejected; it must
                // never be silently accepted (checksum covers payload,
                // header bytes are each validated).
                if let Ok(state) = CheckpointState::decode(&bad) {
                    panic!(
                        "bit flip at byte {byte} bit {bit} accepted (next_iter {})",
                        state.next_iter
                    );
                }
            }
        }
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        // Hand-craft a payload declaring a gigantic trajectory.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        write_u64(&mut payload, 4); // num_vertices
        write_u64(&mut payload, 3); // total weight
        write_u64(&mut payload, 0); // next_iter
        write_u64(&mut payload, u64::MAX); // trajectory length: absurd
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.push(0);
        buf.extend_from_slice(&payload);
        let sum = mix_bytes(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        match CheckpointState::decode(&buf) {
            Err(CheckpointError::Malformed(m)) => {
                assert!(m.contains("trajectory count"), "{m}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn non_dense_labels_are_rejected() {
        let mut state = sample_state();
        state.mid.as_mut().expect("mid").assignment[0] = 5; // ≥ num_blocks=3
        let err = CheckpointState::decode(&state.encode()).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    #[test]
    fn validate_catches_fingerprint_drift() {
        let state = sample_state();
        let strategy = McmcStrategy::MetropolisHastings;
        assert!(state.validate_against(42, &strategy, 6, 14).is_ok());
        assert!(state.validate_against(43, &strategy, 6, 14).is_err());
        assert!(state.validate_against(42, &strategy, 7, 14).is_err());
        assert!(state.validate_against(42, &strategy, 6, 15).is_err());
        assert!(state
            .validate_against(42, &McmcStrategy::Batch, 6, 14)
            .is_err());
    }
}
