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
//! Decoding is strict and hostile-input safe: every declared count is
//! checked against the bytes actually remaining *before* any allocation,
//! labels must be dense (`< num_blocks`), assignment lengths must match
//! the fingerprint, trailing bytes are rejected, and the checksum is
//! verified before any field is interpreted. Writes are atomic
//! (temp-file + rename), so a crash mid-write never leaves a torn file.

use crate::golden::{BracketEntry, GoldenBracket};
use crate::sbp::{IterationStat, McmcStrategy};
use sbp_graph::frame::checksum_bytes;
use sbp_graph::varint::{read_u64, write_u64};
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
        if self.num_vertices != num_vertices as u64 {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {} vertices, graph has {num_vertices}",
                self.num_vertices
            )));
        }
        if self.total_edge_weight != total_edge_weight {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot total edge weight {} != graph's {total_edge_weight}",
                self.total_edge_weight
            )));
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
        let mut payload = Vec::with_capacity(64 + self.assignment_bytes_hint());
        payload.extend_from_slice(&self.seed.to_le_bytes());
        write_u64(&mut payload, self.num_vertices);
        write_u64(&mut payload, self.total_edge_weight);
        write_u64(&mut payload, self.next_iter);
        write_u64(&mut payload, self.iterations.len() as u64);
        for stat in &self.iterations {
            write_u64(&mut payload, stat.num_blocks as u64);
            write_u64(&mut payload, stat.sweeps as u64);
            write_u64(&mut payload, stat.moves as u64);
            payload.extend_from_slice(&stat.dl.to_bits().to_le_bytes());
        }
        let mask = u8::from(self.hi.is_some())
            | (u8::from(self.mid.is_some()) << 1)
            | (u8::from(self.lo.is_some()) << 2);
        payload.push(mask);
        for entry in [&self.hi, &self.mid, &self.lo].into_iter().flatten() {
            write_u64(&mut payload, entry.num_blocks as u64);
            payload.extend_from_slice(&entry.dl.to_bits().to_le_bytes());
            write_u64(&mut payload, entry.assignment.len() as u64);
            for &label in &entry.assignment {
                write_u64(&mut payload, u64::from(label));
            }
        }
        let mut buf = Vec::with_capacity(payload.len() + 14);
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.push(self.strategy_tag);
        buf.extend_from_slice(&payload);
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
        let malformed = |m: &str| CheckpointError::Malformed(m.into());
        if buf.len() < MAGIC.len() + 2 + 8 {
            return Err(malformed("file shorter than the fixed header"));
        }
        if &buf[..4] != MAGIC {
            return Err(malformed("bad magic (not an .sbpc file)"));
        }
        if buf[4] != VERSION {
            return Err(CheckpointError::Malformed(format!(
                "unsupported version {}",
                buf[4]
            )));
        }
        let strategy_tag = buf[5];
        if strategy_tag > 3 {
            return Err(CheckpointError::Malformed(format!(
                "unknown strategy tag {strategy_tag}"
            )));
        }
        let payload = &buf[6..buf.len() - 8];
        let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
        if mix_bytes(&buf[..buf.len() - 8]) != stored {
            return Err(malformed("checksum mismatch"));
        }

        let mut pos = 0usize;
        let seed = read_le64(payload, &mut pos).ok_or_else(|| malformed("seed truncated"))?;
        let mut next = |what: &str| -> Result<u64, CheckpointError> {
            read_u64(payload, &mut pos)
                .ok_or_else(|| CheckpointError::Malformed(format!("{what} truncated")))
        };
        let num_vertices = next("num_vertices")?;
        if num_vertices > MAX_VERTICES {
            return Err(CheckpointError::Malformed(format!(
                "vertex count {num_vertices} exceeds the u32 label space"
            )));
        }
        let total_edge_weight = next("total_edge_weight")?;
        let next_iter = next("next_iter")?;

        let traj_len = next("trajectory length")? as usize;
        // Each entry occupies ≥ 11 bytes (three varints + le64 DL); a
        // larger declared count cannot fit and is rejected before the
        // vector is sized.
        let remaining = payload.len() - pos;
        if traj_len > remaining / 11 {
            return Err(CheckpointError::Malformed(format!(
                "trajectory count {traj_len} exceeds what {remaining} bytes could hold"
            )));
        }
        let mut iterations = Vec::with_capacity(traj_len);
        for _ in 0..traj_len {
            let num_blocks = read_u64(payload, &mut pos)
                .ok_or_else(|| malformed("trajectory entry truncated"))?;
            let sweeps = read_u64(payload, &mut pos)
                .ok_or_else(|| malformed("trajectory entry truncated"))?;
            let moves = read_u64(payload, &mut pos)
                .ok_or_else(|| malformed("trajectory entry truncated"))?;
            let dl = f64::from_bits(
                read_le64(payload, &mut pos).ok_or_else(|| malformed("trajectory DL truncated"))?,
            );
            iterations.push(IterationStat {
                num_blocks: usize::try_from(num_blocks)
                    .map_err(|_| malformed("trajectory block count out of range"))?,
                dl,
                sweeps: usize::try_from(sweeps)
                    .map_err(|_| malformed("trajectory sweep count out of range"))?,
                moves: usize::try_from(moves)
                    .map_err(|_| malformed("trajectory move count out of range"))?,
            });
        }

        let mask = *payload
            .get(pos)
            .ok_or_else(|| malformed("bracket mask truncated"))?;
        pos += 1;
        if mask > 0b111 {
            return Err(CheckpointError::Malformed(format!(
                "bracket mask {mask:#04x} has unknown bits set"
            )));
        }
        let mut entries: [Option<BracketEntry>; 3] = [None, None, None];
        for (bit, slot) in entries.iter_mut().enumerate() {
            if mask & (1 << bit) == 0 {
                continue;
            }
            let num_blocks =
                read_u64(payload, &mut pos).ok_or_else(|| malformed("bracket entry truncated"))?;
            let dl = f64::from_bits(
                read_le64(payload, &mut pos).ok_or_else(|| malformed("bracket DL truncated"))?,
            );
            let len = read_u64(payload, &mut pos)
                .ok_or_else(|| malformed("assignment length truncated"))?
                as usize;
            if len as u64 != num_vertices {
                return Err(CheckpointError::Malformed(format!(
                    "assignment length {len} != vertex count {num_vertices}"
                )));
            }
            // ≥ 1 byte per label: a count beyond the remaining bytes is
            // rejected before the vector is sized.
            let remaining = payload.len() - pos;
            if len > remaining {
                return Err(CheckpointError::Malformed(format!(
                    "assignment length {len} exceeds the {remaining} bytes remaining"
                )));
            }
            if num_blocks > num_vertices.max(1) {
                return Err(CheckpointError::Malformed(format!(
                    "block count {num_blocks} exceeds vertex count {num_vertices}"
                )));
            }
            let mut assignment = Vec::with_capacity(len);
            for _ in 0..len {
                let label =
                    read_u64(payload, &mut pos).ok_or_else(|| malformed("label truncated"))?;
                if label >= num_blocks {
                    return Err(CheckpointError::Malformed(format!(
                        "label {label} not below block count {num_blocks}"
                    )));
                }
                assignment.push(label as u32);
            }
            *slot = Some(BracketEntry {
                assignment,
                num_blocks: num_blocks as usize,
                dl,
            });
        }
        if pos != payload.len() {
            return Err(malformed("trailing bytes after bracket entries"));
        }
        let [hi, mid, lo] = entries;
        Ok(CheckpointState {
            seed,
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

    fn assignment_bytes_hint(&self) -> usize {
        [&self.hi, &self.mid, &self.lo]
            .into_iter()
            .flatten()
            .map(|e| e.assignment.len() * 2 + 16)
            .sum()
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "checkpoint.sbpc".into());
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

fn read_le64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
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
