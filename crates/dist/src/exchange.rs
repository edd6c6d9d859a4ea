//! Wire encodings for EDiSt's collective payloads, built on the shared
//! [`sbp_graph::varint`] codec.
//!
//! Three payload kinds exist, and since the single-payload sync they all
//! travel in **one** allgather per sync point (framed by
//! `concat_sections` with a tiny varint length header):
//!
//! * **Move lists** `(vertex, to)` — delta + zigzag + varint. Vertices
//!   inside one rank's sweep arrive roughly in ownership order, so the
//!   deltas are small; block ids are near-repeating. On the paper's
//!   graphs this cuts the exchange to ~2–3 bytes/move from 8 raw.
//! * **Cell deltas** `(row, col, ±weight)` — the sharded driver's
//!   blockmodel synchronization. Sorted by `(row, col)` before encoding,
//!   so the keys are a pair run ([`sbp_graph::varint::write_pair`], the
//!   `.sbps` edge list's own); weights are signed (zigzag).
//! * **Cut arcs** `(src, dst, weight)` of moved vertices — the sharded
//!   sync's cross-term inputs (see `sharded.rs`), reusing the
//!   cell codec (sorted unique pairs, positive weights).
//!
//! All decoders are **strict and fallible**: malformed input returns a
//! typed [`DecodeError`], never panics, and never allocates beyond the
//! declared decode limits — every element count is checked against the
//! bytes actually remaining *before* the output vector is sized, and
//! section headers are bounds-checked before slicing. A decode failure
//! in a live cluster (a corrupted frame, a hostile peer once a real
//! transport exists) aborts the schedule coordinately instead of
//! crashing the rank — see `crate::error`. All codecs roundtrip
//! bit-exactly, which is load-bearing: the move exchange is part of
//! EDiSt's exactness story, so compression must never be lossy.

use crate::error::DecodeError;
use sbp_core::mcmc::AcceptedMove;
use sbp_graph::varint::{
    read_i64, read_pair, read_u64, write_i64, write_pair, write_u64, PairError,
};
use sbp_graph::{Vertex, Weight};
use sbp_mpi::Communicator;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Section framing, re-exported from [`sbp_graph::frame`] (shared with
/// the TCP transport's handshake frames): [`concat_sections`] packs a
/// whole sync point into one allgather payload, [`split_sections`]
/// strictly unpacks it, and [`MAX_SECTIONS`] caps the header walk.
pub use sbp_graph::frame::{concat_sections, split_sections, MAX_SECTIONS};

/// Bytes a move list would occupy as raw fixed-width pairs — the
/// uncompressed baseline [`sbp_mpi::ClusterReport::move_bytes_raw`]
/// reports.
pub(crate) fn raw_move_bytes(count: usize) -> u64 {
    (count * std::mem::size_of::<AcceptedMove>()) as u64
}

/// Encodes a move list (chronological order preserved).
pub fn encode_moves(moves: &[AcceptedMove]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(moves.len() * 3 + 4);
    write_u64(&mut buf, moves.len() as u64);
    let (mut prev_v, mut prev_to) = (0i64, 0i64);
    for m in moves {
        write_i64(&mut buf, i64::from(m.v) - prev_v);
        write_i64(&mut buf, i64::from(m.to) - prev_to);
        prev_v = i64::from(m.v);
        prev_to = i64::from(m.to);
    }
    buf
}

/// Decodes a move list produced by [`encode_moves`]. Strict: rejects
/// truncation, out-of-range values, trailing bytes, and counts that
/// could not fit in the buffer (each move occupies ≥ 2 bytes, checked
/// before allocating).
pub fn decode_moves(buf: &[u8]) -> Result<Vec<AcceptedMove>, DecodeError> {
    const WHAT: &str = "move";
    let truncated = DecodeError::Truncated { what: WHAT };
    let mut pos = 0usize;
    let count = read_u64(buf, &mut pos).ok_or(truncated.clone())? as usize;
    let max = (buf.len() - pos) / 2;
    if count > max {
        return Err(DecodeError::CountExceedsPayload {
            what: WHAT,
            declared: count as u64,
            max: max as u64,
        });
    }
    let mut moves = Vec::with_capacity(count);
    let (mut prev_v, mut prev_to) = (0i64, 0i64);
    for _ in 0..count {
        prev_v = prev_v
            .checked_add(read_i64(buf, &mut pos).ok_or(truncated.clone())?)
            .ok_or(DecodeError::ValueOutOfRange {
                what: "move vertex",
            })?;
        prev_to = prev_to
            .checked_add(read_i64(buf, &mut pos).ok_or(truncated.clone())?)
            .ok_or(DecodeError::ValueOutOfRange {
                what: "move target",
            })?;
        moves.push(AcceptedMove {
            v: u32::try_from(prev_v).map_err(|_| DecodeError::ValueOutOfRange {
                what: "move vertex",
            })?,
            to: u32::try_from(prev_to).map_err(|_| DecodeError::ValueOutOfRange {
                what: "move target",
            })?,
        });
    }
    if pos != buf.len() {
        return Err(DecodeError::TrailingBytes { what: WHAT });
    }
    Ok(moves)
}

/// Rejects rank `from`'s decoded move list unless every vertex is one of
/// `num_vertices` and owned by `from` (`owner_of`), and every target one
/// of `num_blocks` blocks — what a replica can apply. The codec accepts
/// any `u32`, so a well-formed frame can carry either out of range; and a
/// vertex moves only on its owner, so a replica that owns a vertex a peer
/// claims to move would count the move as applied in-sweep and part from
/// the others silently.
pub(crate) fn check_moves(
    moves: &[AcceptedMove],
    num_vertices: usize,
    num_blocks: usize,
    from: usize,
    owner_of: impl Fn(Vertex) -> usize,
) -> Result<(), DecodeError> {
    let out_of_range = |what| Err(DecodeError::ValueOutOfRange { what });
    for m in moves {
        if m.v as usize >= num_vertices {
            return out_of_range("move vertex");
        }
        if m.to as usize >= num_blocks {
            return out_of_range("move target");
        }
        if owner_of(m.v) != from {
            return out_of_range("move vertex owner");
        }
    }
    Ok(())
}

/// Sums `(row, col, ±weight)` charges per cell — the aggregation behind
/// every cell list this crate ships, and behind the cross terms a sync
/// point derives itself (cell lists that arrive already folded are summed
/// by [`merge_cells`] instead). Charges are pushed as
/// `(row << 32 | col, w)` and folded once by sort
/// (`sbp_core::line::CanonicalLine::from_unsorted` does the same per
/// matrix line), so a charge costs a `Vec` push instead of a tree descent.
/// Integer sums are order-independent: the result depends on the multiset
/// of charges only.
#[derive(Debug, Default)]
pub struct CellFold {
    raw: Vec<(u64, Weight)>,
}

impl CellFold {
    /// A fold with room for `charges` charges, for a caller that can bound
    /// them up front: pushing no more than that never reallocates.
    pub fn with_capacity(charges: usize) -> Self {
        CellFold {
            raw: Vec::with_capacity(charges),
        }
    }

    /// Charges pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.raw.len()
    }

    /// Charges `w` to cell `(row, col)`.
    #[inline]
    pub fn add(&mut self, row: u32, col: u32, w: Weight) {
        self.raw.push((u64::from(row) << 32 | u64::from(col), w));
    }

    /// The summed cells, strictly ascending by `(row, col)` — what
    /// [`encode_cells`] requires — with cells that sum to zero dropped.
    ///
    /// Folds inside the charge buffer: sort, sum each run, drop zeros,
    /// shrink to the cells left, then unpack the keys in place (a packed
    /// charge and an unpacked cell are both 16 bytes, so the collect reuses
    /// the allocation). No second buffer is allocated.
    pub fn finish(self) -> Vec<(u32, u32, Weight)> {
        let mut raw = self.raw;
        raw.sort_unstable_by_key(|&(key, _)| key);
        raw.dedup_by(|charge, run| {
            let same = charge.0 == run.0;
            if same {
                run.1 += charge.1;
            }
            same
        });
        raw.retain(|&(_, w)| w != 0);
        raw.shrink_to_fit();
        raw.into_iter()
            .map(|(key, w)| ((key >> 32) as u32, key as u32, w))
            .collect()
    }
}

// `finish` unpacks the folded charges in place only while a charge and a
// cell have the same size and alignment.
const _: () = {
    use std::mem::{align_of, size_of};
    assert!(size_of::<(u64, Weight)>() == size_of::<(u32, u32, Weight)>());
    assert!(align_of::<(u64, Weight)>() == align_of::<(u32, u32, Weight)>());
};

impl Extend<(u32, u32, Weight)> for CellFold {
    fn extend<I: IntoIterator<Item = (u32, u32, Weight)>>(&mut self, cells: I) {
        for (row, col, w) in cells {
            self.add(row, col, w);
        }
    }
}

/// Sums cell lists that are each ascending by `(row, col)` — what
/// [`CellFold::finish`] emits and [`decode_cells`] accepts — into one
/// strictly ascending list, summing the cells the lists share and dropping
/// those that sum to zero: [`CellFold`]'s result on their concatenation,
/// with no buffer or sort of its own. A heap of list cursors keeps the
/// cost per cell logarithmic in the number of lists.
pub fn merge_cells(
    lists: Vec<Vec<(u32, u32, Weight)>>,
) -> impl Iterator<Item = (u32, u32, Weight)> {
    let mut lists: Vec<_> = lists.into_iter().map(Vec::into_iter).collect();
    let mut heads = BinaryHeap::with_capacity(lists.len());
    for (at, list) in lists.iter_mut().enumerate() {
        if let Some((r, c, w)) = list.next() {
            heads.push(Reverse((r, c, at, w)));
        }
    }
    std::iter::from_fn(move || loop {
        let &Reverse((r, c, ..)) = heads.peek()?;
        let mut sum: Weight = 0;
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((hr, hc, at, w)) = *head;
            if (hr, hc) != (r, c) {
                break;
            }
            sum += w;
            match lists[at].next() {
                Some((nr, nc, nw)) => {
                    debug_assert!((nr, nc) >= (hr, hc), "cell list {at} not ascending");
                    head.0 = (nr, nc, at, nw);
                }
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        if sum != 0 {
            return Some((r, c, sum));
        }
    })
}

/// Encodes `(row, col, delta)` cells: a count, then the cells as a pair
/// run ([`write_pair`]), each pair followed by its zigzag delta. Cells
/// must be sorted by `(row, col)` with unique keys ([`CellFold::finish`]
/// guarantees both).
pub fn encode_cells(cells: &[(u32, u32, Weight)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(cells.len() * 4 + 4);
    write_u64(&mut buf, cells.len() as u64);
    let mut prev = None;
    for &(r, c, w) in cells {
        write_pair(&mut buf, prev, (r, c));
        write_i64(&mut buf, w);
        prev = Some((r, c));
    }
    buf
}

/// Decodes a cell list produced by [`encode_cells`]. Strict and
/// allocation-bounded like [`decode_moves`] (each cell occupies ≥ 3
/// bytes, checked before allocating).
pub fn decode_cells(buf: &[u8]) -> Result<Vec<(u32, u32, Weight)>, DecodeError> {
    const WHAT: &str = "cell";
    let truncated = DecodeError::Truncated { what: WHAT };
    let mut pos = 0usize;
    let count = read_u64(buf, &mut pos).ok_or(truncated.clone())? as usize;
    let max = (buf.len() - pos) / 3;
    if count > max {
        return Err(DecodeError::CountExceedsPayload {
            what: WHAT,
            declared: count as u64,
            max: max as u64,
        });
    }
    let out_of_range = |what| DecodeError::ValueOutOfRange { what };
    let mut cells = Vec::with_capacity(count);
    let mut prev = None;
    for _ in 0..count {
        let (r, c) = read_pair(buf, &mut pos, prev).map_err(|e| match e {
            PairError::Truncated => truncated.clone(),
            PairError::RowOverflow => out_of_range("cell row"),
            PairError::ColOverflow => out_of_range("cell col"),
        })?;
        let w = read_i64(buf, &mut pos).ok_or(truncated.clone())?;
        let r = u32::try_from(r).map_err(|_| out_of_range("cell row"))?;
        let c = u32::try_from(c).map_err(|_| out_of_range("cell col"))?;
        cells.push((r, c, w));
        prev = Some((r, c));
    }
    if pos != buf.len() {
        return Err(DecodeError::TrailingBytes { what: WHAT });
    }
    Ok(cells)
}

/// Per-rank accounting of the move exchange; the byte counts are summed
/// into [`sbp_mpi::ClusterReport`] by the solver wrappers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Bytes the exchange would have sent as raw fixed-width pairs.
    pub move_bytes_raw: u64,
    /// Bytes actually sent after delta + varint encoding.
    pub move_bytes_encoded: u64,
    /// Nanoseconds spent inside the sync points' allgathers — the wire
    /// plus waiting for the slowest peer. Observe-only, and zero while
    /// [`sbp_metrics::enabled`] is off.
    pub sync_wait_ns: u64,
}

impl ExchangeStats {
    pub(crate) fn record(&mut self, moves: usize, encoded: usize) {
        self.move_bytes_raw += raw_move_bytes(moves);
        self.move_bytes_encoded += encoded as u64;
    }

    /// A sync point's one collective, its duration charged to
    /// [`sync_wait_ns`](Self::sync_wait_ns).
    pub(crate) fn allgather<C: Communicator>(
        &mut self,
        comm: &C,
        payload: Vec<u8>,
    ) -> Vec<Vec<u8>> {
        let started = sbp_metrics::enabled().then(Instant::now);
        let payloads = comm.allgatherv(payload);
        if let Some(started) = started {
            self.sync_wait_ns += started.elapsed().as_nanos() as u64;
        }
        payloads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn moves_roundtrip_bit_exact() {
        let moves = vec![
            AcceptedMove { v: 5, to: 2 },
            AcceptedMove { v: 3, to: 2 },
            AcceptedMove { v: 900_000, to: 0 },
            AcceptedMove { v: 0, to: u32::MAX },
        ];
        assert_eq!(decode_moves(&encode_moves(&moves)).expect("ok"), moves);
        assert_eq!(decode_moves(&encode_moves(&[])).expect("ok"), vec![]);
    }

    #[test]
    fn nearby_moves_compress_well() {
        let moves: Vec<AcceptedMove> = (0..1000)
            .map(|i| AcceptedMove {
                v: i * 3,
                to: (i / 100) % 4,
            })
            .collect();
        let encoded = encode_moves(&moves);
        assert!(
            (encoded.len() as u64) * 2 < raw_move_bytes(moves.len()),
            "{} bytes not < half of {}",
            encoded.len(),
            raw_move_bytes(moves.len())
        );
    }

    #[test]
    fn cells_roundtrip_including_negative_deltas() {
        let cells = vec![
            (0u32, 0u32, -4i64),
            (0, 7, 4),
            (2, 1, i64::MAX),
            (2, 2, i64::MIN + 1),
            (9, 0, 1),
        ];
        assert_eq!(decode_cells(&encode_cells(&cells)).expect("ok"), cells);
        assert_eq!(decode_cells(&encode_cells(&[])).expect("ok"), vec![]);
    }

    /// The fold against the tree it replaced, zeros dropped.
    fn assert_folds_like_a_btreemap(charges: &[(u32, u32, Weight)]) {
        let mut tree: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
        let mut fold = CellFold::default();
        for &(r, c, w) in charges {
            *tree.entry((r, c)).or_insert(0) += w;
            fold.add(r, c, w);
        }
        let want: Vec<(u32, u32, Weight)> = tree
            .into_iter()
            .filter(|&(_, w)| w != 0)
            .map(|((r, c), w)| (r, c, w))
            .collect();
        let got = fold.finish();
        assert_eq!(got, want);
        assert!(got.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        // Folded and unpacked in its own buffer, shrunk to the cells left.
        assert_eq!(got.capacity(), got.len());
        // What the fold emits is what the cell codec requires.
        assert_eq!(decode_cells(&encode_cells(&got)).expect("ok"), got);
    }

    #[test]
    fn cell_fold_matches_btreemap_reference() {
        assert_folds_like_a_btreemap(&[]);
        // Already sorted, nothing to merge.
        assert_folds_like_a_btreemap(&[(0, 1, 2), (0, 2, -3), (4, 0, 1)]);
        // Runs that cancel to zero at the front, in the middle and at the
        // end, and a zero charge on its own.
        assert_folds_like_a_btreemap(&[
            (9, 9, -2),
            (0, 0, 1),
            (5, 5, 4),
            (9, 9, 2),
            (0, 0, -1),
            (3, 1, 0),
            (5, 5, -4),
            (5, 6, 7),
        ]);
        // Keys at the edge of the packing: row and col must not bleed
        // into each other.
        let m = u32::MAX;
        assert_folds_like_a_btreemap(&[
            (m, m, 1),
            (0, m, 2),
            (m, 0, 3),
            (m, m, 4),
            (m - 1, m, 5),
            (0, m, -2),
            (1, 0, 6),
        ]);
        // Random charges over a small key space: many duplicates, many
        // cancellations.
        let mut rng = SmallRng::seed_from_u64(18);
        for round in 0..50u32 {
            let n = rng.random_range(0..400usize);
            let span = 1 + round % 7;
            let charges: Vec<(u32, u32, Weight)> = (0..n)
                .map(|_| {
                    (
                        rng.random_range(0..span),
                        rng.random_range(0..span),
                        rng.random_range(-3..=3i64),
                    )
                })
                .collect();
            assert_folds_like_a_btreemap(&charges);
        }
        // Random charges over keys that reach `u32::MAX` in either half of
        // the packing, with a share of them (every one, each fourth round)
        // charged back to zero in shuffled order.
        for round in 0..60u32 {
            let key = |rng: &mut SmallRng| match rng.random_range(0..3u32) {
                0 => rng.random_range(0..4u32),
                1 => m - rng.random_range(0..4u32),
                _ => rng.random_range(0..=m),
            };
            let mut charges: Vec<(u32, u32, Weight)> = (0..rng.random_range(0..300usize))
                .map(|_| (key(&mut rng), key(&mut rng), rng.random_range(-5..=5i64)))
                .collect();
            let cancelling: Vec<(u32, u32, Weight)> = charges
                .iter()
                .filter(|_| round % 4 == 0 || rng.random_bool(0.3))
                .map(|&(r, c, w)| (r, c, -w))
                .collect();
            for charge in cancelling {
                let at = rng.random_range(0..=charges.len());
                charges.insert(at, charge);
            }
            assert_folds_like_a_btreemap(&charges);
        }
    }

    /// The k-way merge against a tree fold of the lists' concatenation.
    fn assert_merges_like_a_btreemap(lists: &[Vec<(u32, u32, Weight)>]) {
        let mut tree: BTreeMap<(u32, u32), Weight> = BTreeMap::new();
        for &(r, c, w) in lists.iter().flatten() {
            *tree.entry((r, c)).or_insert(0) += w;
        }
        let want: Vec<(u32, u32, Weight)> = tree
            .into_iter()
            .filter(|&(_, w)| w != 0)
            .map(|((r, c), w)| (r, c, w))
            .collect();
        assert_eq!(
            merge_cells(lists.to_vec()).collect::<Vec<_>>(),
            want,
            "{lists:?}"
        );
    }

    /// A list as a peer's share section arrives: folded, so strictly
    /// ascending and zero-free.
    fn folded(charges: impl IntoIterator<Item = (u32, u32, Weight)>) -> Vec<(u32, u32, Weight)> {
        let mut fold = CellFold::default();
        fold.extend(charges);
        fold.finish()
    }

    #[test]
    fn merge_cells_matches_a_btreemap_fold_of_the_concatenation() {
        let m = u32::MAX;
        assert_merges_like_a_btreemap(&[]);
        assert_merges_like_a_btreemap(&[vec![], vec![]]);
        assert_merges_like_a_btreemap(&[vec![(0, 1, 2), (3, 0, -1)]]);
        // Runs that cancel to zero across lists, at the front, in the
        // middle and at the end, beside empty lists.
        assert_merges_like_a_btreemap(&[
            vec![(0, 0, 1), (2, 2, 5), (m, m, -3)],
            vec![],
            vec![(0, 0, -1), (2, 2, -2), (2, 3, 1)],
            vec![(2, 2, -3), (m, m, 3)],
        ]);
        // Keys at the edge of the packing in every list.
        assert_merges_like_a_btreemap(&[
            vec![(0, m, 2), (m - 1, m, 5), (m, 0, 3), (m, m, 1)],
            vec![(0, m, -2), (1, 0, 6), (m, m, 4)],
        ]);
        let mut rng = SmallRng::seed_from_u64(35);
        for round in 0..200u32 {
            let lists = 1 + round as usize % 4;
            let key = |rng: &mut SmallRng| match rng.random_range(0..3u32) {
                0 => rng.random_range(0..4u32),
                1 => m - rng.random_range(0..4u32),
                _ => rng.random_range(0..=m),
            };
            let span = 1 + round % 9;
            let mut lists: Vec<_> = (0..lists)
                .map(|_| {
                    let n = rng.random_range(0..60usize);
                    folded((0..n).map(|_| {
                        let (r, c) = if round % 2 == 0 {
                            (rng.random_range(0..span), rng.random_range(0..span))
                        } else {
                            (key(&mut rng), key(&mut rng))
                        };
                        (r, c, rng.random_range(-3..=3i64))
                    }))
                })
                .collect();
            // Every fourth round, the last list cancels the others.
            if round % 4 == 3 {
                let all: Vec<_> = lists
                    .iter()
                    .flatten()
                    .map(|&(r, c, w)| (r, c, -w))
                    .collect();
                lists.push(folded(all));
            }
            assert_merges_like_a_btreemap(&lists);
        }
    }

    #[test]
    fn truncated_move_payload_errors() {
        let buf = encode_moves(&[AcceptedMove { v: 1, to: 1 }]);
        for cut in 0..buf.len() {
            let r = decode_moves(&buf[..cut]);
            assert!(r.is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn crafted_move_count_is_rejected_before_allocation() {
        // Header declares u64::MAX moves over a 1-byte body: the count
        // check must reject it without sizing a vector from it.
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.push(0);
        match decode_moves(&buf) {
            Err(DecodeError::CountExceedsPayload { declared, .. }) => {
                assert_eq!(declared, u64::MAX);
            }
            other => panic!("expected CountExceedsPayload, got {other:?}"),
        }
    }

    #[test]
    fn crafted_cell_count_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 60);
        buf.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_cells(&buf),
            Err(DecodeError::CountExceedsPayload { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = encode_moves(&[AcceptedMove { v: 1, to: 1 }]);
        buf.push(0);
        assert!(matches!(
            decode_moves(&buf),
            Err(DecodeError::TrailingBytes { .. })
        ));
        let mut buf = encode_cells(&[(1, 2, 3)]);
        buf.push(7);
        assert!(matches!(
            decode_cells(&buf),
            Err(DecodeError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn sections_roundtrip_through_one_buffer() {
        let moves = encode_moves(&[AcceptedMove { v: 9, to: 1 }, AcceptedMove { v: 2, to: 0 }]);
        let cells = encode_cells(&[(0, 3, -2), (1, 1, 5)]);
        let cuts = encode_cells(&[]);
        let framed = concat_sections([&moves, &cells, &cuts]);
        let [m, ce, cu] = split_sections::<3>(&framed).expect("well-formed");
        assert_eq!(m, &moves[..]);
        assert_eq!(ce, &cells[..]);
        assert_eq!(cu, &cuts[..]);
        assert_eq!(decode_moves(m).expect("ok").len(), 2);
        assert_eq!(decode_cells(ce).expect("ok"), vec![(0, 3, -2), (1, 1, 5)]);
        assert!(decode_cells(cu).expect("ok").is_empty());
    }

    #[test]
    fn oversized_section_header_errors() {
        let moves = encode_moves(&[]);
        let cells = encode_cells(&[]);
        let mut framed = concat_sections([&moves, &cells, &[][..]]);
        framed[0] = 200; // claim a longer first section than the buffer holds
        assert!(matches!(
            split_sections::<3>(&framed),
            Err(DecodeError::SectionOutOfBounds { .. })
        ));
    }

    #[test]
    fn truncated_section_header_errors() {
        assert!(matches!(
            split_sections::<3>(&[]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn overflowing_section_header_errors() {
        // A header whose declared length wraps pos + len past usize::MAX.
        let mut framed = Vec::new();
        write_u64(&mut framed, u64::MAX);
        write_u64(&mut framed, 0);
        framed.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            split_sections::<3>(&framed),
            Err(DecodeError::SectionOutOfBounds { .. })
        ));
    }
}
