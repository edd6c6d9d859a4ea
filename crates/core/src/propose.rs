//! The proposal distribution and Metropolis–Hastings correction.
//!
//! Follows the Graph-Challenge reference formulation (Peixoto '14; paper
//! §II-B): to propose a new block for vertex `v`, pick a random neighbor
//! `u` (edge-weight proportional), let `t = b(u)`; with probability
//! `B/(d_t + B)` propose a uniformly random block, otherwise propose a
//! block drawn proportionally to row + column `t` of the blockmodel. The
//! same machinery proposes merge targets for blocks (`agg = true`), where
//! the current block is excluded.
//!
//! A vertex proposal reads the graph (the vertex's self-loop weight, its
//! adjacency up to the drawn edge) and at most two lines of the
//! blockmodel, and nothing a sweep has gathered about the vertex: the
//! sweep draws first and gathers only when the draw names another block
//! ([`crate::hybrid`], [`crate::delta`]).
//!
//! The weighted scans walk matrix lines in canonical (ascending) order —
//! see [`crate::line`] — so a given random draw selects the same block on
//! every replica holding the same logical blockmodel, whatever storage
//! layout or move history produced it. This is one of the three
//! iteration sites the sharded ≡ monolithic bit-identity depends on (the
//! others are the ΔS kernels and the entropy sum).

use crate::blockmodel::Blockmodel;
use rand::Rng;
use sbp_graph::{Graph, Vertex, Weight};

/// Proposes a new block for vertex `v` (non-agglomerative: the current
/// block may be proposed, yielding a no-op move). `v`'s self-loop — asked
/// of the graph, [`Graph::self_loop_weight`] — tells us nothing about other
/// blocks, so it is excluded from the neighbor draw. Reads `v`'s adjacency
/// only as far as the drawn edge and two lines of the blockmodel at most:
/// a sweep calls it before it gathers anything about `v`.
///
/// Returns `None` for graphs with a single block (nothing to propose).
pub fn propose_for_vertex<R: Rng + ?Sized>(
    rng: &mut R,
    graph: &Graph,
    bm: &Blockmodel,
    v: Vertex,
) -> Option<u32> {
    let b = bm.num_blocks() as u32;
    if b <= 1 {
        return None;
    }
    let self_w = graph.self_loop_weight(v);
    let d_excl = graph.degree(v) - 2 * self_w;
    if d_excl <= 0 {
        // Isolated (or self-loop-only) vertex: uniform proposal.
        return Some(rng.random_range(0..b));
    }
    // Pick the neighbor edge weight-proportionally via a two-pass scan.
    let mut x = rng.random_range(0..d_excl);
    let mut t = None;
    for (u, w) in graph.out_edges(v).chain(graph.in_edges(v)) {
        if u == v {
            continue;
        }
        if x < w {
            t = Some(bm.block_of(u));
            break;
        }
        x -= w;
    }
    let t = t.expect("weighted scan must terminate within total weight");
    Some(propose_from_anchor(rng, bm, t, None))
}

/// Proposes a merge target for block `r` (agglomerative: `r` itself is
/// excluded). Returns `None` when no distinct block exists.
pub fn propose_for_block<R: Rng + ?Sized>(rng: &mut R, bm: &Blockmodel, r: u32) -> Option<u32> {
    let b = bm.num_blocks() as u32;
    if b <= 1 {
        return None;
    }
    // Neighbor blocks of r with weights M[r][t] + M[t][r], diagonal
    // excluded: row r and column r sum to the block's degrees.
    let total = bm.d_total(r) - 2 * bm.get(r, r);
    debug_assert_eq!(
        total,
        bm.row_iter(r)
            .chain(bm.col_iter(r))
            .filter(|&(t, _)| t != r)
            .map(|(_, m)| m)
            .sum::<Weight>(),
        "off-diagonal mass of block {r}"
    );
    if total <= 0 {
        // Isolated block: uniform among the others.
        return Some(uniform_excluding(rng, b, r));
    }
    let t = pick_weighted(bm, r, rng.random_range(0..total), Some(r));
    Some(propose_from_anchor(rng, bm, t, Some(r)))
}

/// The second proposal stage shared by vertex moves and merges: given the
/// anchor block `t` (the block of the sampled neighbor), either jump
/// uniformly (probability `B/(d_t + B)`) or follow a random edge incident
/// to `t` in the blockmodel. `exclude` implements the agglomerative rule
/// that a block cannot merge into itself.
fn propose_from_anchor<R: Rng + ?Sized>(
    rng: &mut R,
    bm: &Blockmodel,
    t: u32,
    exclude: Option<u32>,
) -> u32 {
    let b = bm.num_blocks() as u32;
    let dt = bm.d_total(t);
    let uniform_p = b as f64 / (dt as f64 + b as f64);
    if dt == 0 || rng.random::<f64>() < uniform_p {
        return match exclude {
            Some(r) => uniform_excluding(rng, b, r),
            None => rng.random_range(0..b),
        };
    }
    // Multinomial over row t ++ col t (total mass d_total(t)).
    let s = pick_weighted(bm, t, rng.random_range(0..dt), None);
    match exclude {
        Some(r) if s == r => uniform_excluding(rng, b, r),
        _ => s,
    }
}

/// Slots summed at a time by [`pick_dense`].
const PICK_CHUNK: usize = 16;

/// The block a weighted draw lands on along the canonical walk of row `t`
/// then column `t`, `skip`'s cells left out: the first cell whose running
/// weight total exceeds `x`. `x` must be below the total walked weight.
/// Dense lines are scanned a chunk at a time ([`pick_dense`]); sparse lines
/// are short and keep their cell walk. Either way the same `x` picks the
/// same block — this is one of the walks bit-identity rests on.
#[doc(hidden)]
pub fn pick_weighted(bm: &Blockmodel, t: u32, x: Weight, skip: Option<u32>) -> u32 {
    let picked = match (bm.dense_row(t), bm.dense_col(t)) {
        (Some(row), Some(col)) => pick_dense(row, x, skip).or_else(|x| pick_dense(col, x, skip)),
        _ => pick_by_cells(bm, t, x, skip),
    };
    picked.expect("weighted scan must terminate within total weight")
}

/// [`pick_weighted`] cell by cell on either storage — the sparse path, and
/// on dense storage the slot-by-slot scan the chunked one is tested and
/// benchmarked against. `Err` carries what is left of `x`.
#[doc(hidden)]
pub fn pick_by_cells(
    bm: &Blockmodel,
    t: u32,
    mut x: Weight,
    skip: Option<u32>,
) -> Result<u32, Weight> {
    for (c, m) in bm.row_iter(t).chain(bm.col_iter(t)) {
        if Some(c) == skip {
            continue;
        }
        if x < m {
            return Ok(c);
        }
        x -= m;
    }
    Err(x)
}

/// One dense line of a weighted pick: `Ok(slot)` where the running total
/// of the line (without slot `skip`) first exceeds `x`, or `Err(x − line
/// total)` when it never does. Whole chunks of [`PICK_CHUNK`] slots are
/// summed and stepped over — the sums are exact integer adds, so the
/// prefix `x` falls in is the one a slot-by-slot scan finds — and only the
/// chunk holding the answer is scanned slot by slot. Every slot is widened
/// before it is added: a chunk of 32-bit cells can sum past 32 bits.
fn pick_dense(line: &[u32], mut x: Weight, skip: Option<u32>) -> Result<u32, Weight> {
    let skip = skip.map_or(usize::MAX, |r| r as usize);
    for (chunk_idx, chunk) in line.chunks(PICK_CHUNK).enumerate() {
        let base = chunk_idx * PICK_CHUNK;
        let mut sum: Weight = chunk.iter().map(|&m| Weight::from(m)).sum();
        if let Some(&skipped) = chunk.get(skip.wrapping_sub(base)) {
            sum -= Weight::from(skipped);
        }
        if x >= sum {
            x -= sum;
            continue;
        }
        for (i, m) in chunk.iter().map(|&m| Weight::from(m)).enumerate() {
            if base + i == skip {
                continue;
            }
            if x < m {
                return Ok((base + i) as u32);
            }
            x -= m;
        }
        unreachable!("x is below this chunk's sum");
    }
    Err(x)
}

fn uniform_excluding<R: Rng + ?Sized>(rng: &mut R, b: u32, excl: u32) -> u32 {
    debug_assert!(b >= 2);
    let s = rng.random_range(0..b - 1);
    if s >= excl {
        s + 1
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{hastings_for_delta, vertex_move_delta};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_triangles() -> Graph {
        Graph::from_edges(
            6,
            vec![
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 3, 1),
                (2, 3, 1),
            ],
        )
    }

    #[test]
    fn vertex_proposals_are_in_range() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..500 {
            for v in 0..6u32 {
                let s = propose_for_vertex(&mut rng, &g, &bm, v).unwrap();
                assert!(s < 2);
            }
        }
    }

    #[test]
    fn block_proposals_never_return_self() {
        let g = two_triangles();
        let bm = Blockmodel::identity(&g);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..500 {
            for r in 0..6u32 {
                let s = propose_for_block(&mut rng, &bm, r).unwrap();
                assert_ne!(s, r);
                assert!(s < 6);
            }
        }
    }

    #[test]
    fn single_block_proposals_return_none() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0; 6], 1);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(propose_for_vertex(&mut rng, &g, &bm, 0).is_none());
        assert!(propose_for_block(&mut rng, &bm, 0).is_none());
    }

    #[test]
    fn isolated_vertex_gets_uniform_proposals() {
        let g = Graph::from_edges(4, vec![(0, 1, 1), (1, 0, 1)]);
        let bm = Blockmodel::from_assignment(&g, vec![0, 1, 2, 3], 4);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..400 {
            seen[propose_for_vertex(&mut rng, &g, &bm, 3).unwrap() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform proposal missed a block");
    }

    #[test]
    fn proposals_favor_connected_blocks() {
        // Vertex 2 sits in block 0 with an edge into block 1; block 2 is a
        // far-away clique it has no contact with. Proposals should hit
        // block 1 much more often than block 2.
        let mut edges = vec![
            (0, 1, 5),
            (1, 2, 5),
            (2, 0, 5),
            (3, 4, 5),
            (4, 5, 5),
            (5, 3, 5),
            (2, 3, 5),
        ];
        // A third clique 6,7,8 disconnected from everything.
        edges.extend_from_slice(&[(6, 7, 5), (7, 8, 5), (8, 6, 5)]);
        let g = Graph::from_edges(9, edges);
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[propose_for_vertex(&mut rng, &g, &bm, 2).unwrap() as usize] += 1;
        }
        assert!(
            counts[1] > 3 * counts[2],
            "connected block not favored: {counts:?}"
        );
    }

    #[test]
    fn hastings_for_delta_is_reciprocal() {
        // The correction for r→s evaluated pre-move must be the reciprocal
        // of the s→r correction evaluated post-move.
        let g = two_triangles();
        let mut bm = Blockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let v = 2u32;
        let d_fwd = vertex_move_delta(&g, &bm, v, 1);
        let h_fwd = hastings_for_delta(&g, &bm, v, &d_fwd);
        bm.move_vertex(&g, v, 1);
        let d_bwd = vertex_move_delta(&g, &bm, v, 0);
        let h_bwd = hastings_for_delta(&g, &bm, v, &d_bwd);
        assert!(
            (h_fwd * h_bwd - 1.0).abs() < 1e-9,
            "h_fwd={h_fwd} h_bwd={h_bwd}"
        );
    }

    #[test]
    fn hastings_for_delta_is_positive_and_finite() {
        let g = two_triangles();
        let bm = Blockmodel::from_assignment(&g, vec![0, 0, 1, 1, 2, 2], 3);
        for v in 0..6u32 {
            for to in 0..3u32 {
                if to == bm.block_of(v) {
                    continue;
                }
                let d = vertex_move_delta(&g, &bm, v, to);
                let h = hastings_for_delta(&g, &bm, v, &d);
                assert!(h.is_finite() && h > 0.0, "v={v} to={to}: h={h}");
            }
        }
    }

    /// The chunked dense pick against the slot-by-slot scan it stands in
    /// for, for every draw on every line: lengths around one and two
    /// chunks, zero runs at either end and across a chunk boundary, the
    /// skipped slot in the first, a middle and the last chunk — and as the
    /// only weight in its chunk, so the chunk sums to zero once it is
    /// taken out. `x` = the total walks off the end, in both.
    #[test]
    fn chunked_pick_is_the_slot_by_slot_pick() {
        let slot_by_slot = |line: &[u32], mut x: Weight, skip: Option<u32>| {
            for (i, m) in line.iter().map(|&m| Weight::from(m)).enumerate() {
                if Some(i as u32) == skip {
                    continue;
                }
                if x < m {
                    return Ok(i as u32);
                }
                x -= m;
            }
            Err(x)
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1usize, 15, 16, 17, 31, 32, 33, 50, 100] {
            for shape in 0..4 {
                let mut line: Vec<u32> = (0..len)
                    .map(|_| {
                        if next() % 3 == 0 {
                            0
                        } else {
                            1 + (next() % 4) as u32
                        }
                    })
                    .collect();
                match shape {
                    1 => line[..len / 3].fill(0),
                    2 => line[len - len / 3..].fill(0),
                    3 => line[len / 2..(len / 2 + 20).min(len)].fill(0),
                    _ => {}
                }
                let skips = [0, len / 2, len - 1].map(|i| Some(i as u32));
                for skip in [None].into_iter().chain(skips) {
                    let kept = |i: usize| Some(i as u32) != skip;
                    let total: Weight = (0..len)
                        .filter(|&i| kept(i))
                        .map(|i| Weight::from(line[i]))
                        .sum();
                    for x in 0..=total {
                        assert_eq!(
                            pick_dense(&line, x, skip),
                            slot_by_slot(&line, x, skip),
                            "len {len} shape {shape} skip {skip:?} x {x}"
                        );
                    }
                }
            }
        }
        // The skipped slot is all its chunk holds.
        let mut line = vec![0; 48];
        (line[3], line[20], line[40]) = (2, 7, 1);
        for x in 0..3 {
            let want = if x < 2 { 3 } else { 40 };
            assert_eq!(pick_dense(&line, x, Some(20)), Ok(want), "x {x}");
        }
        assert_eq!(pick_dense(&line, 3, Some(20)), Err(0));
        // Cells far past the `ln` table, close to `u32::MAX`: a chunk of
        // them sums past 32 bits. Every prefix boundary of the walk, and
        // one either side of it.
        let heavy: Vec<u32> = (0..40u32)
            .map(|i| if i % 3 == 0 { 0 } else { u32::MAX - i * 65_537 })
            .collect();
        for skip in [None, Some(4)] {
            let mut prefix: Weight = 0;
            for (i, &m) in heavy.iter().enumerate() {
                if Some(i as u32) == skip {
                    continue;
                }
                prefix += Weight::from(m);
                for x in [prefix - 1, prefix, prefix + 1] {
                    assert_eq!(
                        pick_dense(&heavy, x, skip),
                        slot_by_slot(&heavy, x, skip),
                        "heavy skip {skip:?} x {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_excluding_never_returns_excluded() {
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            for excl in 0..5u32 {
                let s = uniform_excluding(&mut rng, 5, excl);
                assert_ne!(s, excl);
                assert!(s < 5);
            }
        }
    }
}
