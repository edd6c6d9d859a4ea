//! Property-based tests for the inference engine's load-bearing math.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbp_core::delta::{
    delta_entropy, hastings_for_delta, merge_delta, vertex_move_delta, DeltaScratch,
};
use sbp_core::mcmc::mh_sweep;
use sbp_core::merge::{apply_merges, MergeCandidate};
use sbp_core::propose::{pick_by_cells, pick_weighted};
use sbp_core::{Blockmodel, StorageKind};
use sbp_gen::{graph_challenge, Difficulty};
use sbp_graph::Graph;

/// `(ΔS, H)` from the O(deg) kernel, through the scratch the way a sweep
/// drives it.
fn evaluate(s: &mut DeltaScratch, g: &Graph, bm: &Blockmodel, v: u32, to: u32) -> (f64, f64) {
    s.gather_vertex(g, bm, v);
    s.evaluate_move(g, bm, v, to)
}

/// (num vertices, weighted edges, assignment, num blocks).
type GraphAssignment = (usize, Vec<(u32, u32, i64)>, Vec<u32>, usize);

/// Random small graph + a valid assignment into `c` blocks.
fn arb_graph_and_assignment() -> impl Strategy<Value = GraphAssignment> {
    (4usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1i64..4), 1..80);
        (2usize..5).prop_flat_map(move |c| {
            let assignment = proptest::collection::vec(0..c as u32, n);
            (Just(n), edges.clone(), assignment, Just(c))
        })
    })
}

proptest! {
    /// The ΔS for ANY vertex move — line-walk reference and O(deg) kernel
    /// alike — equals a full entropy recompute, and the kernel's Hastings
    /// correction is the reference's to the bit.
    #[test]
    fn sparse_move_delta_equals_recompute(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        vsel in 0usize..24,
        tosel in 0u32..5,
    ) {
        let g = Graph::from_edges(n, edges);
        let bm = Blockmodel::from_assignment(&g, assignment, c);
        let v = (vsel % n) as u32;
        let to = tosel % c as u32;
        let d = vertex_move_delta(&g, &bm, v, to);
        let ds = delta_entropy(&bm, &d);
        let mut after = bm.clone();
        after.move_vertex(&g, v, to);
        let exact = after.entropy() - bm.entropy();
        prop_assert!((ds - exact).abs() < 1e-8, "sparse {ds} vs exact {exact}");
        let (fast, h) = evaluate(&mut DeltaScratch::new(), &g, &bm, v, to);
        prop_assert!((fast - exact).abs() < 1e-9, "factored {fast} vs exact {exact}");
        prop_assert_eq!(h.to_bits(), hastings_for_delta(&g, &bm, v, &d).to_bits());
    }

    /// The sparse ΔS for ANY block merge equals a full recompute.
    #[test]
    fn sparse_merge_delta_equals_recompute(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        from_sel in 0u32..5,
        to_sel in 0u32..5,
    ) {
        let g = Graph::from_edges(n, edges);
        let bm = Blockmodel::from_assignment(&g, assignment.clone(), c);
        let from = from_sel % c as u32;
        let to = to_sel % c as u32;
        prop_assume!(from != to);
        let d = merge_delta(&bm, from, to);
        let ds = delta_entropy(&bm, &d);
        let merged: Vec<u32> = assignment
            .iter()
            .map(|&b| if b == from { to } else { b })
            .collect();
        let after = Blockmodel::from_assignment(&g, merged, c);
        let exact = after.entropy() - bm.entropy();
        prop_assert!((ds - exact).abs() < 1e-8, "sparse {ds} vs exact {exact}");
    }

    /// Incremental maintenance == from-scratch rebuild after any move
    /// sequence (the EDiSt exactness invariant).
    #[test]
    fn blockmodel_invariant_under_random_moves(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        moves in proptest::collection::vec((0usize..24, 0u32..5), 0..30),
    ) {
        let g = Graph::from_edges(n, edges);
        let mut bm = Blockmodel::from_assignment(&g, assignment, c);
        for (vsel, tosel) in moves {
            bm.move_vertex(&g, (vsel % n) as u32, tosel % c as u32);
        }
        prop_assert!(bm.validate(&g).is_ok());
    }

    /// The final state after applying the same move set is independent of
    /// application order — the property EDiSt's correctness rests on.
    #[test]
    fn move_application_order_does_not_matter(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        targets in proptest::collection::vec(0u32..5, 24),
    ) {
        let g = Graph::from_edges(n, edges);
        // One final target per vertex (vertex-disjoint moves, as in EDiSt).
        let finals: Vec<u32> = (0..n).map(|v| targets[v % targets.len()] % c as u32).collect();
        let mut fwd = Blockmodel::from_assignment(&g, assignment.clone(), c);
        for v in 0..n as u32 {
            fwd.move_vertex(&g, v, finals[v as usize]);
        }
        let mut rev = Blockmodel::from_assignment(&g, assignment, c);
        for v in (0..n as u32).rev() {
            rev.move_vertex(&g, v, finals[v as usize]);
        }
        prop_assert_eq!(fwd.assignment(), rev.assignment());
        prop_assert!((fwd.entropy() - rev.entropy()).abs() < 1e-9);
    }

    /// apply_merges is insensitive to the input order of candidates
    /// (it sorts internally with a total order) — the EDiSt determinism
    /// requirement for allgathered candidate lists.
    #[test]
    fn apply_merges_order_insensitive(
        (n, edges, _assignment, _c) in arb_graph_and_assignment(),
        pairs in proptest::collection::vec((0u32..24, 0u32..24, -10.0f64..0.0), 1..12),
        target in 0usize..8,
    ) {
        let g = Graph::from_edges(n, edges);
        let bm = Blockmodel::identity(&g);
        let cands: Vec<MergeCandidate> = pairs
            .iter()
            .filter(|(a, b, _)| (*a as usize) < n && (*b as usize) < n && a != b)
            .map(|&(block, tgt, delta_s)| MergeCandidate { block, target: tgt, delta_s })
            .collect();
        let mut shuffled = cands.clone();
        shuffled.reverse();
        let a = apply_merges(&bm, cands, target);
        let b = apply_merges(&bm, shuffled, target);
        prop_assert_eq!(a, b);
    }

    /// Entropy is label-invariant: permuting block labels leaves S fixed.
    #[test]
    fn entropy_label_invariant(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
    ) {
        let g = Graph::from_edges(n, edges);
        let bm = Blockmodel::from_assignment(&g, assignment.clone(), c);
        // Rotate labels by one.
        let rotated: Vec<u32> = assignment.iter().map(|&b| (b + 1) % c as u32).collect();
        let bm2 = Blockmodel::from_assignment(&g, rotated, c);
        prop_assert!((bm.entropy() - bm2.entropy()).abs() < 1e-9);
        prop_assert!(
            (bm.description_length() - bm2.description_length()).abs() < 1e-9
        );
    }

    /// MH sweeps never corrupt the blockmodel, whatever the graph.
    #[test]
    fn mh_sweep_preserves_invariants(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        seed in 0u64..1000,
    ) {
        let g = Graph::from_edges(n, edges);
        let mut bm = Blockmodel::from_assignment(&g, assignment, c);
        let vertices: Vec<u32> = (0..n as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..3 {
            mh_sweep(&g, &mut bm, &vertices, 3.0, &mut rng);
        }
        prop_assert!(bm.validate(&g).is_ok());
    }

    /// Compaction preserves the partition structure (same cells, denser
    /// labels) and therefore the entropy.
    #[test]
    fn compaction_preserves_entropy(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
    ) {
        let g = Graph::from_edges(n, edges);
        let bm = Blockmodel::from_assignment(&g, assignment, c);
        let compact = bm.compacted();
        prop_assert!(compact.num_blocks() <= c);
        prop_assert!((bm.entropy() - compact.entropy()).abs() < 1e-9);
    }

    /// The dense and sparse matrix representations agree on `get` and
    /// `entropy` for any graph and assignment — the adaptive storage layer
    /// must be observationally invisible.
    #[test]
    fn dense_and_sparse_agree_on_get_and_entropy(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
    ) {
        let g = Graph::from_edges(n, edges);
        let dense = Blockmodel::from_assignment_with(
            &g, assignment.clone(), c, StorageKind::Dense);
        let sparse = Blockmodel::from_assignment_with(
            &g, assignment, c, StorageKind::Sparse);
        prop_assert_eq!(dense.storage_kind(), StorageKind::Dense);
        prop_assert_eq!(sparse.storage_kind(), StorageKind::Sparse);
        for r in 0..c as u32 {
            for col in 0..c as u32 {
                prop_assert_eq!(dense.get(r, col), sparse.get(r, col), "cell ({}, {})", r, col);
            }
            prop_assert_eq!(dense.d_out(r), sparse.d_out(r));
            prop_assert_eq!(dense.d_in(r), sparse.d_in(r));
        }
        prop_assert!((dense.entropy() - sparse.entropy()).abs() < 1e-9);
        prop_assert!(
            (dense.description_length() - sparse.description_length()).abs() < 1e-9
        );
    }

    /// Both representations produce the same ΔS for any vertex move and
    /// any block merge (within floating-point tolerance).
    #[test]
    fn dense_and_sparse_agree_on_delta_entropy(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        vsel in 0usize..24,
        tosel in 0u32..5,
        merge_from in 0u32..5,
        merge_to in 0u32..5,
    ) {
        let g = Graph::from_edges(n, edges);
        let dense = Blockmodel::from_assignment_with(
            &g, assignment.clone(), c, StorageKind::Dense);
        let sparse = Blockmodel::from_assignment_with(
            &g, assignment, c, StorageKind::Sparse);
        let v = (vsel % n) as u32;
        let to = tosel % c as u32;
        let dd = vertex_move_delta(&g, &dense, v, to);
        let ds = vertex_move_delta(&g, &sparse, v, to);
        prop_assert!(
            (delta_entropy(&dense, &dd) - delta_entropy(&sparse, &ds)).abs() < 1e-9
        );
        let (mf, mt) = (merge_from % c as u32, merge_to % c as u32);
        if mf != mt {
            let dd = merge_delta(&dense, mf, mt);
            let ds = merge_delta(&sparse, mf, mt);
            prop_assert!(
                (delta_entropy(&dense, &dd) - delta_entropy(&sparse, &ds)).abs() < 1e-9
            );
            // The hot-path merge walk is the line-delta reference to the
            // bit, on each storage.
            let mut scratch = DeltaScratch::new();
            for (bm, d) in [(&dense, &dd), (&sparse, &ds)] {
                prop_assert_eq!(
                    scratch.gather_block(bm, mf).evaluate_merge(mt).to_bits(),
                    delta_entropy(bm, d).to_bits()
                );
            }
        }
    }

    /// After any shared move sequence, both representations hold identical
    /// state: same assignment, same cells, same entropy, both valid.
    #[test]
    fn dense_and_sparse_agree_under_move_sequences(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        moves in proptest::collection::vec((0usize..24, 0u32..5), 0..30),
    ) {
        let g = Graph::from_edges(n, edges);
        let mut dense = Blockmodel::from_assignment_with(
            &g, assignment.clone(), c, StorageKind::Dense);
        let mut sparse = Blockmodel::from_assignment_with(
            &g, assignment, c, StorageKind::Sparse);
        for (vsel, tosel) in moves {
            let (v, to) = ((vsel % n) as u32, tosel % c as u32);
            dense.move_vertex(&g, v, to);
            sparse.move_vertex(&g, v, to);
        }
        prop_assert_eq!(dense.assignment(), sparse.assignment());
        for r in 0..c as u32 {
            for col in 0..c as u32 {
                prop_assert_eq!(dense.get(r, col), sparse.get(r, col), "cell ({}, {})", r, col);
            }
        }
        prop_assert!((dense.entropy() - sparse.entropy()).abs() < 1e-9);
        prop_assert!(dense.validate(&g).is_ok());
        prop_assert!(sparse.validate(&g).is_ok());
    }

    /// Canonical-line tentpole, part 1: building the same logical block
    /// matrix through different move histories (a fresh rebuild vs an
    /// arbitrary detour-and-return move sequence) yields **identical
    /// canonical line iteration** — exact sequences, not sorted-equal —
    /// plus bit-identical entropy sums and bit-identical ΔS under
    /// `DeltaScratch`. This is the property that extends the sharded ≡
    /// monolithic EDiSt guarantee beyond dense storage.
    #[test]
    fn canonical_iteration_is_move_history_invariant(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        detours in proptest::collection::vec((0usize..24, 0u32..5), 1..25),
        probe in (0usize..24, 0u32..5),
    ) {
        let g = Graph::from_edges(n, edges);
        let fresh = Blockmodel::from_assignment_with(
            &g, assignment.clone(), c, StorageKind::Sparse);
        // Same logical state, different storage history: detour every
        // scripted vertex through a temporary block and back home.
        let mut detoured = Blockmodel::from_assignment_with(
            &g, assignment.clone(), c, StorageKind::Sparse);
        for &(vsel, tosel) in &detours {
            let v = (vsel % n) as u32;
            let home = detoured.block_of(v);
            detoured.move_vertex(&g, v, tosel % c as u32);
            detoured.move_vertex(&g, v, home);
        }
        prop_assert_eq!(fresh.assignment(), detoured.assignment());
        for line in 0..c as u32 {
            let a: Vec<_> = fresh.row_iter(line).collect();
            let b: Vec<_> = detoured.row_iter(line).collect();
            prop_assert_eq!(&a, &b, "row {} depends on move history", line);
            prop_assert!(a.is_sorted(), "row {} not canonical", line);
            let a: Vec<_> = fresh.col_iter(line).collect();
            let b: Vec<_> = detoured.col_iter(line).collect();
            prop_assert_eq!(&a, &b, "col {} depends on move history", line);
            prop_assert!(a.is_sorted(), "col {} not canonical", line);
        }
        prop_assert_eq!(fresh.entropy().to_bits(), detoured.entropy().to_bits());
        prop_assert_eq!(
            fresh.description_length().to_bits(),
            detoured.description_length().to_bits()
        );
        // ΔS and the Hastings correction consume line iteration; with the
        // canonical order they must agree to the bit, not within an
        // epsilon.
        let (v, to) = ((probe.0 % n) as u32, probe.1 % c as u32);
        let (ds1, h1) = evaluate(&mut DeltaScratch::new(), &g, &fresh, v, to);
        let (ds2, h2) = evaluate(&mut DeltaScratch::new(), &g, &detoured, v, to);
        prop_assert_eq!(ds1.to_bits(), ds2.to_bits());
        prop_assert_eq!(h1.to_bits(), h2.to_bits());
    }

    /// Canonical-line tentpole, part 2: sparse line iteration reproduces
    /// the dense row/column scan order element for element, and the f64
    /// entropy sum is therefore bit-identical across representations.
    #[test]
    fn canonical_sparse_iteration_matches_dense_line_order(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
    ) {
        let g = Graph::from_edges(n, edges);
        let dense = Blockmodel::from_assignment_with(
            &g, assignment.clone(), c, StorageKind::Dense);
        let sparse = Blockmodel::from_assignment_with(
            &g, assignment, c, StorageKind::Sparse);
        for line in 0..c as u32 {
            prop_assert_eq!(
                dense.row_iter(line).collect::<Vec<_>>(),
                sparse.row_iter(line).collect::<Vec<_>>(),
                "row {} order differs across representations", line
            );
            prop_assert_eq!(
                dense.col_iter(line).collect::<Vec<_>>(),
                sparse.col_iter(line).collect::<Vec<_>>(),
                "col {} order differs across representations", line
            );
        }
        prop_assert_eq!(dense.entropy().to_bits(), sparse.entropy().to_bits());
        prop_assert_eq!(
            dense.description_length().to_bits(),
            sparse.description_length().to_bits()
        );
    }

    /// The reusable scratch never leaks state between proposals: a fresh
    /// scratch and a heavily reused one agree on every evaluation, under
    /// both representations.
    #[test]
    fn scratch_reuse_is_stateless(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        probes in proptest::collection::vec((0usize..24, 0u32..5), 1..20),
    ) {
        let g = Graph::from_edges(n, edges);
        for kind in [StorageKind::Dense, StorageKind::Sparse] {
            let bm = Blockmodel::from_assignment_with(
                &g, assignment.clone(), c, kind);
            let mut reused = DeltaScratch::new();
            for &(vsel, tosel) in &probes {
                let (v, to) = ((vsel % n) as u32, tosel % c as u32);
                let (ds_reused, h_reused) = evaluate(&mut reused, &g, &bm, v, to);
                let (ds_fresh, h_fresh) = evaluate(&mut DeltaScratch::new(), &g, &bm, v, to);
                prop_assert_eq!(ds_reused.to_bits(), ds_fresh.to_bits());
                prop_assert_eq!(h_reused.to_bits(), h_fresh.to_bits());
            }
        }
    }

    /// `cross_cells` reads the same four cells per asked-for block, and
    /// the same four `{r, s}²` corners, from either storage as `get()`
    /// does, for any subset of the blocks (chosen by bitmask: empty, all,
    /// with and without `r` and `s`), through one scratch per storage.
    #[test]
    fn cross_cells_agree_with_get_on_any_block_subset(
        (n, edges, assignment, c) in arb_graph_and_assignment(),
        moves in proptest::collection::vec((0u32..5, 0u32..5, 0u32..32), 1..12),
    ) {
        let g = Graph::from_edges(n, edges);
        for kind in [StorageKind::Dense, StorageKind::Sparse] {
            let bm = Blockmodel::from_assignment_with(&g, assignment.clone(), c, kind);
            let mut scratch = DeltaScratch::new();
            for &(rsel, ssel, mask) in &moves {
                let (r, s) = (rsel % c as u32, ssel % c as u32);
                let blocks: Vec<u32> = (0..c as u32).filter(|t| mask >> t & 1 == 1).collect();
                let want: Vec<[i64; 4]> = blocks
                    .iter()
                    .map(|&t| [bm.get(r, t), bm.get(s, t), bm.get(t, r), bm.get(t, s)])
                    .collect();
                let corners = [bm.get(r, r), bm.get(r, s), bm.get(s, r), bm.get(s, s)];
                prop_assert_eq!(scratch.cross_cells(&bm, r, s, &blocks), (corners, &want[..]));
            }
        }
    }

    /// An 8-byte-cell line is a `BTreeMap<u32, i64>` of positive weights,
    /// with weights drawn across the whole cell range: after every add or
    /// sub — clamped so no cell passes `u32::MAX` — it reads back the
    /// reference's cells in key order, point by point, and a line rebuilt
    /// from the reference split into two unsorted halves per cell equals it.
    #[test]
    fn line_ops_match_a_btreemap_up_to_u32_max(
        ops in proptest::collection::vec((0u32..12, 0u8..2, 1i64..(1i64 << 32)), 1..60),
    ) {
        use sbp_core::line::CanonicalLine;
        use std::collections::BTreeMap;
        let max = i64::from(u32::MAX);
        let mut line = CanonicalLine::new();
        let mut reference: BTreeMap<u32, i64> = BTreeMap::new();
        for &(key, op, w) in &ops {
            let held = reference.get(&key).copied().unwrap_or(0);
            if op == 0 && held < max {
                let w = w.min(max - held);
                line.add(key, w);
                *reference.entry(key).or_insert(0) += w;
            } else if held > 0 {
                let w = 1 + (w - 1) % held;
                line.sub(key, w);
                if held == w {
                    reference.remove(&key);
                } else {
                    reference.insert(key, held - w);
                }
            }
            let want: Vec<(u32, i64)> = reference.iter().map(|(&k, &w)| (k, w)).collect();
            prop_assert_eq!(line.iter().collect::<Vec<_>>(), want);
            for k in 0..12 {
                prop_assert_eq!(line.get(k), reference.get(&k).copied().unwrap_or(0));
            }
        }
        let mut halves: Vec<(u32, u32)> = Vec::new();
        for (&k, &w) in reference.iter().rev() {
            let w = u32::try_from(w).expect("the reference stays within a cell");
            halves.push((k, w - w / 2));
            if w > 1 {
                halves.insert(0, (k, w / 2));
            }
        }
        prop_assert_eq!(CanonicalLine::from_unsorted(halves), line);
    }
}

/// Deterministic xorshift stream for the fixed-C fixtures (independent of
/// the rand shim's algorithm).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Random blocky graph with `2·C` vertices: community edges, cross noise,
/// a few self-loops, reciprocal arcs and multi-arcs (merged into weights),
/// labels covering all of `0..C`.
fn synth_graph(c: usize, seed: u64) -> (Graph, Vec<u32>) {
    let n = 2 * c;
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let assignment: Vec<u32> = (0..n).map(|v| (v % c) as u32).collect();
    let mut edges = Vec::new();
    for v in 0..n as u32 {
        // One intra-community edge per vertex, plus noise.
        let peer = (v + c as u32) % n as u32;
        edges.push((v, peer, 1 + (rng.next() % 4) as i64));
        if rng.next().is_multiple_of(3) {
            let u = (rng.next() % n as u64) as u32;
            edges.push((v, u, 1 + (rng.next() % 2) as i64));
        }
        if rng.next().is_multiple_of(17) {
            edges.push((v, v, 2));
        }
        if rng.next().is_multiple_of(5) {
            edges.push((peer, v, 1 + (rng.next() % 3) as i64));
        }
        if rng.next().is_multiple_of(7) {
            edges.push((v, peer, 2));
        }
    }
    (Graph::from_edges(n, edges), assignment)
}

/// The O(deg) move kernel against both of its references, at block counts
/// on either side of the always-dense band (2, 64 | 65, 512): for every
/// vertex and three targets each (a neighbour's block, a random — mostly
/// non-adjacent — block, the next label), (a) ΔS within 1e-9 of the
/// retained line-walk kernel and of a full entropy recompute, (b) ΔS and H
/// `to_bits`-equal between dense and sparse storage, (c) H `to_bits`-equal
/// to `hastings_for_delta`. Vertex 0 is alone in its block, so moving it
/// covers a `from` block that empties.
#[test]
fn factored_move_kernel_matches_its_references() {
    for &c in &[2usize, 64, 65, 512] {
        for seed in 0..2u64 {
            let (g, mut assignment) = synth_graph(c, seed);
            let n = g.num_vertices();
            assignment[c] = 1; // block 0's other member
            let dense =
                Blockmodel::from_assignment_with(&g, assignment.clone(), c, StorageKind::Dense);
            let sparse =
                Blockmodel::from_assignment_with(&g, assignment.clone(), c, StorageKind::Sparse);
            let before = sparse.entropy();
            let mut rng = XorShift(seed | 1);
            let (mut sd, mut ss) = (DeltaScratch::new(), DeltaScratch::new());
            for v in 0..n as u32 {
                let from = assignment[v as usize];
                let adjacent = g
                    .out_edges(v)
                    .chain(g.in_edges(v))
                    .map(|(u, _)| assignment[u as usize])
                    .find(|&b| b != from);
                let random = (rng.next() % c as u64) as u32;
                for to in [adjacent.unwrap_or(from), random, (from + 1) % c as u32] {
                    let at = format!("C={c} seed={seed} v={v} {from}->{to}");
                    let (ds, h) = evaluate(&mut sd, &g, &dense, v, to);
                    let (ds_sparse, h_sparse) = evaluate(&mut ss, &g, &sparse, v, to);
                    assert_eq!(ds.to_bits(), ds_sparse.to_bits(), "ΔS dense/sparse {at}");
                    assert_eq!(h.to_bits(), h_sparse.to_bits(), "H dense/sparse {at}");
                    let d = vertex_move_delta(&g, &dense, v, to);
                    let walked = delta_entropy(&dense, &d);
                    assert!(
                        (ds - walked).abs() < 1e-9,
                        "{at}: {ds} vs line walk {walked}"
                    );
                    assert_eq!(
                        h.to_bits(),
                        hastings_for_delta(&g, &dense, v, &d).to_bits(),
                        "H vs reference {at}"
                    );
                    // Full recomputes on a vertex sample (the sparse twin
                    // is the cheap one to clone).
                    if (v as usize).is_multiple_of((n / 64).max(1)) {
                        let mut after = sparse.clone();
                        after.move_vertex(&g, v, to);
                        let exact = after.entropy() - before;
                        assert!((ds - exact).abs() < 1e-9, "{at}: {ds} vs recompute {exact}");
                    }
                }
            }
        }
    }
}

/// Every merge probed by [`merge_walk_matches_line_delta_reference`]:
/// gathers `from` once into the (reused) scratch, then checks the walk's
/// ΔS for each target against the retained `merge_delta` +
/// `delta_entropy` reference, `to_bits`.
fn assert_walk_is_reference(
    scratch: &mut DeltaScratch,
    bm: &Blockmodel,
    from: u32,
    targets: impl Iterator<Item = u32>,
) {
    let mut gathered = scratch.gather_block(bm, from);
    for to in targets.filter(|&to| to != from) {
        let walked = gathered.evaluate_merge(to);
        let reference = delta_entropy(bm, &merge_delta(bm, from, to));
        assert_eq!(
            walked.to_bits(),
            reference.to_bits(),
            "C={} {:?} {from}->{to}: walk {walked:e} vs reference {reference:e}",
            bm.num_blocks(),
            bm.storage_kind(),
        );
    }
}

/// The sort-free merge walk against the kernel it replaced, `to_bits`, on
/// both storages.
///
/// (a) A hand-built blockmodel, every ordered pair, whose cells pin the
/// corner cases by name — asserted present, so a fixture edit cannot
/// silently drop one. (b) Random blocky graphs at block counts on either
/// side of the always-dense band (2, 3, 64 | 65, 512): every ordered
/// pair up to C = 64, sampled pairs in both
/// orders above, one gather per `from` shared by all its targets.
#[test]
fn merge_walk_matches_line_delta_reference() {
    let mut scratch = DeltaScratch::new();
    // One vertex per block; arcs are matrix cells.
    let corner_arcs: Vec<(u32, u32, i64)> = vec![
        (0, 0, 2), // self-loop on 0
        (1, 1, 3), // self-loop on 1
        (0, 1, 1), // reciprocal 0 <-> 1
        (1, 0, 4),
        (3, 0, 2), // M[3][0] > 0 while M[0][3] = 0
        (0, 2, 1), // 2 has no self-loop: merging 0 -> 2 creates (2,2)
        (2, 5, 1),
        (4, 6, 2), // 4 and 5 share no neighbour and no arc
        (6, 4, 1),
        (5, 7, 3),
        (7, 5, 1),
        (7, 3, 2),
        // 8 is empty: no arcs at all
    ];
    let c = 9usize;
    let g = Graph::from_edges(c, corner_arcs);
    for kind in [StorageKind::Dense, StorageKind::Sparse] {
        let bm = Blockmodel::from_assignment_with(&g, (0..c as u32).collect(), c, kind);
        // The named cases, as (from, to) pairs of the all-pairs loop below.
        assert!(
            bm.get(0, 0) > 0 && bm.get(1, 1) > 0,
            "self-loops on r and on s"
        );
        assert!(bm.get(0, 1) > 0 && bm.get(1, 0) > 0, "reciprocal arcs");
        assert!(
            bm.get(2, 2) == 0 && bm.get(0, 0) + bm.get(0, 2) > 0,
            "created (s,s)"
        );
        assert!(
            bm.get(3, 0) > 0 && bm.get(0, 3) == 0,
            "M[s][r] > 0 = M[r][s]"
        );
        let neighbours =
            |b: u32| -> Vec<u32> { bm.row_iter(b).chain(bm.col_iter(b)).map(|e| e.0).collect() };
        assert!(
            neighbours(4)
                .iter()
                .all(|t| !neighbours(5).contains(t) && *t != 5),
            "disjoint neighbourhoods: every cell created"
        );
        assert!(neighbours(8).is_empty(), "an empty r and an empty s");
        for from in 0..c as u32 {
            assert_walk_is_reference(&mut scratch, &bm, from, 0..c as u32);
        }
    }

    for &c in &[2usize, 3, 64, 65, 512] {
        for seed in 0..2u64 {
            let (g, mut assignment) = synth_graph(c, seed);
            if c > 3 {
                // Empty the last block: merges from and into an empty
                // block at every size.
                for b in &mut assignment {
                    if *b == c as u32 - 1 {
                        *b = 0;
                    }
                }
            }
            let mut rng = XorShift(seed + 11);
            for kind in [StorageKind::Dense, StorageKind::Sparse] {
                let bm = Blockmodel::from_assignment_with(&g, assignment.clone(), c, kind);
                if c <= 64 {
                    for from in 0..c as u32 {
                        assert_walk_is_reference(&mut scratch, &bm, from, 0..c as u32);
                    }
                    continue;
                }
                let last = c as u32 - 1;
                assert_walk_is_reference(&mut scratch, &bm, last, [0, 1, last - 1].into_iter());
                for _ in 0..40 {
                    let from = (rng.next() % c as u64) as u32;
                    let targets: Vec<u32> =
                        (0..6).map(|_| (rng.next() % c as u64) as u32).collect();
                    assert_walk_is_reference(
                        &mut scratch,
                        &bm,
                        from,
                        targets.iter().copied().chain([last]),
                    );
                    // The same pairs the other way round (r > s as well as
                    // r < s).
                    for &to in &targets {
                        assert_walk_is_reference(&mut scratch, &bm, to, [from].into_iter());
                    }
                }
            }
        }
    }
}

/// Dense ≡ sparse at block counts the proptests never reach: entropy
/// `to_bits` at single-chunk (8, 64) and multi-chunk (169, 512) sizes —
/// the storage-identity contract of the chunked reduction. Sampled merge
/// ΔS equal the line-delta reference `to_bits` on each storage and agree
/// across storages to rounding (the two walks order created cells
/// differently, module docs of `sbp_core::delta`).
#[test]
fn dense_and_sparse_agree_at_fixed_block_counts() {
    for &c in &[8usize, 64, 169, 512] {
        for seed in 0..2u64 {
            let (g, assignment) = synth_graph(c, seed);
            let mut rng = XorShift(seed | 1);
            let [dense, sparse] = [StorageKind::Dense, StorageKind::Sparse]
                .map(|kind| Blockmodel::from_assignment_with(&g, assignment.clone(), c, kind));
            assert_eq!(
                dense.entropy().to_bits(),
                sparse.entropy().to_bits(),
                "entropy C={c} seed={seed}"
            );
            let mut s = DeltaScratch::new();
            for _ in 0..6 {
                let from = (rng.next() % c as u64) as u32;
                let to = (rng.next() % c as u64) as u32;
                if from == to {
                    continue;
                }
                let [dd, ds] = [&dense, &sparse].map(|bm| {
                    let walk = s.gather_block(bm, from).evaluate_merge(to);
                    let reference = delta_entropy(bm, &merge_delta(bm, from, to));
                    assert_eq!(
                        walk.to_bits(),
                        reference.to_bits(),
                        "merge ΔS C={c} seed={seed} {:?} {from}->{to}",
                        bm.storage_kind()
                    );
                    walk
                });
                assert!(
                    (dd - ds).abs() < 1e-9 * dd.abs().max(1.0),
                    "merge ΔS C={c} seed={seed} {from}->{to}: dense {dd} sparse {ds}"
                );
            }
        }
    }
}

/// Sparse `cross_cells` against dense `cross_cells` and `get()` — the
/// per-block cells and the `{r, s}²` corners that ride the same fetch —
/// through ONE scratch for every sparse call, so a stamp left in its slot
/// map by one fetch would corrupt the next. Blocks 0 and 1 are hubs whose rows
/// and columns hold ≥ 512 cells with runs of absent keys longer than 8;
/// the rest of the 1 100 blocks have short random lines. Block lists: ∅,
/// every block, `{r}`, `{s}`, `{r, s}`, random subsets from 2 to 400 blocks
/// with and without `r`/`s` (both sides of the stream-or-look-up choice),
/// and the evens followed by the odds — two disjoint lists back to back.
#[test]
fn sparse_cross_cells_is_dense_cross_cells_is_get() {
    let c = 1100u32;
    let mut rng = XorShift(0x5EED_CE11);
    let mut edges = Vec::new();
    for u in 2..c {
        // Gaps of 11 absent keys every 40.
        if u % 40 >= 11 {
            edges.push((0, u, 1 + i64::from(u % 4)));
            edges.push((u, 1, 2));
        }
        if u % 40 < 29 {
            edges.push((u, 0, 1 + i64::from(u % 3)));
            edges.push((1, u, 1));
        }
        for _ in 0..3 {
            edges.push((u, (rng.next() % u64::from(c)) as u32, 1));
        }
    }
    edges.extend([(0, 0, 3), (0, 1, 2), (1, 0, 5), (7, 7, 1)]);
    let g = Graph::from_edges(c as usize, edges);
    let labels: Vec<u32> = (0..c).collect();
    let dense =
        Blockmodel::from_assignment_with(&g, labels.clone(), c as usize, StorageKind::Dense);
    let sparse = Blockmodel::from_assignment_with(&g, labels, c as usize, StorageKind::Sparse);
    for hub in 0..2 {
        assert!(sparse.row_iter(hub).count() >= 512 && sparse.col_iter(hub).count() >= 512);
    }

    let (mut on_sparse, mut on_dense) = (DeltaScratch::new(), DeltaScratch::new());
    let mut check = |r: u32, s: u32, blocks: &[u32]| {
        let (corners, got) = on_sparse.cross_cells(&sparse, r, s, blocks);
        let got = got.to_vec();
        assert_eq!(got.len(), blocks.len());
        let on_dense = on_dense.cross_cells(&dense, r, s, blocks);
        assert_eq!((corners, &got[..]), on_dense, "{r}->{s}");
        let want = [
            sparse.get(r, r),
            sparse.get(r, s),
            sparse.get(s, r),
            sparse.get(s, s),
        ];
        assert_eq!(corners, want, "{r}->{s} corners, {} blocks", blocks.len());
        for (&t, cells) in blocks.iter().zip(&got) {
            let want = [
                sparse.get(r, t),
                sparse.get(s, t),
                sparse.get(t, r),
                sparse.get(t, s),
            ];
            assert_eq!(*cells, want, "{r}->{s} at block {t} of {}", blocks.len());
        }
    };
    let all: Vec<u32> = (0..c).collect();
    let (evens, odds): (Vec<u32>, Vec<u32>) = all.iter().partition(|&&t| t % 2 == 0);
    for (r, s) in [
        (0, 1),
        (1, 0),
        (0, 700),
        (640, 1),
        (5, 9),
        (7, 7),
        (1099, 0),
    ] {
        check(r, s, &[]);
        check(r, s, &all);
        check(r, s, &[r]);
        check(r, s, &[s]);
        let mut both = vec![r, s];
        both.sort_unstable();
        both.dedup();
        check(r, s, &both);
        for size in [2usize, 8, 40, 100, 400] {
            let mut subset: Vec<u32> = (0..size)
                .map(|_| (rng.next() % u64::from(c)) as u32)
                .collect();
            subset.sort_unstable();
            subset.dedup();
            check(r, s, &subset);
            subset.extend(&both);
            subset.sort_unstable();
            subset.dedup();
            check(r, s, &subset);
        }
        check(r, s, &evens);
        check(r, s, &odds);
        check(r, s, &evens);
    }
}

/// `Graph::self_loop_weight` — what a proposal is drawn with, before
/// anything is gathered — against a scan of the out-edges, on random
/// multigraphs (parallel arcs fold into weights) with self-loops planted
/// at the first, the last and every seventh vertex, among vertices with
/// none and vertices with no edge at all.
#[test]
fn self_loop_weight_is_a_scan_of_the_out_edges() {
    let mut rng = XorShift(0x5E1F_100B);
    for n in [1u32, 2, 9, 60, 300] {
        let mut edges = Vec::new();
        for _ in 0..4 * n {
            let (u, v) = (rng.next() % u64::from(n), rng.next() % u64::from(n));
            // Every third vertex keeps no edge but a planted loop.
            if u % 3 != 1 && v % 3 != 1 {
                edges.push((u as u32, v as u32, 1 + (rng.next() % 3) as i64));
            }
        }
        for v in (0..n).filter(|v| v % 7 == 0 || v + 1 == n) {
            for _ in 0..1 + rng.next() % 3 {
                edges.push((v, v, 1 + (rng.next() % 4) as i64));
            }
        }
        let g = Graph::from_edges(n as usize, edges);
        let mut loops = 0;
        for v in 0..n {
            let scanned: i64 = g.out_edges(v).filter(|e| e.0 == v).map(|e| e.1).sum();
            assert_eq!(g.self_loop_weight(v), scanned, "n={n} v={v}");
            loops += usize::from(scanned > 0);
        }
        assert!(
            loops > 0 && (n < 9 || loops < n as usize),
            "n={n}: {loops} loops"
        );
    }
}

/// `gather_vertex` hands back the neighbour blocks ascending, without
/// sorting them: equal to the sorted, deduplicated blocks of the vertex's
/// non-self neighbours at block counts on both sides of every level
/// boundary of the ordering bitset (one word | two levels | three | four),
/// through one scratch that first shrinks and then grows again. The
/// per-block `(w_out, w_in)` and the self-loop weight it gathered beside
/// them equal a sum over the vertex's arcs.
#[test]
fn gathered_neighbour_blocks_are_sorted_and_deduplicated() {
    let n = 400usize;
    let mut rng = XorShift(0xB10C_5E70);
    let mut edges = Vec::new();
    for v in 0..n as u32 {
        let degree = if v % 50 == 0 {
            120
        } else {
            1 + rng.next() % 12
        };
        for _ in 0..degree {
            edges.push((
                v,
                (rng.next() % n as u64) as u32,
                1 + (rng.next() % 3) as i64,
            ));
        }
        if v % 9 == 0 {
            edges.push((v, v, 2));
        }
    }
    let g = Graph::from_edges(n, edges);
    let mut scratch = DeltaScratch::new();
    for c in [4097usize, 65, 1, 63, 64, 4096, 300_000, 2] {
        let mut assignment: Vec<u32> = (0..n).map(|_| (rng.next() % c as u64) as u32).collect();
        assignment[0] = 0;
        assignment[1] = c as u32 - 1;
        let bm = Blockmodel::from_assignment_with(&g, assignment.clone(), c, StorageKind::Sparse);
        for v in 0..n as u32 {
            scratch.gather_vertex(&g, &bm, v);
            // (w_out, w_in) per neighbour block and the self-loop weight,
            // summed arc by arc.
            let mut sums = std::collections::BTreeMap::<u32, (i64, i64)>::new();
            let mut self_w = 0;
            for (u, w) in g.out_edges(v) {
                if u == v {
                    self_w += w;
                } else {
                    sums.entry(assignment[u as usize]).or_default().0 += w;
                }
            }
            for (u, w) in g.in_edges(v).filter(|e| e.0 != v) {
                sums.entry(assignment[u as usize]).or_default().1 += w;
            }
            let want: Vec<u32> = sums.keys().copied().collect();
            assert_eq!(scratch.neighbour_blocks(), want, "C={c} v={v}");
            let (weights, got_self) = scratch.neighbour_weights();
            assert_eq!(got_self, self_w, "self-loop C={c} v={v}");
            for (&t, &w) in &sums {
                assert_eq!(weights[t as usize], w, "weights C={c} v={v} t={t}");
            }
            // Zero everywhere else; a whole-accumulator scan per vertex
            // would dominate the test at C = 300 000, so every 25th.
            if v % 25 == 0 {
                let nonzero = weights.iter().filter(|&&w| w != (0, 0)).count();
                assert_eq!(nonzero, sums.len(), "C={c} v={v}");
            }
        }
    }
}

/// The weighted pick along row ++ column of a block lands on the same
/// block for **every** draw `x` whether the dense lines are scanned a chunk
/// at a time (`pick_weighted` on dense storage), slot by slot
/// (`pick_by_cells` on dense storage) or cell by cell (sparse storage) —
/// with nothing left out, as a vertex proposal draws, and with the block's
/// own cells left out, as a merge proposal does. Line lengths on both
/// sides of one and of several chunks.
#[test]
fn chunked_pick_lands_where_the_cell_walk_lands() {
    for &c in &[2usize, 15, 16, 17, 40, 130] {
        let (g, assignment) = synth_graph(c, 3);
        let dense = Blockmodel::from_assignment_with(&g, assignment.clone(), c, StorageKind::Dense);
        let sparse = Blockmodel::from_assignment_with(&g, assignment, c, StorageKind::Sparse);
        for t in 0..c as u32 {
            for (skip, total) in [
                (None, dense.d_total(t)),
                (Some(t), dense.d_total(t) - 2 * dense.get(t, t)),
            ] {
                for x in 0..total {
                    let picked = pick_weighted(&dense, t, x, skip);
                    assert_eq!(
                        Ok(picked),
                        pick_by_cells(&dense, t, x, skip),
                        "C={c} t={t} x={x}"
                    );
                    assert_eq!(
                        picked,
                        pick_weighted(&sparse, t, x, skip),
                        "C={c} t={t} x={x}"
                    );
                }
                // One past the end walks off both lines.
                assert_eq!(pick_by_cells(&dense, t, total, skip), Err(0), "C={c} t={t}");
            }
        }
    }
}

/// Holds `got` to `want` on everything a computation can read: assignment,
/// every cell through the rows and through the columns in line order,
/// degrees, storage kind, the `ln` caches and the DL `to_bits` — and
/// [`Blockmodel::same_state`], the one-call form of the same claim the
/// search's debug assertions use, must agree with the long form.
fn assert_same_model(got: &Blockmodel, want: &Blockmodel, case: &str) {
    assert_eq!(got.num_blocks(), want.num_blocks(), "{case}: block count");
    assert_eq!(got.storage_kind(), want.storage_kind(), "{case}: storage");
    assert_eq!(got.assignment(), want.assignment(), "{case}: assignment");
    for b in 0..want.num_blocks() as u32 {
        let (row, col): (Vec<_>, Vec<_>) = (got.row_iter(b).collect(), got.col_iter(b).collect());
        assert_eq!(row, want.row_iter(b).collect::<Vec<_>>(), "{case}: row {b}");
        assert_eq!(col, want.col_iter(b).collect::<Vec<_>>(), "{case}: col {b}");
        assert_eq!(
            (got.d_out(b), got.d_in(b)),
            (want.d_out(b), want.d_in(b)),
            "{case}: degrees of {b}"
        );
        assert_eq!(
            (got.ln_d_out(b).to_bits(), got.ln_d_in(b).to_bits()),
            (want.ln_d_out(b).to_bits(), want.ln_d_in(b).to_bits()),
            "{case}: ln caches of {b}"
        );
    }
    assert_eq!(
        got.description_length().to_bits(),
        want.description_length().to_bits(),
        "{case}: DL"
    );
    assert!(got.same_state(want), "{case}: same_state disagrees");
}

/// `Blockmodel::merged` ≡ `from_assignment` of the relabelled assignment:
/// the fold of a model's own lines lands on the model a walk of the graph
/// builds, on random multigraphs (repeated pairs fold into heavier arcs)
/// with planted self-loops, from both storages of the source, through
/// relabellings that merge nothing, merge everything, leave target blocks
/// empty, and put the target on either side of each edge of the storage
/// rule — C′ = 64 | 65, the largest dense C′ under `4·E ≥ C′²` and the one
/// above it, C′ = 1024 | 1025 (the heavy graph, whose E keeps 1024 dense).
#[test]
fn merged_equals_from_assignment() {
    use rand::Rng;
    use sbp_core::auto_picks_dense;
    let mut rng = SmallRng::seed_from_u64(24);
    // (vertices, arcs, heaviest arc): E ≈ 6 k, and E ≈ 400 k ≥ 1024²/4.
    for (n, arcs, heaviest) in [(1100u32, 3000usize, 3i64), (1100, 4000, 200)] {
        let mut edges: Vec<(u32, u32, i64)> = (0..arcs)
            .map(|_| {
                (
                    rng.random_range(0..n),
                    rng.random_range(0..n),
                    rng.random_range(1..=heaviest),
                )
            })
            .collect();
        edges.extend((0..n).step_by(37).map(|v| (v, v, 2)));
        let g = Graph::from_edges(n as usize, edges);
        let e = g.total_edge_weight();
        // The two block counts astride the occupancy edge of the rule.
        let brim = (65..=1024usize)
            .rev()
            .find(|&c| auto_picks_dense(c, e))
            .expect("E keeps some C > 64 dense");
        assert!(
            heaviest == 3 || brim == 1024,
            "the heavy graph reaches 1024"
        );

        // Sources: the identity partition (sparse by rule, C = V), and
        // partitions into 300 and 40 blocks, a few of them left empty.
        let sources: [(Vec<u32>, usize); 3] = [
            ((0..n).collect(), n as usize),
            ((0..n).map(|v| v * 7 % 290).collect(), 300),
            ((0..n).map(|_| rng.random_range(0..38)).collect(), 40),
        ];
        for (assignment, c) in sources {
            let mut targets = vec![c, 1, 64, 65, brim, brim + 1, 1024, 1025];
            targets.retain(|&t| t <= c);
            for kind in [StorageKind::Dense, StorageKind::Sparse] {
                let bm = Blockmodel::from_assignment_with(&g, assignment.clone(), c, kind);
                for &to in &targets {
                    // Identity at `to == c`; otherwise a random map that
                    // uses about three quarters of the target ids, so some
                    // stay empty — plus one map onto all of them.
                    let maps: Vec<Vec<u32>> = if to == c {
                        vec![(0..c as u32).collect()]
                    } else {
                        let used = (to * 3).div_ceil(4) as u32;
                        vec![
                            (0..c).map(|_| rng.random_range(0..used)).collect(),
                            (0..c as u32).map(|b| b % to as u32).collect(),
                        ]
                    };
                    for label in maps {
                        let relabelled: Vec<u32> =
                            assignment.iter().map(|&b| label[b as usize]).collect();
                        let want = Blockmodel::from_assignment(&g, relabelled, to);
                        let case = format!("E={e} {kind:?} C={c} → C′={to}");
                        assert_eq!(
                            want.storage_kind() == StorageKind::Dense,
                            auto_picks_dense(to, e),
                            "{case}"
                        );
                        assert_same_model(&bm.merged(&label, to), &want, &case);
                    }
                }
            }
            // Compaction is the fold that merges nothing.
            let bm = Blockmodel::from_assignment(&g, assignment.clone(), c);
            let (compact, width) = sbp_core::compact_labels(assignment, c);
            let want = Blockmodel::from_assignment(&g, compact, width);
            assert_same_model(&bm.compacted(), &want, &format!("E={e} C={c} compacted"));
        }
    }
}

/// MH sweeps at a sparse block count on a generated challenge graph leave
/// every line of the swept model within its room (`capacity ≤ 2·len + 8`,
/// which `validate` checks line by line), and the swept model still equals
/// its rebuild from the graph.
#[test]
fn swept_sparse_lines_keep_their_room() {
    let g = graph_challenge(1000, Difficulty::Hard, 42).graph;
    let n = g.num_vertices();
    let vertices: Vec<u32> = (0..n as u32).collect();
    for (c, seed) in [(500usize, 1u64), (400, 2)] {
        let assignment: Vec<u32> = (0..n).map(|v| (v % c) as u32).collect();
        let mut bm = Blockmodel::from_assignment(&g, assignment, c);
        assert_eq!(bm.storage_kind(), StorageKind::Sparse, "C = {c}");
        let mut rng = SmallRng::seed_from_u64(seed);
        for sweep in 0..4 {
            mh_sweep(&g, &mut bm, &vertices, 3.0, &mut rng);
            bm.validate(&g)
                .unwrap_or_else(|e| panic!("C = {c}, sweep {sweep}: {e}"));
        }
        let rebuilt = Blockmodel::from_assignment(&g, bm.assignment().to_vec(), c);
        assert!(bm.same_state(&rebuilt), "C = {c}");
    }
}
