//! A deliberately naive SBP engine equivalent to the original python
//! DC-SBP reference (Uppal et al., translated by the paper's authors to
//! C++ — Table VI measures exactly this gap). It lives beside the harness,
//! its only caller, and shares the engine's objective, golden bracket,
//! convergence rule and RNG keying through `sbp-core`'s public API.
//!
//! Differences from the optimized engine, mirroring §III-A:
//! * dense `C×C` matrix instead of sparse rows + transpose (optimization
//!   a/b inverted): every ΔS evaluation scans whole rows/columns, O(C)
//!   instead of O(nnz);
//! * no sparse cell deltas (optimization c inverted);
//! * merges applied by rewriting the assignment and rebuilding the dense
//!   matrix rather than union-find pointer tracking (optimization d
//!   inverted);
//! * batch MCMC: each sweep evaluates every vertex against one frozen
//!   state (the python reference's parallelism), with no chunk syncs;
//! * merge partners drawn uniformly over the other blocks, where the
//!   engine draws them with [`sbp_core::propose_for_block`].
//!
//! The objective, the vertex-move proposal distribution and the
//! golden-ratio control are the engine's, so NMI parity with the
//! optimized engine (Table VI's finding) is expected — only the runtime
//! differs.
//!
//! The engine is serial, so Table VI's thread-CPU clock holds all of its
//! work. A sweep evaluates each vertex with the same `(seed, sweep,
//! vertex)`-keyed RNG stream the optimized engine uses, a pure function
//! of the frozen state, and collects the accepted moves in vertex order.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbp_core::golden::{BracketEntry, GoldenBracket, NextStep};
use sbp_core::hybrid::vertex_rng;
use sbp_core::mcmc::ConvergenceCheck;
use sbp_core::model_description_length;
use sbp_core::sbp::{mcmc_phase_seed, SbpConfig};
use sbp_graph::{Graph, Vertex, Weight};

/// Dense blockmodel: row-major `C×C` edge-count matrix.
pub struct DenseBlockmodel {
    assignment: Vec<u32>,
    c: usize,
    m: Vec<Weight>,
    d_out: Vec<Weight>,
    d_in: Vec<Weight>,
    num_vertices: usize,
    total_edge_weight: Weight,
}

impl DenseBlockmodel {
    /// Builds the dense model from an assignment.
    pub fn from_assignment(graph: &Graph, assignment: Vec<u32>, c: usize) -> Self {
        assert_eq!(assignment.len(), graph.num_vertices());
        let mut m = vec![0 as Weight; c * c];
        let mut d_out = vec![0 as Weight; c];
        let mut d_in = vec![0 as Weight; c];
        for (src, dst, w) in graph.arcs() {
            let (r, t) = (
                assignment[src as usize] as usize,
                assignment[dst as usize] as usize,
            );
            m[r * c + t] += w;
            d_out[r] += w;
            d_in[t] += w;
        }
        DenseBlockmodel {
            assignment,
            c,
            m,
            d_out,
            d_in,
            num_vertices: graph.num_vertices(),
            total_edge_weight: graph.total_edge_weight(),
        }
    }

    #[inline]
    fn get(&self, r: usize, t: usize) -> Weight {
        self.m[r * self.c + t]
    }

    /// The assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.c
    }

    /// Full entropy by scanning the dense matrix, O(C²).
    pub fn entropy(&self) -> f64 {
        let mut s = 0.0;
        for r in 0..self.c {
            if self.d_out[r] == 0 {
                continue;
            }
            let ldr = (self.d_out[r] as f64).ln();
            for t in 0..self.c {
                let m = self.get(r, t);
                if m > 0 {
                    let mf = m as f64;
                    s -= mf * (mf.ln() - ldr - (self.d_in[t] as f64).ln());
                }
            }
        }
        s
    }

    /// Description length (Eq. 2) on the dense model.
    pub fn description_length(&self) -> f64 {
        model_description_length(self.num_vertices, self.total_edge_weight, self.c) + self.entropy()
    }

    /// Entropy contribution of rows {r, s} and columns {r, s}, scanning
    /// densely — the O(C) kernel the python reference used per proposal.
    fn lines_entropy(
        &self,
        r: usize,
        s: usize,
        cell: impl Fn(usize, usize) -> Weight,
        d_out: impl Fn(usize) -> Weight,
        d_in: impl Fn(usize) -> Weight,
    ) -> f64 {
        let mut sum = 0.0;
        let term = |m: Weight, dr: Weight, di: Weight| -> f64 {
            if m <= 0 {
                0.0
            } else {
                let mf = m as f64;
                -mf * (mf.ln() - (dr as f64).ln() - (di as f64).ln())
            }
        };
        for row in [r, s] {
            let dr = d_out(row);
            for t in 0..self.c {
                sum += term(cell(row, t), dr, d_in(t));
            }
        }
        for col in [r, s] {
            let di = d_in(col);
            for t in 0..self.c {
                if t == r || t == s {
                    continue; // already counted in the row pass
                }
                sum += term(cell(t, col), d_out(t), di);
            }
        }
        sum
    }

    /// The change of [`Self::lines_entropy`] from the model as it stands
    /// to the one given by `cell`, `d_out` and `d_in`.
    fn lines_delta(
        &self,
        r: usize,
        s: usize,
        cell: impl Fn(usize, usize) -> Weight,
        d_out: impl Fn(usize) -> Weight,
        d_in: impl Fn(usize) -> Weight,
    ) -> f64 {
        let old = self.lines_entropy(
            r,
            s,
            |x, y| self.get(x, y),
            |x| self.d_out[x],
            |y| self.d_in[y],
        );
        self.lines_entropy(r, s, cell, d_out, d_in) - old
    }

    /// ΔS for moving vertex `v` to block `s`, via dense line rescans
    /// (allocating convenience wrapper over
    /// [`DenseBlockmodel::delta_entropy_move_with`]).
    pub fn delta_entropy_move(&self, graph: &Graph, v: Vertex, s: usize) -> f64 {
        self.delta_entropy_move_with(graph, v, s, &mut NaiveScratch::default())
    }

    /// ΔS for moving vertex `v` to block `s`, reusing the caller's
    /// scratch buffers (no allocation after the first call).
    pub fn delta_entropy_move_with(
        &self,
        graph: &Graph,
        v: Vertex,
        s: usize,
        scratch: &mut NaiveScratch,
    ) -> f64 {
        let r = self.assignment[v as usize] as usize;
        if r == s {
            return 0.0;
        }
        // Dense per-line deltas.
        scratch.reset(self.c);
        let NaiveScratch {
            d_row_r,
            d_row_s,
            d_col_r,
            d_col_s,
            ..
        } = scratch;
        for (u, w) in graph.out_edges(v) {
            if u == v {
                d_row_r[r] -= w;
                d_row_s[s] += w;
            } else {
                let t = self.assignment[u as usize] as usize;
                d_row_r[t] -= w;
                d_row_s[t] += w;
            }
        }
        for (u, w) in graph.in_edges(v) {
            if u == v {
                continue;
            }
            let t = self.assignment[u as usize] as usize;
            d_col_r[t] -= w;
            d_col_s[t] += w;
        }
        // Row deltas carry v's out-edges and column deltas its in-edges;
        // a corner cell (r/s, r/s) takes both.
        let cell_new = |x: usize, y: usize| -> Weight {
            let mut m = self.get(x, y);
            if x == r {
                m += d_row_r[y];
            }
            if x == s {
                m += d_row_s[y];
            }
            if y == r {
                m += d_col_r[x];
            }
            if y == s {
                m += d_col_s[x];
            }
            m
        };
        let (ov, iv) = (graph.out_degree(v), graph.in_degree(v));
        self.lines_delta(
            r,
            s,
            cell_new,
            shifted(&self.d_out, r, s, ov),
            shifted(&self.d_in, r, s, iv),
        )
    }

    /// ΔS for merging block `r` into block `s`, dense rescan.
    pub fn delta_entropy_merge(&self, r: usize, s: usize) -> f64 {
        assert_ne!(r, s);
        let cell_new = |x: usize, y: usize| -> Weight {
            if x == r || y == r {
                return 0;
            }
            let mut m = self.get(x, y);
            if x == s && y == s {
                m += self.get(r, r) + self.get(r, s) + self.get(s, r);
            } else if x == s {
                m += self.get(r, y);
            } else if y == s {
                m += self.get(x, r);
            }
            m
        };
        // Block r's whole degree moves to s.
        self.lines_delta(
            r,
            s,
            cell_new,
            shifted(&self.d_out, r, s, self.d_out[r]),
            shifted(&self.d_in, r, s, self.d_in[r]),
        )
    }

    /// Proposal distribution — same semantics as the sparse engine but
    /// scanning dense rows.
    fn propose<R: Rng + ?Sized>(&self, rng: &mut R, graph: &Graph, v: Vertex) -> Option<usize> {
        if self.c <= 1 {
            return None;
        }
        let self_w: Weight = graph
            .out_edges(v)
            .filter(|&(u, _)| u == v)
            .map(|(_, w)| w)
            .sum();
        let d_excl = graph.degree(v) - 2 * self_w;
        if d_excl <= 0 {
            return Some(rng.random_range(0..self.c));
        }
        let mut x = rng.random_range(0..d_excl);
        let mut t = 0usize;
        for (u, w) in graph.out_edges(v).chain(graph.in_edges(v)) {
            if u == v {
                continue;
            }
            if x < w {
                t = self.assignment[u as usize] as usize;
                break;
            }
            x -= w;
        }
        let dt = self.d_out[t] + self.d_in[t];
        if dt == 0 || rng.random::<f64>() < self.c as f64 / (dt as f64 + self.c as f64) {
            return Some(rng.random_range(0..self.c));
        }
        let mut x = rng.random_range(0..dt);
        for y in 0..self.c {
            let m = self.get(t, y);
            if x < m {
                return Some(y);
            }
            x -= m;
        }
        for y in 0..self.c {
            let m = self.get(y, t);
            if x < m {
                return Some(y);
            }
            x -= m;
        }
        Some(t)
    }

    fn hastings(
        &self,
        graph: &Graph,
        v: Vertex,
        r: usize,
        s: usize,
        scratch: &mut NaiveScratch,
    ) -> f64 {
        let b = self.c as f64;
        scratch.reset(self.c);
        let NaiveScratch {
            w_t,
            d_row_r: d_row,
            d_col_r: d_col,
            ..
        } = scratch;
        for (u, w) in graph.out_edges(v).chain(graph.in_edges(v)) {
            if u == v {
                continue;
            }
            let t = self.assignment[u as usize] as usize;
            match w_t.iter_mut().find(|(bt, _)| *bt == t) {
                Some((_, tw)) => *tw += w,
                None => w_t.push((t, w)),
            }
        }
        if w_t.is_empty() {
            return 1.0;
        }
        let (ov, iv) = (graph.out_degree(v), graph.in_degree(v));
        let shift = ov + iv;
        // Post-move cell values for the backward direction.
        for (u, w) in graph.out_edges(v) {
            if u != v {
                d_row[self.assignment[u as usize] as usize] += w;
            }
        }
        for (u, w) in graph.in_edges(v) {
            if u != v {
                d_col[self.assignment[u as usize] as usize] += w;
            }
        }
        let mut fwd = 0.0;
        let mut bwd = 0.0;
        for &(t, w) in w_t.iter() {
            let wf = w as f64;
            let dt = (self.d_out[t] + self.d_in[t]) as f64;
            fwd += wf * ((self.get(t, s) + self.get(s, t) + 1) as f64) / (dt + b);
            // After the move: row/col r lose v's contributions, row/col s gain.
            let adj = |x: usize, y: usize| -> Weight {
                let mut m = self.get(x, y);
                if x == r {
                    m -= d_row[y];
                }
                if x == s {
                    m += d_row[y];
                }
                if y == r {
                    m -= d_col[x];
                }
                if y == s {
                    m += d_col[x];
                }
                m
            };
            let dt_new = if t == r {
                dt - shift as f64
            } else if t == s {
                dt + shift as f64
            } else {
                dt
            };
            bwd += wf * ((adj(t, r) + adj(r, t) + 1) as f64) / (dt_new + b);
        }
        if fwd <= 0.0 {
            return 1.0;
        }
        bwd / fwd
    }
}

/// `base` with `by` taken from block `r` and given to block `s`.
fn shifted(base: &[Weight], r: usize, s: usize, by: Weight) -> impl Fn(usize) -> Weight + '_ {
    move |x| {
        if x == r {
            base[x] - by
        } else if x == s {
            base[x] + by
        } else {
            base[x]
        }
    }
}

/// Reusable dense per-line delta buffers for the naive engine — the same
/// role [`sbp_core::DeltaScratch`] plays for the sparse engine, so
/// allocation stays out of the Table VI comparison (which isolates the
/// data-structure asymptotics).
#[derive(Debug, Default)]
pub struct NaiveScratch {
    d_row_r: Vec<Weight>,
    d_row_s: Vec<Weight>,
    d_col_r: Vec<Weight>,
    d_col_s: Vec<Weight>,
    w_t: Vec<(usize, Weight)>,
}

impl NaiveScratch {
    fn reset(&mut self, c: usize) {
        for buf in [
            &mut self.d_row_r,
            &mut self.d_row_s,
            &mut self.d_col_r,
            &mut self.d_col_s,
        ] {
            buf.clear();
            buf.resize(c, 0);
        }
        self.w_t.clear();
    }
}

/// Naive (python-equivalent) SBP inference from the identity partition:
/// the best partition the golden search found, as the bracket holds it.
pub fn naive_sbp(graph: &Graph, cfg: &SbpConfig) -> BracketEntry {
    let c0 = graph.num_vertices();
    if c0 == 0 {
        return BracketEntry {
            assignment: Vec::new(),
            num_blocks: 0,
            dl: 0.0,
        };
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let start = DenseBlockmodel::from_assignment(graph, (0..c0 as u32).collect(), c0);
    let mut bracket = GoldenBracket::new(cfg.block_reduction_rate);
    bracket.seed(BracketEntry {
        dl: start.description_length(),
        assignment: start.assignment,
        num_blocks: c0,
    });
    for iter_idx in 0..cfg.max_iterations {
        let NextStep::Continue {
            start,
            blocks_to_merge,
        } = bracket.next()
        else {
            break;
        };
        let mut bm = DenseBlockmodel::from_assignment(graph, start.assignment, start.num_blocks);
        naive_merge_phase(graph, &mut bm, blocks_to_merge, cfg, &mut rng);
        let threshold = if bracket.established() {
            cfg.threshold_post
        } else {
            cfg.threshold_pre
        };
        naive_mcmc_phase(graph, &mut bm, cfg, threshold, iter_idx);
        bracket.record(BracketEntry {
            dl: bm.description_length(),
            assignment: bm.assignment,
            num_blocks: bm.c,
        });
    }
    bracket.best().expect("seeded").clone()
}

fn naive_merge_phase(
    graph: &Graph,
    bm: &mut DenseBlockmodel,
    blocks_to_merge: usize,
    cfg: &SbpConfig,
    rng: &mut SmallRng,
) {
    let c = bm.c;
    // Best merge per block, dense evaluation.
    let mut cands: Vec<(f64, usize, usize)> = Vec::with_capacity(c);
    for r in 0..c {
        let mut best: Option<(f64, usize)> = None;
        for _ in 0..cfg.merge_proposals_per_block {
            if c <= 1 {
                break;
            }
            // Uniform-ish proposal mixing, as in the python reference's
            // agglomerative mode.
            let s = {
                let mut s = rng.random_range(0..c - 1);
                if s >= r {
                    s += 1;
                }
                s
            };
            let ds = bm.delta_entropy_merge(r, s);
            if best.is_none() || ds < best.expect("checked").0 {
                best = Some((ds, s));
            }
        }
        if let Some((ds, s)) = best {
            cands.push((ds, r, s));
        }
    }
    cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // No pointer scheme: apply merges one at a time by rewriting the
    // assignment and rebuilding — the naive path Table VI measures.
    let mut assignment = bm.assignment.clone();
    let mut merged = 0usize;
    let mut alias: Vec<usize> = (0..c).collect();
    for (_, r, s) in cands {
        if merged >= blocks_to_merge {
            break;
        }
        let (mut r2, mut s2) = (alias[r], alias[s]);
        while alias[r2] != r2 {
            r2 = alias[r2];
        }
        while alias[s2] != s2 {
            s2 = alias[s2];
        }
        if r2 == s2 {
            continue;
        }
        alias[r2] = s2;
        for a in assignment.iter_mut() {
            if *a as usize == r2 {
                *a = s2 as u32;
            }
        }
        merged += 1;
    }
    // Compact labels and rebuild densely.
    let mut map = vec![u32::MAX; c];
    let mut next = 0u32;
    for &a in &assignment {
        if map[a as usize] == u32::MAX {
            map[a as usize] = next;
            next += 1;
        }
    }
    for a in assignment.iter_mut() {
        *a = map[*a as usize];
    }
    *bm = DenseBlockmodel::from_assignment(graph, assignment, next as usize);
}

/// Evaluates one vertex of a naive batch sweep against the frozen dense
/// model: propose, ΔS, Hastings, accept — a pure function of
/// `(state, seed, sweep, v)`.
fn evaluate_naive(
    graph: &Graph,
    bm: &DenseBlockmodel,
    v: Vertex,
    beta: f64,
    seed: u64,
    sweep: usize,
    scratch: &mut NaiveScratch,
) -> Option<(Vertex, usize)> {
    if graph.degree(v) == 0 {
        return None;
    }
    let mut rng = vertex_rng(seed, sweep, v);
    let s = bm.propose(&mut rng, graph, v)?;
    let r = bm.assignment[v as usize] as usize;
    if s == r {
        return None;
    }
    let ds = bm.delta_entropy_move_with(graph, v, s, scratch);
    let h = bm.hastings(graph, v, r, s, scratch);
    let p = ((-beta * ds).exp() * h).min(1.0);
    (rng.random::<f64>() < p).then_some((v, s))
}

fn naive_mcmc_phase(
    graph: &Graph,
    bm: &mut DenseBlockmodel,
    cfg: &SbpConfig,
    threshold: f64,
    iter_idx: usize,
) {
    let initial = bm.description_length();
    let mut check = ConvergenceCheck::new(initial, threshold);
    let sweep_seed = mcmc_phase_seed(cfg.seed, iter_idx);
    let mut scratch = NaiveScratch::default();
    for sweep in 0..cfg.max_sweeps {
        // Batch sweep: every vertex against the frozen state, then apply
        // and rebuild (the python reference updated rows densely; a
        // rebuild has the same asymptotics at this scale).
        let frozen: &DenseBlockmodel = bm;
        let accepted: Vec<(Vertex, usize)> = (0..graph.num_vertices() as Vertex)
            .filter_map(|v| {
                evaluate_naive(graph, frozen, v, cfg.beta, sweep_seed, sweep, &mut scratch)
            })
            .collect();
        if !accepted.is_empty() {
            let mut assignment = bm.assignment.clone();
            for (v, s) in accepted {
                assignment[v as usize] = s as u32;
            }
            *bm = DenseBlockmodel::from_assignment(graph, assignment, bm.c);
        }
        if check.record(bm.description_length()) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_core::Blockmodel;

    fn two_triangles() -> Graph {
        Graph::from_edges(
            6,
            vec![
                (0, 1, 2),
                (1, 2, 2),
                (2, 0, 2),
                (3, 4, 2),
                (4, 5, 2),
                (5, 3, 2),
                (2, 3, 1),
            ],
        )
    }

    #[test]
    fn dense_entropy_matches_sparse() {
        let g = two_triangles();
        let assignment = vec![0u32, 0, 0, 1, 1, 1];
        let dense = DenseBlockmodel::from_assignment(&g, assignment.clone(), 2);
        let sparse = Blockmodel::from_assignment(&g, assignment, 2);
        assert!((dense.entropy() - sparse.entropy()).abs() < 1e-12);
        assert!((dense.description_length() - sparse.description_length()).abs() < 1e-12);
    }

    #[test]
    fn dense_move_delta_matches_recompute() {
        let g = two_triangles();
        let bm = DenseBlockmodel::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        for v in 0..6u32 {
            for s in 0..2usize {
                let ds = bm.delta_entropy_move(&g, v, s);
                let mut assignment = bm.assignment.clone();
                assignment[v as usize] = s as u32;
                let after = DenseBlockmodel::from_assignment(&g, assignment, 2);
                let exact = after.entropy() - bm.entropy();
                assert!(
                    (ds - exact).abs() < 1e-9,
                    "v={v} s={s}: got {ds}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn dense_merge_delta_matches_recompute() {
        let g = two_triangles();
        let bm = DenseBlockmodel::from_assignment(&g, vec![0, 1, 1, 2, 2, 3], 4);
        for r in 0..4usize {
            for s in 0..4usize {
                if r == s {
                    continue;
                }
                let ds = bm.delta_entropy_merge(r, s);
                let merged: Vec<u32> = bm
                    .assignment
                    .iter()
                    .map(|&b| if b as usize == r { s as u32 } else { b })
                    .collect();
                let after = DenseBlockmodel::from_assignment(&g, merged, 4);
                let exact = after.entropy() - bm.entropy();
                assert!(
                    (ds - exact).abs() < 1e-9,
                    "merge {r}->{s}: got {ds}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn naive_sbp_recovers_two_cliques() {
        // Two 8-cliques joined by one edge (big enough that the 2-block
        // model's likelihood gain beats its description-length cost).
        let k = 8u32;
        let mut edges = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if i != j {
                    edges.push((i, j, 1));
                    edges.push((k + i, k + j, 1));
                }
            }
        }
        edges.push((0, k, 1));
        let g = Graph::from_edges(2 * k as usize, edges);
        let res = naive_sbp(
            &g,
            &SbpConfig {
                seed: 6,
                ..Default::default()
            },
        );
        assert_eq!(res.num_blocks, 2);
        assert_eq!(res.assignment[0], res.assignment[7]);
        assert_eq!(res.assignment[8], res.assignment[15]);
        assert_ne!(res.assignment[0], res.assignment[8]);
    }

    #[test]
    fn naive_sbp_empty_graph() {
        let g = Graph::from_edges(0, Vec::new());
        let res = naive_sbp(&g, &SbpConfig::default());
        assert_eq!(res.num_blocks, 0);
    }
}
