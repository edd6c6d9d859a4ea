//! The planted-partition degree-corrected SBM generator.
//!
//! Mirrors the generation procedure the paper describes (§IV-A): draw
//! community sizes from a symmetric Dirichlet, draw a power-law degree
//! sequence (optionally truncated, optionally duplicated between in- and
//! out-degrees), then place each out-stub either inside its community (with
//! the configured intra-community probability) or in another community
//! chosen proportionally to in-degree mass, with the endpoint inside the
//! target community chosen proportionally to vertex in-degree. Parallel
//! edges merge into weights.

use crate::alias::AliasTable;
use crate::dist::{binomial, dirichlet_symmetric, TruncatedPowerLaw};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbp_graph::{Graph, Vertex, Weight};

/// Degree-sequence configuration (the Table III generator knobs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeConfig {
    /// Power-law exponent γ in `P(k) ∝ k^(-γ)`.
    pub gamma: f64,
    /// Lower truncation. `1` reproduces the un-truncated ("F" in Table III)
    /// setting whose sparsity breaks DC-SBP.
    pub min_degree: i64,
    /// Upper truncation.
    pub max_degree: i64,
    /// If true, the drawn sequence is used for **both** in- and out-degrees
    /// ("degree sequence duplication", §IV-A), which doubles every vertex's
    /// total degree; if false, each drawn total degree is split binomially
    /// between in and out, permitting total degree 1.
    pub duplicated: bool,
}

impl DegreeConfig {
    /// Graph-Challenge-style truncated config (min 10, max 100, duplicated).
    pub fn truncated() -> Self {
        DegreeConfig {
            gamma: 2.1,
            min_degree: 10,
            max_degree: 100,
            duplicated: true,
        }
    }
}

/// Full generator parameterization.
#[derive(Clone, Debug)]
pub struct SbmParams {
    /// Number of vertices `V`.
    pub num_vertices: usize,
    /// Number of planted communities `C`.
    pub num_communities: usize,
    /// Expected fraction of intra-community edges. The paper's "complex
    /// community structure" graphs use an intra:inter ratio of roughly 2,
    /// i.e. a fraction of 2/3 (§IV-A).
    pub intra_fraction: f64,
    /// Symmetric Dirichlet concentration for community sizes; the paper
    /// uses α = 2 ("high block size variation").
    pub dirichlet_alpha: f64,
    /// Degree-sequence knobs.
    pub degrees: DegreeConfig,
    /// RNG seed; generation is fully deterministic given the seed.
    pub seed: u64,
}

impl SbmParams {
    /// A small, easily-recovered default useful in tests and examples.
    pub fn example() -> Self {
        SbmParams {
            num_vertices: 300,
            num_communities: 4,
            intra_fraction: 0.8,
            dirichlet_alpha: 10.0,
            degrees: DegreeConfig {
                gamma: 2.1,
                min_degree: 5,
                max_degree: 30,
                duplicated: true,
            },
            seed: 42,
        }
    }
}

/// A generated graph together with its planted ground truth.
#[derive(Clone, Debug)]
pub struct PlantedGraph {
    /// The generated graph.
    pub graph: Graph,
    /// Planted community of every vertex (labels `0..num_communities`;
    /// communities that ended up empty keep their label but no members).
    pub ground_truth: Vec<u32>,
    /// The parameters that produced this graph.
    pub params: SbmParams,
}

impl PlantedGraph {
    /// Number of non-empty planted communities.
    pub fn num_nonempty_communities(&self) -> usize {
        let mut seen = vec![false; self.params.num_communities];
        for &c in &self.ground_truth {
            seen[c as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }
}

/// Generates a planted-partition DC-SBM graph.
///
/// # Panics
/// Panics on nonsensical parameters (zero vertices/communities, intra
/// fraction outside `[0, 1]`, more communities than vertices).
pub fn generate(params: &SbmParams) -> PlantedGraph {
    let v = params.num_vertices;
    let c = params.num_communities;
    assert!(v > 0, "need at least one vertex");
    assert!(c > 0, "need at least one community");
    assert!(c <= v, "more communities ({c}) than vertices ({v})");
    assert!(
        (0.0..=1.0).contains(&params.intra_fraction),
        "intra fraction must be in [0,1]"
    );
    let mut rng = SmallRng::seed_from_u64(params.seed);

    // 1. Community sizes ~ Dirichlet(α); vertices assigned i.i.d. to the
    //    resulting weights, then each community is guaranteed at least one
    //    member by stealing from the largest.
    let weights = dirichlet_symmetric(&mut rng, params.dirichlet_alpha, c);
    let community_table =
        AliasTable::new(&weights).expect("dirichlet weights are positive and sum to 1");
    let mut assignment: Vec<u32> = (0..v).map(|_| community_table.sample(&mut rng)).collect();
    ensure_all_communities_nonempty(&mut assignment, c, &mut rng);

    // 2. Degree sequences.
    let dc = &params.degrees;
    let max_degree = dc.max_degree.min(v as i64).max(dc.min_degree);
    let pl = TruncatedPowerLaw::new(dc.gamma, dc.min_degree, max_degree);
    let mut d_out: Vec<i64> = Vec::with_capacity(v);
    let mut d_in: Vec<i64> = Vec::with_capacity(v);
    for _ in 0..v {
        let k = pl.sample(&mut rng);
        if dc.duplicated {
            d_out.push(k);
            d_in.push(k);
        } else {
            let out = binomial(&mut rng, k as u64, 0.5) as i64;
            d_out.push(out);
            d_in.push(k - out);
        }
    }

    // 3. Per-community in-degree alias tables and community in-mass.
    let mut members: Vec<Vec<Vertex>> = vec![Vec::new(); c];
    for (vtx, &comm) in assignment.iter().enumerate() {
        members[comm as usize].push(vtx as Vertex);
    }
    let mut in_tables: Vec<Option<AliasTable>> = Vec::with_capacity(c);
    let mut in_mass: Vec<f64> = Vec::with_capacity(c);
    for mem in &members {
        let w: Vec<f64> = mem.iter().map(|&m| d_in[m as usize] as f64).collect();
        let table = AliasTable::new(&w);
        in_mass.push(table.as_ref().map_or(0.0, |t| t.total_weight()));
        in_tables.push(table);
    }
    let total_in_mass: f64 = in_mass.iter().sum();

    // 4. Stub placement.
    let mut edges: Vec<(Vertex, Vertex, Weight)> =
        Vec::with_capacity(d_out.iter().sum::<i64>() as usize);
    for src in 0..v as Vertex {
        let home = assignment[src as usize] as usize;
        for _ in 0..d_out[src as usize] {
            let target_comm = pick_target_community(
                &mut rng,
                home,
                params.intra_fraction,
                &in_mass,
                total_in_mass,
            );
            let Some(target_comm) = target_comm else {
                continue; // no community anywhere has in-degree mass
            };
            let table = in_tables[target_comm]
                .as_ref()
                .expect("picked community has positive in-mass");
            let dst = members[target_comm][table.sample(&mut rng) as usize];
            edges.push((src, dst, 1));
        }
    }

    PlantedGraph {
        graph: Graph::from_edges(v, edges),
        ground_truth: assignment,
        params: params.clone(),
    }
}

/// Chooses the community an out-stub lands in: the home community with
/// probability `intra_fraction` (when it has in-mass), otherwise another
/// community proportionally to in-degree mass. Returns `None` when no
/// community has any in-degree mass.
fn pick_target_community<R: Rng + ?Sized>(
    rng: &mut R,
    home: usize,
    intra_fraction: f64,
    in_mass: &[f64],
    total_in_mass: f64,
) -> Option<usize> {
    if total_in_mass <= 0.0 {
        return None;
    }
    let home_mass = in_mass[home];
    let other_mass = total_in_mass - home_mass;
    let go_home = home_mass > 0.0 && (other_mass <= 0.0 || rng.random::<f64>() < intra_fraction);
    if go_home {
        return Some(home);
    }
    if other_mass <= 0.0 {
        return Some(home); // home must have the mass then
    }
    // Sample a non-home community proportionally to in-mass by inverse CDF.
    let mut u = rng.random::<f64>() * other_mass;
    for (comm, &mass) in in_mass.iter().enumerate() {
        if comm == home {
            continue;
        }
        if u < mass {
            return Some(comm);
        }
        u -= mass;
    }
    // Floating-point tail: return the last non-home community with mass.
    in_mass
        .iter()
        .enumerate()
        .filter(|&(comm, &m)| comm != home && m > 0.0)
        .map(|(comm, _)| comm)
        .next_back()
}

fn ensure_all_communities_nonempty<R: Rng + ?Sized>(assignment: &mut [u32], c: usize, rng: &mut R) {
    let mut counts = vec![0usize; c];
    for &a in assignment.iter() {
        counts[a as usize] += 1;
    }
    for comm in 0..c {
        while counts[comm] == 0 {
            // Steal a random vertex from a community with >1 members.
            let victim = rng.random_range(0..assignment.len());
            let old = assignment[victim] as usize;
            if counts[old] > 1 {
                assignment[victim] = comm as u32;
                counts[old] -= 1;
                counts[comm] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let p = SbmParams::example();
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn different_seeds_differ() {
        let p = SbmParams::example();
        let mut p2 = p.clone();
        p2.seed = 43;
        assert_ne!(generate(&p).graph, generate(&p2).graph);
    }

    #[test]
    fn every_community_nonempty() {
        let mut p = SbmParams::example();
        p.num_communities = 40;
        p.num_vertices = 120;
        let g = generate(&p);
        assert_eq!(g.num_nonempty_communities(), 40);
    }

    #[test]
    fn edge_count_tracks_degree_sequence() {
        let p = SbmParams::example();
        let g = generate(&p);
        // Duplicated degrees in [5, 30] → total weight in [5V, 30V].
        let e = g.graph.total_edge_weight();
        let v = p.num_vertices as i64;
        assert!(e >= 5 * v && e <= 30 * v, "E = {e} for V = {v}");
    }

    #[test]
    fn intra_fraction_is_respected() {
        let mut p = SbmParams::example();
        p.num_vertices = 2000;
        p.intra_fraction = 2.0 / 3.0;
        let g = generate(&p);
        let mut intra = 0i64;
        let mut total = 0i64;
        for (s, d, w) in g.graph.arcs() {
            if g.ground_truth[s as usize] == g.ground_truth[d as usize] {
                intra += w;
            }
            total += w;
        }
        let frac = intra as f64 / total as f64;
        assert!(
            (frac - 2.0 / 3.0).abs() < 0.05,
            "intra fraction {frac}, expected ~0.667"
        );
    }

    #[test]
    fn duplicated_degrees_have_min_total_twice_min() {
        let mut p = SbmParams::example();
        p.degrees.duplicated = true;
        p.degrees.min_degree = 5;
        let g = generate(&p);
        // Expected degree (out + in) per vertex is >= 2*min in expectation;
        // the generator realizes out-stubs exactly, in-stubs stochastically,
        // so check the generated out-degree floor exactly.
        for vtx in 0..p.num_vertices as u32 {
            assert!(g.graph.out_degree(vtx) >= 5, "vertex {vtx}");
        }
    }

    #[test]
    fn unduplicated_allows_degree_one_vertices() {
        let mut p = SbmParams::example();
        p.num_vertices = 3000;
        // Web-graph-like: min degree 1, heavy tail.
        p.degrees = DegreeConfig {
            gamma: 2.5,
            min_degree: 1,
            max_degree: 300,
            duplicated: false,
        };
        let g = generate(&p);
        let n_deg_le_1 = (0..3000u32)
            .filter(|&vtx| g.graph.out_degree(vtx) + g.graph.in_degree(vtx) <= 2)
            .count();
        // A min-degree-1 power law yields many such vertices.
        assert!(n_deg_le_1 > 100, "only {n_deg_le_1} near-isolated vertices");
    }

    #[test]
    fn single_community_graph() {
        let mut p = SbmParams::example();
        p.num_communities = 1;
        p.num_vertices = 50;
        let g = generate(&p);
        assert!(g.ground_truth.iter().all(|&c| c == 0));
        assert!(g.graph.total_edge_weight() > 0);
    }

    #[test]
    #[should_panic(expected = "more communities")]
    fn too_many_communities_panics() {
        let mut p = SbmParams::example();
        p.num_communities = p.num_vertices + 1;
        generate(&p);
    }

    #[test]
    fn size_variation_follows_alpha() {
        let sizes = |alpha: f64| {
            let mut p = SbmParams::example();
            p.num_vertices = 3000;
            p.num_communities = 10;
            p.dirichlet_alpha = alpha;
            let g = generate(&p);
            let mut counts = [0usize; 10];
            for &c in &g.ground_truth {
                counts[c as usize] += 1;
            }
            let mean = 300.0;
            counts.iter().map(|&c| (c as f64 - mean).abs()).sum::<f64>() / 10.0
        };
        // Low alpha → high size variation.
        assert!(sizes(0.5) > sizes(50.0));
    }
}
