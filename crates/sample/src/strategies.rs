//! Vertex-sampling strategies.
//!
//! Every sampler returns a sorted, duplicate-free vertex list of exactly
//! `target` vertices (when the graph has that many), suitable for
//! `sbp_graph::induced_subgraph`. Connectivity-aware samplers (forest
//! fire, expansion snowball) restart from fresh seeds when they exhaust a
//! component, so they always reach the target size.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sbp_graph::{Graph, Vertex};

/// The sampling strategies evaluated in the sampling-SBP literature the
/// paper cites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniform random vertices.
    UniformNode,
    /// Vertices drawn proportionally to total degree (without
    /// replacement): biases toward hubs, preserving the dense core.
    DegreeWeightedNode,
    /// Endpoints of uniformly sampled edges: equivalent to degree-biased
    /// vertex sampling but keeps both endpoints of witnessed edges.
    RandomEdge,
    /// Forest fire: BFS with geometric "burn" of each vertex's neighbors
    /// (Leskovec-style), restarted until the target size is reached.
    ForestFire {
        /// Probability of burning each incident edge (0 < p < 1).
        burn_probability_pct: u8,
    },
    /// Expansion snowball (Maiya & Berger-Wolf WWW'10, the paper's \[24\]):
    /// greedily grow the sample by the frontier vertex contributing the
    /// most new neighbors — maximizes expansion, preserving community
    /// boundaries.
    ExpansionSnowball,
}

/// Samples `target` vertices from `graph` with the given strategy.
/// Deterministic given `seed`. Returns all vertices when
/// `target >= num_vertices`.
pub fn sample_vertices(
    graph: &Graph,
    strategy: SamplingStrategy,
    target: usize,
    seed: u64,
) -> Vec<Vertex> {
    let n = graph.num_vertices();
    if target >= n {
        return (0..n as Vertex).collect();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut picked = match strategy {
        SamplingStrategy::UniformNode => uniform_node(n, target, &mut rng),
        SamplingStrategy::DegreeWeightedNode => degree_weighted(graph, target, &mut rng),
        SamplingStrategy::RandomEdge => random_edge(graph, target, &mut rng),
        SamplingStrategy::ForestFire {
            burn_probability_pct,
        } => forest_fire(
            graph,
            target,
            f64::from(burn_probability_pct.clamp(1, 99)) / 100.0,
            &mut rng,
        ),
        SamplingStrategy::ExpansionSnowball => expansion_snowball(graph, target, &mut rng),
    };
    picked.sort_unstable();
    picked.dedup();
    debug_assert_eq!(picked.len(), target);
    picked
}

fn uniform_node<R: Rng + ?Sized>(n: usize, target: usize, rng: &mut R) -> Vec<Vertex> {
    // Partial Fisher–Yates over the id range.
    let mut ids: Vec<Vertex> = (0..n as Vertex).collect();
    for i in 0..target {
        let j = rng.random_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(target);
    ids
}

fn degree_weighted(graph: &Graph, target: usize, rng: &mut SmallRng) -> Vec<Vertex> {
    let n = graph.num_vertices();
    // Cumulative degree mass (+1 smoothing so isolated vertices remain
    // reachable and the total is always positive).
    let mut cum: Vec<f64> = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for v in 0..n as Vertex {
        acc += graph.degree(v) as f64 + 1.0;
        cum.push(acc);
    }
    let mut chosen = vec![false; n];
    let mut picked = Vec::with_capacity(target);
    while picked.len() < target {
        let x = rng.random_range(0.0..acc);
        let idx = cum.partition_point(|&c| c <= x).min(n - 1);
        if !chosen[idx] {
            chosen[idx] = true;
            picked.push(idx as Vertex);
        }
    }
    picked
}

fn random_edge(graph: &Graph, target: usize, rng: &mut SmallRng) -> Vec<Vertex> {
    let arcs: Vec<(Vertex, Vertex)> = graph.arcs().map(|(s, d, _)| (s, d)).collect();
    let n = graph.num_vertices();
    let mut chosen = vec![false; n];
    let mut picked = Vec::with_capacity(target);
    let push = |v: Vertex, chosen: &mut Vec<bool>, picked: &mut Vec<Vertex>| {
        if picked.len() < target && !chosen[v as usize] {
            chosen[v as usize] = true;
            picked.push(v);
        }
    };
    if !arcs.is_empty() {
        // Sample edges with replacement until enough endpoints collected;
        // bail to uniform fill when edges alone cannot reach the target.
        for _ in 0..arcs.len() * 8 {
            if picked.len() >= target {
                break;
            }
            let (s, d) = arcs[rng.random_range(0..arcs.len())];
            push(s, &mut chosen, &mut picked);
            push(d, &mut chosen, &mut picked);
        }
    }
    fill_uniform_remainder(n, target, &mut chosen, &mut picked, rng);
    picked
}

fn forest_fire(graph: &Graph, target: usize, p: f64, rng: &mut SmallRng) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let mut chosen = vec![false; n];
    let mut picked: Vec<Vertex> = Vec::with_capacity(target);
    let mut queue: Vec<Vertex> = Vec::new();
    while picked.len() < target {
        if queue.is_empty() {
            // (Re)ignite at a random unburned vertex.
            let mut seed_v = rng.random_range(0..n) as Vertex;
            let mut guard = 0;
            while chosen[seed_v as usize] {
                seed_v = rng.random_range(0..n) as Vertex;
                guard += 1;
                if guard > 4 * n {
                    break;
                }
            }
            if chosen[seed_v as usize] {
                // Everything reachable burned; fill uniformly.
                fill_uniform_remainder(n, target, &mut chosen, &mut picked, rng);
                return picked;
            }
            chosen[seed_v as usize] = true;
            picked.push(seed_v);
            queue.push(seed_v);
            continue;
        }
        let v = queue.remove(0);
        for (u, _) in graph.out_edges(v).chain(graph.in_edges(v)) {
            if picked.len() >= target {
                break;
            }
            if !chosen[u as usize] && rng.random::<f64>() < p {
                chosen[u as usize] = true;
                picked.push(u);
                queue.push(u);
            }
        }
    }
    picked
}

fn expansion_snowball(graph: &Graph, target: usize, rng: &mut SmallRng) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let mut in_sample = vec![false; n];
    let mut picked: Vec<Vertex> = Vec::with_capacity(target);
    // Frontier with expansion scores: neighbors of the sample not in it.
    let mut frontier: Vec<Vertex> = Vec::new();
    let mut in_frontier = vec![false; n];

    let add = |v: Vertex,
               in_sample: &mut Vec<bool>,
               picked: &mut Vec<Vertex>,
               frontier: &mut Vec<Vertex>,
               in_frontier: &mut Vec<bool>| {
        in_sample[v as usize] = true;
        in_frontier[v as usize] = false;
        picked.push(v);
        for (u, _) in graph.out_edges(v).chain(graph.in_edges(v)) {
            if !in_sample[u as usize] && !in_frontier[u as usize] {
                in_frontier[u as usize] = true;
                frontier.push(u);
            }
        }
    };

    while picked.len() < target {
        frontier.retain(|&u| !in_sample[u as usize]);
        if frontier.is_empty() {
            // New component: seed at a random unsampled vertex.
            let mut seed_v = rng.random_range(0..n) as Vertex;
            let mut guard = 0;
            while in_sample[seed_v as usize] && guard <= 4 * n {
                seed_v = rng.random_range(0..n) as Vertex;
                guard += 1;
            }
            if in_sample[seed_v as usize] {
                fill_uniform_remainder(n, target, &mut in_sample, &mut picked, rng);
                return picked;
            }
            add(
                seed_v,
                &mut in_sample,
                &mut picked,
                &mut frontier,
                &mut in_frontier,
            );
            continue;
        }
        // Pick the frontier vertex with the largest expansion contribution
        // (count of neighbors outside sample ∪ frontier).
        let best = frontier
            .iter()
            .copied()
            .max_by_key(|&u| {
                let novel = graph
                    .out_edges(u)
                    .chain(graph.in_edges(u))
                    .filter(|&(w, _)| !in_sample[w as usize] && !in_frontier[w as usize])
                    .count();
                (novel, std::cmp::Reverse(u)) // deterministic tie-break
            })
            .expect("frontier non-empty");
        add(
            best,
            &mut in_sample,
            &mut picked,
            &mut frontier,
            &mut in_frontier,
        );
    }
    picked
}

fn fill_uniform_remainder<R: Rng + ?Sized>(
    n: usize,
    target: usize,
    chosen: &mut [bool],
    picked: &mut Vec<Vertex>,
    rng: &mut R,
) {
    let mut remaining: Vec<Vertex> = (0..n as Vertex).filter(|&v| !chosen[v as usize]).collect();
    while picked.len() < target && !remaining.is_empty() {
        let i = rng.random_range(0..remaining.len());
        let v = remaining.swap_remove(i);
        chosen[v as usize] = true;
        picked.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(u32, u32, i64)> =
            (0..n as u32).map(|v| (v, (v + 1) % n as u32, 1)).collect();
        Graph::from_edges(n, edges)
    }

    fn all_strategies() -> Vec<SamplingStrategy> {
        vec![
            SamplingStrategy::UniformNode,
            SamplingStrategy::DegreeWeightedNode,
            SamplingStrategy::RandomEdge,
            SamplingStrategy::ForestFire {
                burn_probability_pct: 50,
            },
            SamplingStrategy::ExpansionSnowball,
        ]
    }

    #[test]
    fn exact_target_size_no_duplicates() {
        let g = ring(40);
        for strat in all_strategies() {
            for target in [1usize, 7, 20, 39] {
                let s = sample_vertices(&g, strat, target, 5);
                assert_eq!(s.len(), target, "{strat:?} target {target}");
                let mut d = s.clone();
                d.dedup();
                assert_eq!(d.len(), s.len(), "{strat:?} produced duplicates");
                assert!(s.iter().all(|&v| (v as usize) < 40));
            }
        }
    }

    #[test]
    fn oversized_target_returns_everything() {
        let g = ring(10);
        for strat in all_strategies() {
            assert_eq!(
                sample_vertices(&g, strat, 100, 1),
                (0..10u32).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ring(30);
        for strat in all_strategies() {
            let a = sample_vertices(&g, strat, 12, 77);
            let b = sample_vertices(&g, strat, 12, 77);
            assert_eq!(a, b, "{strat:?} not deterministic");
        }
    }

    #[test]
    fn degree_weighted_prefers_hubs() {
        // Star graph: hub has degree 2(n-1); it should almost always be in
        // even small samples.
        let n = 50u32;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v, 1));
            edges.push((v, 0, 1));
        }
        let g = Graph::from_edges(n as usize, edges);
        let mut hits = 0;
        for seed in 0..50 {
            let s = sample_vertices(&g, SamplingStrategy::DegreeWeightedNode, 5, seed);
            if s.contains(&0) {
                hits += 1;
            }
        }
        assert!(hits > 35, "hub sampled only {hits}/50 times");
    }

    #[test]
    fn forest_fire_handles_disconnected_graphs() {
        // Two components; the fire must restart to reach the target.
        let mut edges = Vec::new();
        for v in 0..9u32 {
            edges.push((v, v + 1, 1));
        }
        for v in 20..29u32 {
            edges.push((v, v + 1, 1));
        }
        let g = Graph::from_edges(40, edges);
        let s = sample_vertices(
            &g,
            SamplingStrategy::ForestFire {
                burn_probability_pct: 70,
            },
            30,
            3,
        );
        assert_eq!(s.len(), 30);
    }

    #[test]
    fn snowball_grows_connected_regions() {
        // On a ring, an expansion snowball of size k started anywhere is a
        // contiguous arc (plus possible restarts) — verify most sampled
        // vertices have a sampled neighbor.
        let g = ring(60);
        let s = sample_vertices(&g, SamplingStrategy::ExpansionSnowball, 20, 9);
        let set: std::collections::HashSet<u32> = s.iter().copied().collect();
        let with_neighbor = s
            .iter()
            .filter(|&&v| {
                g.out_edges(v)
                    .chain(g.in_edges(v))
                    .any(|(u, _)| set.contains(&u))
            })
            .count();
        assert!(
            with_neighbor >= s.len() - 2,
            "snowball fragmented: {with_neighbor}/{}",
            s.len()
        );
    }

    #[test]
    fn edgeless_graph_still_samples() {
        let g = Graph::from_edges(15, Vec::new());
        for strat in all_strategies() {
            let s = sample_vertices(&g, strat, 6, 4);
            assert_eq!(s.len(), 6, "{strat:?}");
        }
    }
}
