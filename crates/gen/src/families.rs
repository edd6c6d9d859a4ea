//! Named dataset constructors for every workload table in the paper.
//!
//! Each constructor takes a `scale` in `(0, 1]` multiplying the paper's
//! vertex count, so the full experiment suite can run on a laptop while the
//! structural regime (vertices per community, average degree, truncation,
//! duplication) matches the paper. `scale = 1.0` reproduces the published
//! sizes exactly.

use crate::dcsbm::{generate, DegreeConfig, PlantedGraph, SbmParams};
use crate::dist::TruncatedPowerLaw;

/// Paper vertex count of the Table III parameter-study graphs.
pub const PARAM_STUDY_BASE_VERTICES: usize = 22_599;

/// Graph-Challenge graph difficulty (Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Difficulty {
    /// Low block overlap, low block-size variation.
    Easy,
    /// High block overlap, high block-size variation.
    Hard,
}

/// Builds a Graph-Challenge-style graph (Table II): truncated duplicated
/// degree sequence, community count scaling like the Challenge's
/// (`C ≈ 2.2·V^0.28`, matching 32/44/71 at 20k/50k/200k vertices).
pub fn graph_challenge(num_vertices: usize, difficulty: Difficulty, seed: u64) -> PlantedGraph {
    assert!(num_vertices >= 16, "graph too small to be meaningful");
    let c = (2.2 * (num_vertices as f64).powf(0.28)).round() as usize;
    let (intra, alpha) = match difficulty {
        Difficulty::Easy => (0.85, 8.0),
        Difficulty::Hard => (2.0 / 3.0, 2.0),
    };
    // The Challenge graphs average ≈23.7 out-edges per vertex.
    let gamma = TruncatedPowerLaw::solve_gamma_for_mean(23.7, 10, 100);
    generate(&SbmParams {
        num_vertices,
        num_communities: c.clamp(4, num_vertices / 4),
        intra_fraction: intra,
        dirichlet_alpha: alpha,
        degrees: DegreeConfig {
            gamma,
            min_degree: 10,
            max_degree: 100,
            duplicated: true,
        },
        seed,
    })
}

/// One cell of the Table III exhaustive parameter search: three boolean
/// generator knobs × base community count (33 or 150).
///
/// The `id()` naming follows the paper: `TTF150` means truncate-min = T,
/// truncate-max = T, duplicated = F, 150 base communities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamStudySpec {
    /// Truncate the degree distribution from below at 10 (the knob whose
    /// absence makes graphs sparse and breaks DC-SBP, §V-B).
    pub truncate_min: bool,
    /// Truncate the degree distribution from above at 100 (vs. `V/10`).
    pub truncate_max: bool,
    /// Duplicate the degree sequence between in- and out-degrees.
    pub duplicated: bool,
    /// Paper-scale community count: 33 or 150.
    pub communities_base: u32,
}

impl ParamStudySpec {
    /// All 16 Table III configurations, in the paper's row order
    /// (TTT33, TTT150, TTF33, …, FFF150).
    pub fn all() -> Vec<ParamStudySpec> {
        let mut specs = Vec::with_capacity(16);
        for &truncate_min in &[true, false] {
            for &truncate_max in &[true, false] {
                for &duplicated in &[true, false] {
                    for &communities_base in &[33u32, 150u32] {
                        specs.push(ParamStudySpec {
                            truncate_min,
                            truncate_max,
                            duplicated,
                            communities_base,
                        });
                    }
                }
            }
        }
        specs
    }

    /// Paper-style identifier, e.g. `TTT33` or `FTF150`.
    pub fn id(&self) -> String {
        let b = |x: bool| if x { 'T' } else { 'F' };
        format!(
            "{}{}{}{}",
            b(self.truncate_min),
            b(self.truncate_max),
            b(self.duplicated),
            self.communities_base
        )
    }
}

/// Builds one Table III parameter-study graph at the given scale.
///
/// Community counts scale linearly with the vertex count so the
/// vertices-per-community regime matches the paper's (≈685 for the
/// 33-community graphs, ≈150 for the 150-community ones).
pub fn param_study(spec: ParamStudySpec, scale: f64, seed: u64) -> PlantedGraph {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let v = ((PARAM_STUDY_BASE_VERTICES as f64 * scale).round() as usize).max(64);
    let c = ((spec.communities_base as f64 * scale).round() as usize).max(3);
    let min_degree = if spec.truncate_min { 10 } else { 1 };
    let max_degree = if spec.truncate_max {
        100
    } else {
        (v as i64 / 10).max(min_degree + 1)
    };
    // Average out-degree regimes measured from Table III: ≈40 for
    // truncated-min graphs, ≈3.7 for min-degree-1 graphs. With an
    // unduplicated sequence the drawn value is the *total* degree, so the
    // target doubles.
    let target_out = if spec.truncate_min { 40.0 } else { 3.7 };
    let target_drawn = if spec.duplicated {
        target_out
    } else {
        2.0 * target_out
    };
    let gamma = TruncatedPowerLaw::solve_gamma_for_mean(target_drawn, min_degree, max_degree);
    generate(&SbmParams {
        num_vertices: v,
        num_communities: c.min(v / 4),
        intra_fraction: 2.0 / 3.0,
        dirichlet_alpha: 2.0,
        degrees: DegreeConfig {
            gamma,
            min_degree,
            max_degree,
            duplicated: spec.duplicated,
        },
        seed,
    })
}

/// The Table IV strong-scaling graphs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalingGraph {
    /// 1 051 218 vertices, 11 056 834 edges, 1075 communities.
    M1,
    /// 2 103 554 vertices, 23 987 218 edges, 1521 communities.
    M2,
    /// 4 221 264 vertices, 53 175 026 edges, 2151 communities.
    M4,
}

impl ScalingGraph {
    /// Paper identifier (`1M`, `2M`, `4M`).
    pub fn id(&self) -> &'static str {
        match self {
            ScalingGraph::M1 => "1M",
            ScalingGraph::M2 => "2M",
            ScalingGraph::M4 => "4M",
        }
    }

    /// Paper vertex count.
    pub fn base_vertices(&self) -> usize {
        match self {
            ScalingGraph::M1 => 1_051_218,
            ScalingGraph::M2 => 2_103_554,
            ScalingGraph::M4 => 4_221_264,
        }
    }

    /// Paper community count.
    pub fn base_communities(&self) -> usize {
        match self {
            ScalingGraph::M1 => 1075,
            ScalingGraph::M2 => 1521,
            ScalingGraph::M4 => 2151,
        }
    }

    /// Paper average directed edges per vertex (`E/V`).
    pub fn avg_out_degree(&self) -> f64 {
        match self {
            ScalingGraph::M1 => 10.52,
            ScalingGraph::M2 => 11.40,
            ScalingGraph::M4 => 12.60,
        }
    }

    /// All three sizes, smallest first.
    pub fn all() -> [ScalingGraph; 3] {
        [ScalingGraph::M1, ScalingGraph::M2, ScalingGraph::M4]
    }
}

/// Builds a Table IV scaling graph at the given scale. The community count
/// scales like `√scale` so that `C ≈ √V` is preserved (the paper's ratio).
pub fn scaling_graph(which: ScalingGraph, scale: f64, seed: u64) -> PlantedGraph {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let v = ((which.base_vertices() as f64 * scale).round() as usize).max(256);
    let c = ((which.base_communities() as f64 * scale.sqrt()).round() as usize).clamp(8, v / 8);
    let max_degree = (v as i64 / 20).max(4);
    let target_drawn = 2.0 * which.avg_out_degree();
    let gamma = TruncatedPowerLaw::solve_gamma_for_mean(target_drawn, 1, max_degree);
    generate(&SbmParams {
        num_vertices: v,
        num_communities: c,
        intra_fraction: 2.0 / 3.0,
        dirichlet_alpha: 2.0,
        degrees: DegreeConfig {
            gamma,
            min_degree: 1,
            max_degree,
            duplicated: false,
        },
        seed,
    })
}

/// Offline stand-ins for the five SNAP/SuiteSparse graphs of Table V.
///
/// The real files can be used instead via `sbp_graph::io::load_graph`; these
/// stand-ins preserve each graph's size ratio, average degree, and degree-
/// distribution regime so the Fig. 6 comparison exercises the same sparsity
/// conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RealWorldStandIn {
    /// Amazon co-purchasing graph: 403 394 V, 3 387 388 E.
    Amazon,
    /// US patents citation graph: 456 626 V, 3 774 768 E.
    Patents,
    /// Berkeley–Stanford web graph: 685 230 V, 7 600 595 E.
    BerkStan,
    /// Twitter social graph: 456 626 V, 14 855 842 E (densest).
    Twitter,
    /// LiveJournal social graph: 4 847 571 V, 68 993 773 E (largest).
    LiveJournal,
}

impl RealWorldStandIn {
    /// Paper identifier.
    pub fn id(&self) -> &'static str {
        match self {
            RealWorldStandIn::Amazon => "Amazon",
            RealWorldStandIn::Patents => "Patents",
            RealWorldStandIn::BerkStan => "Berk-Stan",
            RealWorldStandIn::Twitter => "Twitter",
            RealWorldStandIn::LiveJournal => "LiveJournal",
        }
    }

    /// Paper vertex count.
    pub fn base_vertices(&self) -> usize {
        match self {
            RealWorldStandIn::Amazon => 403_394,
            RealWorldStandIn::Patents => 456_626,
            RealWorldStandIn::BerkStan => 685_230,
            RealWorldStandIn::Twitter => 456_626,
            RealWorldStandIn::LiveJournal => 4_847_571,
        }
    }

    /// Paper `E/V` ratio — the axis the paper identifies as governing
    /// DC-SBP's usable rank count (§V-E: Twitter, with the highest average
    /// degree, is the only graph where DC-SBP scales to 16 subgraphs).
    pub fn avg_out_degree(&self) -> f64 {
        match self {
            RealWorldStandIn::Amazon => 8.40,
            RealWorldStandIn::Patents => 8.27,
            RealWorldStandIn::BerkStan => 11.09,
            RealWorldStandIn::Twitter => 32.53,
            RealWorldStandIn::LiveJournal => 14.23,
        }
    }

    /// All five, in the paper's Table V order.
    pub fn all() -> [RealWorldStandIn; 5] {
        [
            RealWorldStandIn::Amazon,
            RealWorldStandIn::Patents,
            RealWorldStandIn::BerkStan,
            RealWorldStandIn::Twitter,
            RealWorldStandIn::LiveJournal,
        ]
    }
}

/// Builds a Table V stand-in at the given scale.
pub fn realworld(which: RealWorldStandIn, scale: f64, seed: u64) -> PlantedGraph {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let v = ((which.base_vertices() as f64 * scale).round() as usize).max(256);
    // Community density and mixing profiles per graph family.
    let (members_per_comm, intra, max_div) = match which {
        RealWorldStandIn::Amazon => (60.0, 0.75, 50),
        RealWorldStandIn::Patents => (80.0, 0.60, 50),
        RealWorldStandIn::BerkStan => (100.0, 0.70, 10),
        RealWorldStandIn::Twitter => (150.0, 0.65, 20),
        RealWorldStandIn::LiveJournal => (90.0, 0.70, 30),
    };
    let c = ((v as f64 / members_per_comm).round() as usize).clamp(4, v / 8);
    let max_degree = (v as i64 / max_div).max(4);
    let target_drawn = 2.0 * which.avg_out_degree();
    let gamma = TruncatedPowerLaw::solve_gamma_for_mean(target_drawn, 1, max_degree);
    generate(&SbmParams {
        num_vertices: v,
        num_communities: c,
        intra_fraction: intra,
        dirichlet_alpha: 2.0,
        degrees: DegreeConfig {
            gamma,
            min_degree: 1,
            max_degree,
            duplicated: false,
        },
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_study_has_sixteen_unique_ids() {
        let specs = ParamStudySpec::all();
        assert_eq!(specs.len(), 16);
        let mut ids: Vec<String> = specs.iter().map(|s| s.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 16);
        assert!(ids.contains(&"TTT33".to_string()));
        assert!(ids.contains(&"FFF150".to_string()));
    }

    #[test]
    fn param_study_truncated_graphs_are_denser() {
        let scale = 0.05;
        let ttt = param_study(
            ParamStudySpec {
                truncate_min: true,
                truncate_max: true,
                duplicated: true,
                communities_base: 33,
            },
            scale,
            7,
        );
        let fff = param_study(
            ParamStudySpec {
                truncate_min: false,
                truncate_max: false,
                duplicated: false,
                communities_base: 33,
            },
            scale,
            7,
        );
        let density = |g: &crate::PlantedGraph| {
            g.graph.total_edge_weight() as f64 / g.graph.num_vertices() as f64
        };
        assert!(
            density(&ttt) > 5.0 * density(&fff),
            "TTT {} vs FFF {}",
            density(&ttt),
            density(&fff)
        );
    }

    #[test]
    fn param_study_min_degree_respected() {
        let g = param_study(
            ParamStudySpec {
                truncate_min: true,
                truncate_max: true,
                duplicated: true,
                communities_base: 33,
            },
            0.03,
            1,
        );
        for v in 0..g.graph.num_vertices() as u32 {
            assert!(g.graph.out_degree(v) >= 10);
        }
    }

    #[test]
    fn graph_challenge_difficulty_affects_mixing() {
        let intra_frac = |d: Difficulty| {
            let g = graph_challenge(1500, d, 3);
            let mut intra = 0i64;
            let mut total = 0i64;
            for (s, t, w) in g.graph.arcs() {
                if g.ground_truth[s as usize] == g.ground_truth[t as usize] {
                    intra += w;
                }
                total += w;
            }
            intra as f64 / total as f64
        };
        assert!(intra_frac(Difficulty::Easy) > intra_frac(Difficulty::Hard) + 0.1);
    }

    #[test]
    fn scaling_graphs_ordered_by_size() {
        let scale = 0.002;
        let sizes: Vec<usize> = ScalingGraph::all()
            .iter()
            .map(|&w| scaling_graph(w, scale, 5).graph.num_vertices())
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
    }

    #[test]
    fn scaling_graph_average_degree_near_target() {
        let g = scaling_graph(ScalingGraph::M1, 0.01, 11);
        let avg = g.graph.total_edge_weight() as f64 / g.graph.num_vertices() as f64;
        assert!(
            (avg - 10.52).abs() < 3.0,
            "average out-degree {avg}, target 10.52"
        );
    }

    #[test]
    fn twitter_standin_is_densest() {
        let scale = 0.01;
        let avg = |w: RealWorldStandIn| {
            let g = realworld(w, scale, 9);
            g.graph.total_edge_weight() as f64 / g.graph.num_vertices() as f64
        };
        let twitter = avg(RealWorldStandIn::Twitter);
        for other in [
            RealWorldStandIn::Amazon,
            RealWorldStandIn::Patents,
            RealWorldStandIn::BerkStan,
            RealWorldStandIn::LiveJournal,
        ] {
            assert!(twitter > avg(other), "{:?} denser than Twitter", other);
        }
    }

    #[test]
    fn realworld_ids_match_paper() {
        let ids: Vec<&str> = RealWorldStandIn::all().iter().map(|w| w.id()).collect();
        assert_eq!(
            ids,
            vec!["Amazon", "Patents", "Berk-Stan", "Twitter", "LiveJournal"]
        );
    }

    #[test]
    fn deterministic_families() {
        let a = param_study(ParamStudySpec::all()[0], 0.02, 123);
        let b = param_study(ParamStudySpec::all()[0], 0.02, 123);
        assert_eq!(a.graph, b.graph);
    }
}
