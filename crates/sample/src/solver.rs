//! The [`Sampled`] decorator: wraps any [`Solver`] backend with the
//! sample → infer → extend → fine-tune pipeline, so sampling composes
//! with every execution strategy (sequential, hybrid, batch, DC-SBP,
//! EDiSt) instead of being hard-wired to one engine.

use crate::extend::extend_partition;
use crate::strategies::{sample_vertices, SamplingStrategy};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sbp_core::mcmc::mh_sweep;
use sbp_core::run::{ProgressEvent, ProgressSink, RunConfig, RunOutcome, Solver};
use sbp_core::{compact_labels, Blockmodel};
use sbp_graph::{induced_subgraph, Graph, Vertex};

/// Full-graph MH sweeps a [`Sampled`] run applies after extension.
pub const FINETUNE_SWEEPS: usize = 3;

/// Decorates an inner solver with sampling-based data reduction
/// (paper §V-F; HPEC'19 pipeline):
///
/// 1. sample `fraction` of the vertices with `strategy`;
/// 2. run the inner solver on the induced subgraph;
/// 3. extend the sample's labels to the full graph by weighted-majority
///    BFS propagation;
/// 4. repair propagation mistakes with [`FINETUNE_SWEEPS`] full-graph
///    Metropolis–Hastings sweeps.
///
/// The outcome's [`RunOutcome::sampled_vertices`] records the actual
/// sample size; the trajectory and cluster report come from the inner
/// solve on the subgraph.
#[derive(Clone, Copy, Debug)]
pub struct Sampled<S> {
    /// The backend run on the sampled subgraph.
    pub inner: S,
    /// Sampling strategy.
    pub strategy: SamplingStrategy,
    /// Fraction of vertices to sample, in `(0, 1]`.
    pub fraction: f64,
}

impl<S> Sampled<S> {
    /// Wraps `inner` with the default pipeline (expansion snowball, 50%
    /// sample).
    pub fn new(inner: S) -> Self {
        Sampled {
            inner,
            strategy: SamplingStrategy::ExpansionSnowball,
            fraction: 0.5,
        }
    }
}

/// Forwards the inner solve's mid-run events but drops its terminal
/// `Started`/`Finished`/`Cancelled` ones: the decorated pipeline emits a
/// single terminal pair of its own, so sinks that treat `Finished` as
/// end-of-run never see the subgraph solve's intermediate result.
struct InnerSink<'a> {
    sink: &'a mut dyn ProgressSink,
}

impl ProgressSink for InnerSink<'_> {
    fn on_event(&mut self, event: &ProgressEvent) {
        if !matches!(
            event,
            ProgressEvent::Started { .. }
                | ProgressEvent::Finished { .. }
                | ProgressEvent::Cancelled { .. }
        ) {
            self.sink.on_event(event);
        }
    }
}

impl<S: Solver> Solver for Sampled<S> {
    fn name(&self) -> String {
        format!(
            "sampled({}, {:.0}%)",
            self.inner.name(),
            self.fraction * 100.0
        )
    }

    /// # Panics
    /// Panics when `fraction` is outside `(0, 1]` (the `Partitioner`
    /// builder validates this before constructing the solver).
    fn solve(&self, graph: &Graph, cfg: &RunConfig, progress: &mut dyn ProgressSink) -> RunOutcome {
        assert!(
            self.fraction > 0.0 && self.fraction <= 1.0,
            "sampling fraction must be in (0, 1]"
        );
        let t0 = sbp_mpi::thread_cpu_time();
        let n = graph.num_vertices();
        if n == 0 {
            return RunOutcome {
                sampled_vertices: Some(0),
                ..RunOutcome::empty()
            };
        }
        progress.on_event(&ProgressEvent::Started {
            num_vertices: n,
            num_blocks: n,
        });
        progress.on_event(&ProgressEvent::PhaseStarted { phase: "sample" });
        let target = ((n as f64) * self.fraction).round().max(1.0) as usize;
        let sampled = sample_vertices(graph, self.strategy, target, cfg.sbp.seed ^ 0x005A_11CE);
        let sub = induced_subgraph(graph, &sampled);

        // Infer on the sample with the wrapped backend; its terminal
        // events describe only the subgraph, so they are filtered out.
        let inner_out = self
            .inner
            .solve(&sub.graph, cfg, &mut InnerSink { sink: progress });

        // Map the sample's labels back to global vertex ids and extend.
        progress.on_event(&ProgressEvent::PhaseStarted { phase: "extend" });
        let assignment = extend_partition(graph, &sampled, &inner_out.assignment);

        // Build the blockmodel on the full graph — once, from labels that
        // are already compact — and fine-tune it.
        let (assignment, num_blocks) = compact_labels(assignment, inner_out.num_blocks.max(1));
        let mut bm = Blockmodel::from_assignment(graph, assignment, num_blocks);
        if !cfg.cancel.is_cancelled() {
            progress.on_event(&ProgressEvent::PhaseStarted { phase: "finetune" });
            let vertices: Vec<Vertex> = (0..n as Vertex).collect();
            let mut rng = SmallRng::seed_from_u64(cfg.sbp.seed ^ 0xF1E7);
            for _ in 0..FINETUNE_SWEEPS {
                if cfg.cancel.is_cancelled() {
                    break;
                }
                mh_sweep(graph, &mut bm, &vertices, cfg.sbp.beta, &mut rng);
            }
        }
        let cancelled = inner_out.cancelled || cfg.cancel.is_cancelled();
        if cancelled {
            progress.on_event(&ProgressEvent::Cancelled {
                iteration: inner_out.iterations.len(),
            });
        } else {
            progress.on_event(&ProgressEvent::Finished {
                num_blocks: bm.num_blocks(),
                description_length: bm.description_length(),
            });
        }
        RunOutcome {
            assignment: bm.assignment().to_vec(),
            num_blocks: bm.num_blocks(),
            description_length: bm.description_length(),
            model: Some(bm),
            iterations: inner_out.iterations,
            cancelled,
            // Local pipeline CPU plus whatever the inner backend spent
            // (its own CPU, or the BSP makespan for cluster backends).
            virtual_seconds: (sbp_mpi::thread_cpu_time() - t0) + inner_out.virtual_seconds,
            cluster: inner_out.cluster,
            sampled_vertices: Some(sampled.len()),
            degraded: inner_out.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbp_core::run::{NoProgress, SingleNode};
    use sbp_core::McmcStrategy;
    use sbp_eval::nmi;
    use sbp_gen::{generate, SbmParams};

    const SEQUENTIAL: SingleNode = SingleNode(McmcStrategy::MetropolisHastings);

    fn planted() -> (Graph, Vec<u32>) {
        let pg = generate(&SbmParams {
            num_vertices: 400,
            num_communities: 4,
            intra_fraction: 0.85,
            dirichlet_alpha: 10.0,
            ..SbmParams::example()
        });
        (pg.graph.clone(), pg.ground_truth)
    }

    #[test]
    fn sampled_sequential_recovers_planted_partition() {
        let (g, truth) = planted();
        let solver = Sampled::new(SEQUENTIAL);
        let out = solver.solve(&g, &RunConfig::seeded(3), &mut NoProgress);
        assert_eq!(out.assignment.len(), 400);
        assert_eq!(out.sampled_vertices, Some(200));
        let score = nmi(&out.assignment, &truth);
        assert!(score > 0.8, "sampled pipeline NMI {score} too low");
    }

    #[test]
    fn all_strategies_complete_the_pipeline() {
        let (g, _) = planted();
        for strategy in [
            SamplingStrategy::UniformNode,
            SamplingStrategy::DegreeWeightedNode,
            SamplingStrategy::RandomEdge,
            SamplingStrategy::ForestFire {
                burn_probability_pct: 60,
            },
            SamplingStrategy::ExpansionSnowball,
        ] {
            let solver = Sampled {
                strategy,
                fraction: 0.4,
                ..Sampled::new(SEQUENTIAL)
            };
            let out = solver.solve(&g, &RunConfig::seeded(5), &mut NoProgress);
            assert_eq!(out.assignment.len(), 400, "{strategy:?}");
            assert!(out.num_blocks >= 1);
        }
    }

    #[test]
    fn fraction_one_is_plain_sbp_quality() {
        let (g, truth) = planted();
        let solver = Sampled {
            fraction: 1.0,
            ..Sampled::new(SEQUENTIAL)
        };
        let out = solver.solve(&g, &RunConfig::seeded(7), &mut NoProgress);
        assert!(nmi(&out.assignment, &truth) > 0.9);
    }

    #[test]
    fn sampled_name_mentions_inner_backend() {
        let solver = Sampled::new(SEQUENTIAL);
        assert_eq!(solver.name(), "sampled(sequential, 50%)");
    }

    #[test]
    fn empty_graph_short_circuits() {
        let g = Graph::from_edges(0, Vec::new());
        let out = Sampled::new(SEQUENTIAL).solve(&g, &RunConfig::seeded(0), &mut NoProgress);
        assert_eq!(out.num_blocks, 0);
        assert_eq!(out.sampled_vertices, Some(0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let g = Graph::from_edges(2, vec![(0, 1, 1)]);
        let solver = Sampled {
            fraction: 0.0,
            ..Sampled::new(SEQUENTIAL)
        };
        solver.solve(&g, &RunConfig::seeded(0), &mut NoProgress);
    }
}
