//! Ablation studies for two design choices:
//!
//! 1. vertex-ownership scheme — sorted-degree balanced (§III-B) vs naive
//!    `v mod n` (per-rank degree-mass imbalance and its effect on the BSP
//!    makespan);
//! 2. MCMC sync period — exchanging moves every sweep (the paper) vs every
//!    k sweeps (its future-work communication-reduction direction):
//!    collectives, bytes, quality;
//! 3. MCMC strategy — sequential MH vs hybrid vs batch inside EDiSt.
//!
//! ```text
//! cargo run --release -p sbp-bench --bin ablation
//! ```

use edist::{Backend, Partitioner};
use sbp_bench::{demo_graph, experiment_sbp_config, f2, secs, BenchConfig, Table};
use sbp_core::McmcStrategy;
use sbp_dist::OwnershipStrategy;
use sbp_eval::nmi;

fn main() {
    // Pool width 1, as the figure harness runs: each rank's thread-CPU
    // clock (`virtual_seconds`) then holds its whole sweep.
    sbp_core::with_threads(1, ablate)
}

fn ablate() {
    let cfg = BenchConfig::from_env();
    let planted = demo_graph(&cfg);
    let g = &planted.graph;
    let ranks = 8.min(cfg.max_ranks);
    eprintln!(
        "ablation graph: V={} E={}, {} ranks",
        g.num_vertices(),
        g.total_edge_weight(),
        ranks
    );

    // ---- 1. ownership ----
    let mut t = Table::new(
        "Ablation 1 — vertex ownership scheme (EDiSt MCMC phase)",
        &["scheme", "runtime (s)", "NMI"],
    );
    for (name, ownership) in [
        ("sorted-balanced", OwnershipStrategy::SortedBalanced),
        ("modulo", OwnershipStrategy::Modulo),
    ] {
        let run = Partitioner::on(g)
            .backend(Backend::Edist { ranks })
            .config(experiment_sbp_config(cfg.seed))
            .ownership(ownership)
            .run()
            .expect("valid configuration");
        t.row(vec![
            name.into(),
            secs(run.virtual_seconds),
            f2(nmi(&run.assignment, &planted.ground_truth)),
        ]);
    }
    t.emit("ablation_ownership.csv");

    // ---- 2. sync period ----
    let mut t = Table::new(
        "Ablation 2 — MCMC sync period (communication vs quality)",
        &[
            "period",
            "collectives",
            "MB on wire",
            "max-rank MB",
            "runtime (s)",
            "NMI",
        ],
    );
    for k in [1usize, 2, 4, 8] {
        let run = Partitioner::on(g)
            .backend(Backend::Edist { ranks })
            .config(experiment_sbp_config(cfg.seed))
            .sync_period(k)
            .run()
            .expect("valid configuration");
        let rep = run.cluster.expect("distributed backend reports cluster");
        t.row(vec![
            k.to_string(),
            rep.collectives.to_string(),
            format!("{:.2}", rep.total_bytes as f64 / 1e6),
            format!("{:.2}", rep.max_rank_bytes as f64 / 1e6),
            secs(rep.makespan),
            f2(nmi(&run.assignment, &planted.ground_truth)),
        ]);
    }
    t.emit("ablation_sync.csv");

    // ---- 3. MCMC strategy ----
    let mut t = Table::new(
        "Ablation 3 — MCMC strategy inside EDiSt",
        &["strategy", "runtime (s)", "NMI"],
    );
    for (name, strategy) in [
        ("metropolis-hastings", McmcStrategy::MetropolisHastings),
        ("hybrid", McmcStrategy::Hybrid),
        ("batch", McmcStrategy::Batch),
    ] {
        let mut sbp = experiment_sbp_config(cfg.seed);
        sbp.strategy = strategy;
        let run = Partitioner::on(g)
            .backend(Backend::Edist { ranks })
            .config(sbp)
            .run()
            .expect("valid configuration");
        t.row(vec![
            name.into(),
            secs(run.virtual_seconds),
            f2(nmi(&run.assignment, &planted.ground_truth)),
        ]);
    }
    t.emit("ablation_strategy.csv");
}
