//! Quality wall: the exact schedule must converge where the paper's
//! graphs are hard, not only on the small fixtures the equivalence suites
//! use.
//!
//! `Batch` is the schedule whose trajectory is bit-identical at every
//! rank count, so it carries EDiSt's claim of equalling sequential SBP.
//! Evaluated as whole sweeps against one frozen state it stalled at
//! `V / 2` blocks, worse than the null model, on half of the hard
//! challenge graphs at `V = 12 000`; in synced chunks it lands on the
//! planted structure. The test is `#[ignore]`d because it needs a release
//! build and several seconds:
//!
//! ```text
//! cargo test --release --test quality -- --ignored
//! ```

use edist::prelude::*;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quality_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// On hard challenge graphs at `V = 12 000` (generator seeds 1 and 42,
/// solver seed 1), single-node `Batch` and 2-rank sharded EDiSt under
/// `Batch` each land within twice the planted community count, below the
/// null model's description length, and on the same assignment.
#[test]
#[ignore = "release-only quality wall; run with --ignored"]
fn batch_converges_on_hard_challenge_graphs() {
    for graph_seed in [1u64, 42] {
        let planted = graph_challenge(12_000, Difficulty::Hard, graph_seed);
        let g = &planted.graph;
        let planted_c = planted.num_nonempty_communities();
        let cfg = SbpConfig {
            strategy: McmcStrategy::Batch,
            seed: 1,
            ..SbpConfig::default()
        };
        let single = Partitioner::on(g)
            .backend(Backend::Batch)
            .config(cfg.clone())
            .run()
            .expect("single-node batch");
        let dir = temp_dir(&format!("s{graph_seed}"));
        shard_graph(g, &dir, 2, OwnershipStrategy::SortedBalanced).expect("shard");
        let sharded = Partitioner::on_sharded(&dir)
            .backend(Backend::Edist { ranks: 2 })
            .config(cfg)
            .run()
            .expect("sharded edist");
        std::fs::remove_dir_all(&dir).expect("remove shards");
        for (name, run) in [("batch", &single), ("edist × 2 shards", &sharded)] {
            let ctx = format!("S = {graph_seed}, {name}");
            assert!(
                run.num_blocks <= 2 * planted_c,
                "{ctx}: {} blocks, planted {planted_c}",
                run.num_blocks
            );
            let dl_norm = run.dl_norm(g);
            assert!(dl_norm < 1.0, "{ctx}: DL_norm {dl_norm}");
        }
        assert_eq!(
            single.assignment, sharded.assignment,
            "S = {graph_seed}: 2 sharded ranks left single-node batch"
        );
    }
}
