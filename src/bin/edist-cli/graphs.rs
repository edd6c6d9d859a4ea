//! `generate`, `shard`, `evaluate`, `islands`, `stats`, and the graph and
//! assignment files every subcommand shares.

use crate::args::Args;
use edist::graph::io::load_graph;
use edist::graph::shard::shard_graph;
use edist::prelude::*;
use std::path::Path;

/// `--graph FILE`, the input of every graph-reading subcommand.
pub const GRAPH: &str =
    "--graph FILE  input graph: .mtx is Matrix Market, else `src dst [weight]` lines";

/// `--sharded DIR`, the other input of `partition` and `serve`.
pub const SHARDED: &str =
    "--sharded DIR  read `shard`'s .sbps files instead; default backend edist";

pub const GENERATE: &str = "\
--family NAME           challenge, param, scaling or realworld (default challenge)
--out FILE              graph to write, by extension as --graph reads it (required)
--truth FILE            also write the planted labels, one per line
--vertices N            challenge: vertex count, at least 16 (default 2000)
--difficulty easy|hard  challenge: block overlap and size variation (default hard)
--id ID                 param, scaling, realworld: which graph (default TTT33, 1M, Amazon)
--scale F               param, scaling, realworld: size factor in (0, 1] (default 0.05)
--seed N                generator seed (default 42)";

/// The `--family` values of `generate`.
const FAMILIES: [&str; 4] = ["challenge", "param", "scaling", "realworld"];

pub const SHARD: &str = "\
--ranks N                   shard count (default 4)
--strategy modulo|balanced  vertex ownership (default balanced)
--out DIR                   shard directory to write (required)";

pub const EVALUATE: &str = "\
--pred FILE   predicted labels, one per line (required)
--truth FILE  true labels, one per line (required)";

pub const ISLANDS: &str =
    "--ranks N,N,...  rank counts, each at least 1 (default 1,2,4,8,16,32,64)";

pub fn load(args: &Args) -> Result<Graph, String> {
    let path = args.require("graph")?;
    load_graph(Path::new(path)).map_err(|e| format!("loading {path}: {e}"))
}

/// Where `partition` and `serve` read their graph from.
pub enum GraphSource {
    /// In-memory graph loaded from one file.
    Mem(Graph),
    /// `.sbps` shard directory; each simulated rank loads only its shard.
    Shards(String),
}

/// `--graph FILE` xor `--sharded DIR`.
pub fn graph_source(args: &Args) -> Result<GraphSource, String> {
    match args.get("sharded") {
        // Running over one of them while the other silently names a
        // different (possibly stale) graph would partition the wrong
        // input without warning.
        Some(_) if args.get("graph").is_some() => {
            Err("pass either --graph or --sharded, not both".into())
        }
        Some(dir) => Ok(GraphSource::Shards(dir.to_string())),
        None => Ok(GraphSource::Mem(load(args)?)),
    }
}

pub fn write_assignment(path: Option<&str>, assignment: &[u32]) -> Result<(), String> {
    let text: String = assignment.iter().map(|l| format!("{l}\n")).collect();
    match path {
        Some(p) => std::fs::write(p, text).map_err(|e| format!("writing {p}: {e}")),
        None => crate::stdout(&text),
    }
}

pub fn read_assignment(path: &str) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse::<u32>()
                .map_err(|e| format!("bad label '{l}' in {path}: {e}"))
        })
        .collect()
}

pub fn cmd_generate(args: &Args) -> Result<u8, String> {
    let family = args.get("family").unwrap_or("challenge");
    if !FAMILIES.contains(&family) {
        return Err(format!("unknown family '{family}'"));
    }
    args.refuse_other_modes(GENERATE, "family", family)?;
    let seed: u64 = args.num("seed", 42u64)?;
    // The generators assert these ranges; refused here, they are an
    // error naming the flag instead of a panic.
    let scale: f64 = args.num("scale", 0.05f64)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    let planted = match family {
        "challenge" => {
            let v: usize = args.num("vertices", 2000usize)?;
            if v < 16 {
                return Err(format!("--vertices must be at least 16, got {v}"));
            }
            let difficulty = match args.get("difficulty").unwrap_or("hard") {
                "easy" => Difficulty::Easy,
                "hard" => Difficulty::Hard,
                other => return Err(format!("unknown difficulty '{other}'")),
            };
            graph_challenge(v, difficulty, seed)
        }
        "param" => {
            let id = args.get("id").unwrap_or("TTT33");
            let spec = ParamStudySpec::all()
                .into_iter()
                .find(|s| s.id() == id)
                .ok_or_else(|| format!("unknown param-study id '{id}'"))?;
            param_study(spec, scale, seed)
        }
        "scaling" => {
            let id = args.get("id").unwrap_or("1M");
            let which = ScalingGraph::all()
                .into_iter()
                .find(|w| w.id() == id)
                .ok_or_else(|| format!("unknown scaling graph '{id}'"))?;
            scaling_graph(which, scale, seed)
        }
        "realworld" => {
            let id = args.get("id").unwrap_or("Amazon");
            let which = RealWorldStandIn::all()
                .into_iter()
                .find(|w| w.id() == id)
                .ok_or_else(|| format!("unknown real-world stand-in '{id}'"))?;
            realworld(which, scale, seed)
        }
        other => unreachable!("family '{other}' is checked above"),
    };
    let out = args.require("out")?;
    edist::graph::io::save_graph(&planted.graph, Path::new(out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "wrote {out}: V={} E={} C={}",
        planted.graph.num_vertices(),
        planted.graph.total_edge_weight(),
        planted.num_nonempty_communities()
    );
    if let Some(tp) = args.get("truth") {
        write_assignment(Some(tp), &planted.ground_truth)?;
        eprintln!("wrote ground truth to {tp}");
    }
    Ok(0)
}

pub fn cmd_shard(args: &Args) -> Result<u8, String> {
    let graph = load(args)?;
    let ranks: usize = args.num("ranks", 4usize)?;
    if ranks == 0 {
        return Err("--ranks must be at least 1".into());
    }
    let strategy = match args.get("strategy").unwrap_or("balanced") {
        "modulo" => OwnershipStrategy::Modulo,
        "balanced" => OwnershipStrategy::SortedBalanced,
        other => return Err(format!("unknown ownership strategy '{other}'")),
    };
    let out = args.require("out")?;
    let paths = shard_graph(&graph, Path::new(out), ranks, strategy)
        .map_err(|e| format!("sharding into {out}: {e}"))?;
    let total_bytes: u64 = paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    eprintln!(
        "wrote {} shards to {out}: V={} arcs={} ({} bytes, {:.2} bytes/arc; raw triples {} bytes)",
        paths.len(),
        graph.num_vertices(),
        graph.num_arcs(),
        total_bytes,
        total_bytes as f64 / graph.num_arcs().max(1) as f64,
        graph.num_arcs() * 16,
    );
    Ok(0)
}

pub fn cmd_evaluate(args: &Args) -> Result<u8, String> {
    let pred = read_assignment(args.require("pred")?)?;
    let truth = read_assignment(args.require("truth")?)?;
    if pred.len() != truth.len() {
        return Err(format!(
            "length mismatch: {} predictions vs {} truth labels",
            pred.len(),
            truth.len()
        ));
    }
    outln!("NMI: {:.4}", nmi(&pred, &truth));
    outln!("ARI: {:.4}", adjusted_rand_index(&pred, &truth));
    let pr = edist::eval::pairwise::pairwise_scores(&pred, &truth);
    outln!(
        "pairwise precision: {:.4}  recall: {:.4}  F1: {:.4}",
        pr.precision,
        pr.recall,
        pr.f1
    );
    Ok(0)
}

pub fn cmd_islands(args: &Args) -> Result<u8, String> {
    let ranks = args
        .get("ranks")
        .unwrap_or("1,2,4,8,16,32,64")
        .split(',')
        .map(|tok| match tok.trim().parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("bad rank count '{tok}' (at least 1)")),
        })
        .collect::<Result<Vec<usize>, _>>()?;
    let graph = load(args)?;
    outln!("{:>8} {:>10} {:>10}", "ranks", "islands", "fraction");
    for n in ranks {
        let rep = island_fraction_round_robin(&graph, n);
        outln!("{:>8} {:>10} {:>10.4}", n, rep.islands, rep.fraction());
    }
    Ok(0)
}

pub fn cmd_stats(args: &Args) -> Result<u8, String> {
    let g = load(args)?;
    let n = g.num_vertices();
    let mut degs: Vec<i64> = (0..n as u32).map(|v| g.degree(v)).collect();
    degs.sort_unstable();
    let quantile = |q: f64| -> i64 {
        if degs.is_empty() {
            0
        } else {
            degs[((degs.len() - 1) as f64 * q) as usize]
        }
    };
    outln!("vertices:        {n}");
    outln!("arcs:            {}", g.num_arcs());
    outln!("total weight:    {}", g.total_edge_weight());
    outln!(
        "avg out-degree:  {:.2}",
        g.total_edge_weight() as f64 / n.max(1) as f64
    );
    outln!(
        "degree p50/p90/p99/max: {}/{}/{}/{}",
        quantile(0.5),
        quantile(0.9),
        quantile(0.99),
        degs.last().copied().unwrap_or(0)
    );
    outln!(
        "isolated:        {}",
        (0..n as u32).filter(|&v| g.degree(v) == 0).count()
    );
    Ok(0)
}
