//! Metric names, units and directions — the code-side twin of
//! `BENCHMARK.json` (`tests/spec.rs` asserts the two agree). Bounds live
//! only in `BENCHMARK.json`; `compare` reads them from there.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Stable name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; every workload reports all of them.
///
/// `partition_s` is one partition request as that workload's user issues
/// it: input files → assignment file for the three partition workloads,
/// one `Ingest` + `Repartition{Warm}` round trip for `serve_warm`.
pub const END_TO_END: [Metric; 5] = [
    lower("setup_s", "s"),
    lower("partition_s", "s"),
    lower("peak_rss_mb", "MiB"),
    higher("nmi", "ratio"),
    lower("dl_norm", "ratio"),
];

/// Single-layer metrics of the traced run (layer = crate/module name).
/// A metric whose layer is not on a workload's path reads 0 there.
pub const PER_LAYER: [Metric; 63] = [
    lower("gen.generate_s", "s"),
    lower("graph.load_mtx_s", "s"),
    lower("graph.shard_write_s", "s"),
    lower("graph.shard_bytes_per_arc", "B/arc"),
    lower("graph.shard_open_s", "s"),
    lower("dist.ingest_s", "s"),
    lower("dist.cut_arcs", "count"),
    lower("dist.max_rank_local_arcs", "count"),
    lower("dist.move_bytes_raw", "B"),
    lower("dist.move_bytes_encoded", "B"),
    higher("dist.move_compression", "ratio"),
    lower("dist.encode_moves_us", "us"),
    lower("dist.decode_moves_us", "us"),
    lower("dist.encode_cells_us", "us"),
    lower("mpi.collectives", "count"),
    lower("mpi.bytes_total", "B"),
    lower("mpi.bytes_max_rank", "B"),
    lower("mpi.thread_allgather_us", "us"),
    lower("mpi.tcp_allgather_us", "us"),
    lower("mpi.tcp_connect_s", "s"),
    lower("mpi.tcp_minus_thread_s", "s"),
    lower("mpi.wire_share", "ratio"),
    lower("mpi.sim_makespan_s", "s"),
    lower("mpi.sim_over_tcp", "ratio"),
    lower("core.iterations", "count"),
    lower("core.sweeps", "count"),
    lower("core.proposals", "count"),
    lower("core.moves_accepted", "count"),
    higher("core.accept_ratio", "ratio"),
    lower("core.merge_s", "s"),
    lower("core.mcmc_s", "s"),
    lower("core.merge_share", "ratio"),
    lower("core.mcmc_share", "ratio"),
    lower("core.sweep_ms_p50", "ms"),
    higher("core.dense_storage_time_share", "ratio"),
    lower("core.merge_phase_ms_hiC", "ms"),
    lower("core.sweep_ms_hiC", "ms"),
    lower("core.sweep_ms_loC", "ms"),
    lower("core.rebuild_ms_hiC", "ms"),
    lower("core.rebuild_ms_loC", "ms"),
    lower("core.entropy_us_loC", "us"),
    lower("core.checkpoint_write_ms", "ms"),
    lower("core.checkpoint_bytes", "B"),
    lower("pool.batches", "count"),
    lower("pool.dispatch_us_mean", "us"),
    lower("serve.cold_start_s", "s"),
    lower("serve.cold_repartition_s", "s"),
    lower("serve.warm_over_cold", "ratio"),
    lower("serve.warm_round_ms_p75", "ms"),
    lower("serve.dirty_share", "ratio"),
    lower("serve.ingest_us_p50", "us"),
    lower("serve.membership_us_p50", "us"),
    lower("serve.membership_us_p99", "us"),
    lower("serve.stats_us_p50", "us"),
    lower("serve.frame_codec_us", "us"),
    lower("api.prologue_s", "s"),
    lower("api.epilogue_s", "s"),
    lower("api.write_s", "s"),
    lower("proc.spawn_exit_s", "s"),
    higher("proc.speed_factor", "ratio"),
    lower("trace.unattributed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.partition_s", "s"),
];
