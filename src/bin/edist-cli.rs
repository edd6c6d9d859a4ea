//! `edist-cli` — command-line interface to the EDiSt stack.
//!
//! `edist-cli help` lists every subcommand with the flags it takes. Both
//! come from one dispatch table, [`COMMANDS`], which the parser reads
//! too: a flag a subcommand does not declare, or one given twice, is an
//! error before any file is read or socket opened.
//!
//! `partition` runs in-process through the unified [`Partitioner`]
//! builder, over per-rank `.sbps` shards (`shard` writes them; each
//! simulated rank loads only its own), or as a real multi-process TCP
//! cluster; `serve` and `connect` drive the resident daemon. Long
//! `partition` runs handle Ctrl-C: the first interrupt cancels
//! cooperatively and writes the best partition found so far, a second
//! one kills the process.
//!
//! Graphs load by extension: `.mtx` = Matrix Market, anything else =
//! `src dst [weight]` edge list. Assignments are one label per line.
//!
//! [`Partitioner`]: edist::prelude::Partitioner

#![deny(clippy::undocumented_unsafe_blocks)]

/// `println!` to the one checked writer, [`stdout`]: a closed stdout
/// (`edist-cli evaluate … | true`) returns from the subcommand as an
/// error, where `println!` panics.
macro_rules! outln {
    ($($arg:tt)*) => {
        crate::stdout(&format!("{}\n", format_args!($($arg)*)))?
    };
}

// The crate root is `src/bin/edist-cli.rs`, so its modules, which live
// in `src/bin/edist-cli/`, are named by path.
#[path = "edist-cli/args.rs"]
mod args;
#[path = "edist-cli/cluster.rs"]
mod cluster;
#[path = "edist-cli/daemon.rs"]
mod daemon;
#[path = "edist-cli/graphs.rs"]
mod graphs;
#[path = "edist-cli/partition.rs"]
mod partition;
#[cfg(unix)]
#[path = "edist-cli/sigint.rs"]
mod sigint;

#[cfg(not(unix))]
mod sigint {
    use edist::prelude::CancelToken;

    /// No signal shim off Unix; runs are not Ctrl-C-cancellable there.
    pub fn install(_token: CancelToken) -> bool {
        false
    }
}

use args::{Args, Command};
use graphs::{GRAPH, SHARDED};
use partition::{IN_PROCESS, SEED, SYNC_PERIOD};
use std::process::ExitCode;

/// Every subcommand, in `help` order, with the one declaration of the
/// flags it takes: blocks of `--name VALUE  help` lines.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "generate", positional: None, run: graphs::cmd_generate,
        summary: "synthesize a dataset-family graph and its planted communities",
        flags: &[graphs::GENERATE] },
    Command { name: "shard", positional: None, run: graphs::cmd_shard,
        summary: "split a graph into per-rank binary .sbps shards",
        flags: &[GRAPH, graphs::SHARD] },
    Command { name: "partition", positional: None, run: partition::cmd_partition,
        summary: "infer communities in-process, over shards or on a real TCP cluster",
        flags: &[GRAPH, SHARDED, partition::PARTITION, SEED, SYNC_PERIOD, IN_PROCESS, cluster::TCP] },
    Command { name: "report", positional: Some("RUN.jsonl"), run: partition::cmd_report,
        summary: "render a --metrics-out JSONL file as a self-contained HTML report",
        flags: &[partition::REPORT] },
    Command { name: "evaluate", positional: None, run: graphs::cmd_evaluate,
        summary: "score a predicted labeling against ground truth (NMI, ARI, pairwise F1)",
        flags: &[graphs::EVALUATE] },
    Command { name: "islands", positional: None, run: graphs::cmd_islands,
        summary: "island-vertex census under round-robin distribution",
        flags: &[GRAPH, graphs::ISLANDS] },
    Command { name: "stats", positional: None, run: graphs::cmd_stats,
        summary: "basic graph statistics",
        flags: &[GRAPH] },
    Command { name: "serve", positional: None, run: daemon::cmd_serve,
        summary: "run the resident partition daemon in-process",
        flags: &[GRAPH, SHARDED, daemon::SERVE, SYNC_PERIOD, SEED] },
    Command { name: "connect", positional: None, run: daemon::cmd_connect,
        summary: "send one request to a running daemon",
        flags: &[daemon::TO, daemon::REQUESTS, daemon::CONNECT] },
    Command { name: "help", positional: None, run: cmd_help,
        summary: "this message",
        flags: &[] },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `edist-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Dispatches a command line; `Ok(code)` is the process exit code (0, or
/// [`partition::EXIT_DEGRADED`] under `--fail-on-degraded true`).
fn run(argv: &[String]) -> Result<u8, String> {
    let Some(name) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'"))?;
    let args = Args::parse(command, &argv[1..])?;
    (command.run)(&args)
}

/// Writes `text` to stdout: every byte the CLI prints there goes through
/// here, so a failed write is an error that names stdout, never a panic.
fn stdout(text: &str) -> Result<(), String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing to stdout: {e}"))
}

fn cmd_help(_: &Args) -> Result<u8, String> {
    stdout(&help())?;
    Ok(0)
}

/// `edist-cli help`: each subcommand's summary and declared flags.
fn help() -> String {
    use std::fmt::Write as _;
    let mut text = String::from(
        "edist-cli — exact distributed stochastic block partitioning\n\n\
         usage: edist-cli SUBCOMMAND [--flag VALUE]...\n\
         Each flag may be given once; a switch (true|false) takes exactly true or false.\n\
         A flag whose help starts `MODE, …: ` is taken only under those --cluster\n\
         modes or --family values.\n",
    );
    let usages = COMMANDS
        .iter()
        .flat_map(Command::declared)
        .map(|f| f.usage.len());
    let width = usages.max().unwrap_or(0);
    for command in COMMANDS {
        let name = [Some(command.name), command.positional].map(Option::unwrap_or_default);
        let _ = writeln!(text, "\n{} — {}", name.join(" ").trim(), command.summary);
        for flag in command.declared() {
            let _ = writeln!(text, "  {:<width$}  {}", flag.usage, flag.help);
        }
    }
    let refused: Vec<String> = cluster::in_process_only()
        .map(|name| format!("--{name}"))
        .collect();
    let _ = write!(
        text,
        "\npartition --cluster tcp|tcp-local refuses the in-process flags\n  {}\n\
         \nexit codes: 0 ok; 1 error; 3 a partition run that degraded under\n\
         --fail-on-degraded true\n",
        refused.join(" ")
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use args::SWITCH;
    use edist::prelude::*;
    use graphs::read_assignment;
    use partition::parse_strategy;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const TOY: Command = Command {
        name: "toy",
        summary: "",
        positional: None,
        flags: &["--x N  x", "--name S  name", "--on true|false  a switch"],
        run: cmd_help,
    };

    /// A file-graph path that does not exist: a command line that gets
    /// past the flag check fails on it, with a different message.
    const NO_GRAPH: &str = "/no/such/graph.mtx";

    /// A three-vertex cycle in a fresh edge-list file.
    fn tiny_graph(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("edist_cli_{tag}.txt"));
        std::fs::write(&path, "0 1\n1 2\n2 0\n").unwrap();
        path
    }

    #[test]
    fn args_parse_pairs() {
        let a = Args::parse(&TOY, &argv(&["--x", "1", "--name", "foo"])).unwrap();
        assert_eq!(a.get("x"), Some("1"));
        assert_eq!(a.require("name").unwrap(), "foo");
        assert_eq!(a.num::<u32>("x", 0).unwrap(), 1);
        assert_eq!(a.num::<u32>("missing", 9).unwrap(), 9);
        assert!(!a.switch("on"));
    }

    #[test]
    fn args_reject_bad_shapes() {
        assert!(Args::parse(&TOY, &argv(&["positional"])).is_err());
        assert!(Args::parse(&TOY, &argv(&["--x"])).is_err());
        let a = Args::parse(&TOY, &argv(&["--x", "abc"])).unwrap();
        assert!(a.num::<u32>("x", 0).is_err());
        assert!(a.require("name").is_err());
        let zero = Args::parse(&TOY, &argv(&["--x", "0"])).unwrap();
        assert_eq!(zero.positive("x", 1), Err("--x must be at least 1".into()));
    }

    /// Every dispatch row refuses a flag it does not declare, naming it,
    /// before it reads any file.
    #[test]
    fn every_subcommand_refuses_an_undeclared_flag() {
        for command in COMMANDS {
            let err = run(&argv(&[
                command.name,
                "--graph",
                NO_GRAPH,
                "--no-such-flag",
                "1",
            ]))
            .expect_err(command.name);
            let undeclared = if command.declared().any(|f| f.name == "graph") {
                "--no-such-flag"
            } else {
                "--graph"
            };
            assert_eq!(
                err,
                format!("{} does not take {undeclared}", command.name),
                "{}",
                command.name
            );
        }
    }

    #[test]
    fn a_misspelled_flag_is_refused() {
        let got = run(&argv(&["partition", "--graph", NO_GRAPH, "--sed", "5"]));
        assert_eq!(got, Err("partition does not take --sed".into()));
    }

    #[test]
    fn a_repeated_flag_is_refused() {
        let repeated = [
            "partition",
            "--graph",
            NO_GRAPH,
            "--seed",
            "1",
            "--seed",
            "2",
        ];
        let got = run(&argv(&repeated));
        assert_eq!(got, Err("--seed is given more than once".into()));
    }

    /// A switch takes `true` or `false` and nothing else, on every
    /// subcommand that declares one.
    #[test]
    fn switches_take_true_or_false() {
        let partition = COMMANDS.iter().find(|c| c.name == "partition").unwrap();
        let off = Args::parse(partition, &argv(&["--progress", "false"])).unwrap();
        assert!(!off.switch("progress"));
        let on = Args::parse(partition, &argv(&["--progress", "true"])).unwrap();
        assert!(on.switch("progress"));
        let got = run(&argv(&[
            "partition",
            "--graph",
            NO_GRAPH,
            "--progress",
            "0",
        ]));
        assert_eq!(got, Err("--progress takes true or false, got '0'".into()));
        for command in COMMANDS {
            for flag in command.declared().filter(|f| f.value == SWITCH) {
                let got = run(&argv(&[command.name, &format!("--{}", flag.name), "yes"]));
                let want = format!("--{} takes true or false, got 'yes'", flag.name);
                assert_eq!(got, Err(want), "{}", command.name);
            }
        }
    }

    /// `help` prints every row's summary and exactly its declared flags.
    #[test]
    fn help_lists_exactly_the_declared_flags() {
        let text = help();
        let mut sections = text.split("\n\n").skip(2);
        for command in COMMANDS {
            let section = sections.next().expect(command.name);
            let mut lines = section.lines();
            let title = lines.next().unwrap();
            assert!(title.starts_with(command.name), "{title}");
            assert!(title.ends_with(command.summary), "{title}");
            let listed: Vec<&str> = lines
                .map(|l| l.split_whitespace().next().unwrap())
                .collect();
            let declared: Vec<String> = command
                .declared()
                .map(|f| format!("--{}", f.name))
                .collect();
            assert_eq!(listed, declared, "{}", command.name);
        }
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&[])).is_err());
        assert!(run(&argv(&["help"])).is_ok());
    }

    /// An unknown `--backend` is refused with every known name, by
    /// `partition` and by `serve`, before either reads the graph.
    #[test]
    fn unknown_backend_is_an_error() {
        let known = "batch, dcsbp, edist, hybrid, sbp, sequential";
        let want = format!("unknown backend 'quantum' (known: {known})");
        let serve = ["serve", "--listen", "unix:/no/such/d.sock"];
        for command in [&["partition"][..], &serve] {
            let line = [command, &["--graph", NO_GRAPH, "--backend", "quantum"]].concat();
            assert_eq!(run(&argv(&line)), Err(want.clone()), "{command:?}");
        }
        assert!(parse_strategy("telepathy").is_err());
    }

    #[test]
    fn generate_partition_evaluate_roundtrip() {
        let dir = std::env::temp_dir();
        let gpath = dir.join("edist_cli_test.mtx");
        let tpath = dir.join("edist_cli_truth.txt");
        let apath = dir.join("edist_cli_assign.txt");
        run(&argv(&[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "300",
            "--difficulty",
            "easy",
            "--out",
            gpath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "partition",
            "--graph",
            gpath.to_str().unwrap(),
            "--backend",
            "edist",
            "--ranks",
            "2",
            "--progress",
            "true",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "evaluate",
            "--pred",
            apath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "islands",
            "--graph",
            gpath.to_str().unwrap(),
            "--ranks",
            "1,4",
        ]))
        .unwrap();
        run(&argv(&["stats", "--graph", gpath.to_str().unwrap()])).unwrap();
        for p in [&gpath, &tpath, &apath] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn shard_partition_sharded_roundtrip() {
        let dir = std::env::temp_dir();
        let gpath = dir.join("edist_cli_shard_test.mtx");
        let tpath = dir.join("edist_cli_shard_truth.txt");
        let sdir = dir.join(format!("edist_cli_shards_{}", std::process::id()));
        let apath = dir.join("edist_cli_shard_assign.txt");
        let _ = std::fs::remove_dir_all(&sdir);
        run(&argv(&[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "300",
            "--difficulty",
            "easy",
            "--out",
            gpath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        run(&argv(&[
            "shard",
            "--graph",
            gpath.to_str().unwrap(),
            "--ranks",
            "2",
            "--strategy",
            "balanced",
            "--out",
            sdir.to_str().unwrap(),
        ]))
        .unwrap();
        // Default backend over shards is EDiSt on one rank per shard.
        run(&argv(&[
            "partition",
            "--sharded",
            sdir.to_str().unwrap(),
            "--progress",
            "true",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        let labels = read_assignment(apath.to_str().unwrap()).unwrap();
        assert_eq!(labels.len(), 300);
        run(&argv(&[
            "evaluate",
            "--pred",
            apath.to_str().unwrap(),
            "--truth",
            tpath.to_str().unwrap(),
        ]))
        .unwrap();
        // Explicit dcsbp backend over the same shards also works.
        run(&argv(&[
            "partition",
            "--sharded",
            sdir.to_str().unwrap(),
            "--backend",
            "dcsbp",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        // Conflicting --ranks is rejected up front.
        assert!(run(&argv(&[
            "partition",
            "--sharded",
            sdir.to_str().unwrap(),
            "--ranks",
            "5",
        ]))
        .is_err());
        // Unknown strategy and missing dir are surfaced as errors.
        assert!(run(&argv(&[
            "shard",
            "--graph",
            gpath.to_str().unwrap(),
            "--strategy",
            "quantum",
            "--out",
            sdir.to_str().unwrap(),
        ]))
        .is_err());
        assert!(run(&argv(&["partition", "--sharded", "/no/such/dir"])).is_err());
        // --graph and --sharded are mutually exclusive.
        assert!(run(&argv(&[
            "partition",
            "--graph",
            gpath.to_str().unwrap(),
            "--sharded",
            sdir.to_str().unwrap(),
        ]))
        .is_err());
        for p in [&gpath, &tpath, &apath] {
            let _ = std::fs::remove_file(p);
        }
        let _ = std::fs::remove_dir_all(&sdir);
    }

    /// Asserts `partition --cluster MODE` rejects each flag by name,
    /// before touching the graph or the network.
    fn assert_tcp_rejects(flags: &[(&str, &str)]) {
        for mode in ["tcp", "tcp-local"] {
            for &(flag, value) in flags {
                let err = run(&argv(&[
                    "partition",
                    "--graph",
                    "/no/such/graph.mtx",
                    "--cluster",
                    mode,
                    &format!("--{flag}"),
                    value,
                ]))
                .expect_err("an unsupported flag must not be silently ignored");
                assert!(err.contains(&format!("--{flag}")), "{mode}: {err}");
            }
        }
    }

    #[test]
    fn tcp_rejects_checkpoint_and_resume() {
        assert_tcp_rejects(&[("checkpoint", "s.sbpc"), ("resume", "s.sbpc")]);
    }

    #[test]
    fn tcp_rejects_metrics_out_and_progress() {
        assert_tcp_rejects(&[("metrics-out", "run.jsonl"), ("progress", "true")]);
    }

    #[test]
    fn tcp_rejects_sample() {
        assert_tcp_rejects(&[("sample", "0.5")]);
    }

    /// `--sync-period 0` is refused with the facade's error on every
    /// path, never clamped to 1 on one of them.
    #[test]
    fn zero_sync_period_is_one_error_on_every_path() {
        let gpath = std::env::temp_dir().join("edist_cli_sync0.txt");
        std::fs::write(&gpath, "0 1\n1 2\n2 0\n").unwrap();
        let g = gpath.to_str().unwrap();
        let want = PartitionError::ZeroSyncPeriod.to_string();
        let partition = ["partition", "--graph", g, "--backend", "edist"];
        let tcp = [
            "--cluster",
            "tcp",
            "--rank",
            "0",
            "--ranks",
            "1",
            "--coordinator",
            "127.0.0.1:1",
        ];
        for extra in [&[][..], &tcp, &["--cluster", "tcp-local"]] {
            let args = [&partition[..], extra, &["--sync-period", "0"]].concat();
            assert_eq!(run(&argv(&args)), Err(want.clone()), "{extra:?}");
        }
        let serve = [
            "serve",
            "--graph",
            g,
            "--listen",
            "unix:/no/such/dir/d.sock",
        ];
        assert_eq!(
            run(&argv(&[&serve[..], &["--sync-period", "0"]].concat())),
            Err(want)
        );
        let _ = std::fs::remove_file(&gpath);
    }

    /// `partition --ranks 0` is the facade's zero-ranks error for both
    /// distributed backends on every path, never a run at one rank.
    #[test]
    fn zero_ranks_partition_is_refused() {
        let gpath = std::env::temp_dir().join("edist_cli_ranks0.txt");
        std::fs::write(&gpath, "0 1\n1 2\n2 0\n").unwrap();
        let g = gpath.to_str().unwrap();
        let partition = ["partition", "--graph", g, "--ranks", "0", "--backend"];
        let tcp = [
            "--cluster",
            "tcp",
            "--rank",
            "0",
            "--coordinator",
            "127.0.0.1:1",
        ];
        for extra in [&[][..], &tcp, &["--cluster", "tcp-local"]] {
            for backend in ["edist", "dcsbp"] {
                let args = [&partition[..], &[backend], extra].concat();
                assert_eq!(
                    run(&argv(&args)),
                    Err(PartitionError::ZeroRanks.to_string()),
                    "{backend} {extra:?}"
                );
            }
        }
        let _ = std::fs::remove_file(&gpath);
    }

    /// `islands --ranks` refuses a zero rank count instead of printing a
    /// row computed at one rank.
    #[test]
    fn zero_ranks_islands_is_refused() {
        let gpath = std::env::temp_dir().join("edist_cli_islands0.txt");
        std::fs::write(&gpath, "0 1\n1 2\n2 0\n").unwrap();
        let g = gpath.to_str().unwrap();
        let got = run(&argv(&["islands", "--graph", g, "--ranks", "0,2"]));
        assert_eq!(got, Err("bad rank count '0' (at least 1)".to_string()));
        assert!(run(&argv(&["islands", "--graph", g, "--ranks", "1,2"])).is_ok());
        let _ = std::fs::remove_file(&gpath);
    }

    /// A refused sampling fraction is named as given: the error once
    /// carried thousandths, so `1.0004` read "got 1", `nan` "got 0" and
    /// `inf` "got 9223372036854776".
    #[test]
    fn a_refused_sample_fraction_is_named_as_given() {
        let gpath = tiny_graph("sample_fraction");
        let g = gpath.to_str().unwrap();
        for (given, shown) in [
            ("1.0004", "1.0004"),
            ("nan", "NaN"),
            ("inf", "inf"),
            ("0", "0"),
        ] {
            let want = format!("sampling fraction must be in (0, 1], got {shown}");
            let got = run(&argv(&["partition", "--graph", g, "--sample", given]));
            assert_eq!(got, Err(want), "partition --sample {given}");
        }
        let _ = std::fs::remove_file(&gpath);
    }

    #[cfg(unix)]
    #[test]
    fn sigint_watcher_cancels_token() {
        // Other tests in this binary also call install() (through
        // run_partitioner) and may swap the current token concurrently,
        // so re-register and re-trigger each attempt instead of racing a
        // single 50ms watcher poll.
        let token = CancelToken::new();
        assert!(sigint::install(token.clone()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !token.is_cancelled() && std::time::Instant::now() < deadline {
            sigint::install(token.clone());
            sigint::trigger_for_test();
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(token.is_cancelled(), "watcher never cancelled the token");
    }

    #[test]
    fn partition_sample_works() {
        let dir = std::env::temp_dir();
        let gpath = dir.join("edist_cli_sample.mtx");
        run(&argv(&[
            "generate",
            "--family",
            "challenge",
            "--vertices",
            "300",
            "--out",
            gpath.to_str().unwrap(),
        ]))
        .unwrap();
        let apath = dir.join("edist_cli_sample_assign.txt");
        run(&argv(&[
            "partition",
            "--graph",
            gpath.to_str().unwrap(),
            "--sample",
            "0.5",
            "--strategy",
            "uniform",
            "--out",
            apath.to_str().unwrap(),
        ]))
        .unwrap();
        let labels = read_assignment(apath.to_str().unwrap()).unwrap();
        assert_eq!(labels.len(), 300);
        let _ = std::fs::remove_file(&gpath);
        let _ = std::fs::remove_file(&apath);
    }

    /// `generate` refuses the sizes its generators assert on, naming the
    /// flag and its range, instead of panicking.
    #[test]
    fn generate_refuses_too_few_vertices() {
        for v in ["0", "15"] {
            let got = run(&argv(&["generate", "--vertices", v, "--out", NO_GRAPH]));
            assert_eq!(got, Err(format!("--vertices must be at least 16, got {v}")));
        }
    }

    #[test]
    fn generate_refuses_a_scale_outside_zero_to_one() {
        for family in ["param", "scaling", "realworld"] {
            for scale in ["0", "-0.5", "1.5", "nan", "inf"] {
                let got = run(&argv(&[
                    "generate", "--family", family, "--scale", scale, "--out", NO_GRAPH,
                ]));
                let err = got.expect_err(scale);
                assert!(err.starts_with("--scale must be in (0, 1], got "), "{err}");
            }
        }
    }

    /// `connect` sends exactly one request: two are refused by name
    /// before it opens the socket, a switch given `false` is none.
    #[test]
    fn connect_refuses_two_requests() {
        let to = ["connect", "--to", "unix:/no/such/dir/d.sock"];
        let got = run(&argv(
            &[&to[..], &["--stats", "true", "--shutdown", "true"]].concat(),
        ));
        assert_eq!(
            got,
            Err("connect sends one request: pass --stats or --shutdown, not both".into())
        );
        let got = run(&argv(
            &[&to[..], &["--ingest", "0,1,1", "--checkpoint", "s.sbpc"]].concat(),
        ));
        assert!(got.unwrap_err().contains("--ingest or --checkpoint"));
        let got = run(&argv(&[&to[..], &["--stats", "false"]].concat()));
        assert!(got.unwrap_err().starts_with("pass one of --ingest"));
        let got = run(&argv(
            &[&to[..], &["--stats", "false", "--shutdown", "true"]].concat(),
        ));
        assert!(got.unwrap_err().starts_with("connecting: "));
    }

    /// A count or timeout of 0 is refused, never clamped to 1.
    #[test]
    fn zero_checkpoint_every_and_timeouts_are_refused() {
        let gpath = tiny_graph("zero_counts");
        let g = gpath.to_str().unwrap();
        let got = run(&argv(&[
            "partition",
            "--graph",
            g,
            "--checkpoint-every",
            "0",
        ]));
        assert_eq!(got, Err("--checkpoint-every must be at least 1".into()));
        let tcp = [
            "partition",
            "--graph",
            g,
            "--cluster",
            "tcp",
            "--rank",
            "0",
            "--ranks",
            "1",
            "--coordinator",
            "127.0.0.1:1",
        ];
        for flag in ["--tcp-timeout", "--handshake-timeout"] {
            let got = run(&argv(&[&tcp[..], &[flag, "0"]].concat()));
            assert_eq!(got, Err(format!("{flag} must be at least 1")));
        }
        let _ = std::fs::remove_file(&gpath);
    }

    /// `--checkpoint-every` only thins `--checkpoint`'s snapshots: alone
    /// it is refused by name, not ignored.
    #[test]
    fn checkpoint_every_without_checkpoint_is_refused() {
        let gpath = tiny_graph("every_alone");
        let g = gpath.to_str().unwrap();
        let got = run(&argv(&[
            "partition",
            "--graph",
            g,
            "--checkpoint-every",
            "5",
        ]));
        let refusal =
            "--checkpoint-every thins the snapshots of --checkpoint; pass both or neither";
        assert_eq!(got, Err(refusal.into()));
        let _ = std::fs::remove_file(&gpath);
    }

    /// A flag of one rank of a TCP cluster is refused, by name and mode,
    /// where it would be ignored: on the in-process `--cluster thread`
    /// (the default) and, for the three the launcher picks itself, on
    /// `tcp-local`.
    #[test]
    fn partition_refuses_tcp_flags_outside_their_modes() {
        let tcp_only = [("rank", "3"), ("coordinator", "x:1"), ("session", "7")];
        let timeouts = [("tcp-timeout", "5"), ("handshake-timeout", "5")];
        for cluster in [None, Some("thread"), Some("tcp-local")] {
            let refused = match cluster {
                Some("tcp-local") => tcp_only.to_vec(),
                _ => [&tcp_only[..], &timeouts].concat(),
            };
            for (flag, value) in refused {
                let name = format!("--{flag}");
                let mut line = vec!["partition", "--graph", NO_GRAPH];
                if let Some(mode) = cluster {
                    line.extend(["--cluster", mode]);
                }
                line.extend([&name[..], value]);
                let modes = if flag.ends_with("timeout") {
                    "tcp, tcp-local"
                } else {
                    "tcp"
                };
                let mode = cluster.unwrap_or("thread");
                assert_eq!(
                    run(&argv(&line)),
                    Err(format!(
                        "--{flag} is for --cluster {modes}; --cluster {mode} does not take it"
                    )),
                );
            }
        }
    }

    /// `generate` refuses another family's flag instead of ignoring it
    /// (`--family scaling --vertices 50` wrote V = 1 051).
    #[test]
    fn generate_refuses_another_familys_flags() {
        let cases = [
            ("scaling", "--vertices", "50", "challenge"),
            ("param", "--difficulty", "easy", "challenge"),
            ("challenge", "--scale", "0.5", "param, scaling, realworld"),
            ("challenge", "--id", "1M", "param, scaling, realworld"),
        ];
        for (family, flag, value, modes) in cases {
            let got = run(&argv(&[
                "generate", "--family", family, flag, value, "--out", NO_GRAPH,
            ]));
            assert_eq!(
                got,
                Err(format!(
                    "{flag} is for --family {modes}; --family {family} does not take it"
                ))
            );
        }
    }

    /// A single-node backend is its own sweep schedule: `--mcmc` there is
    /// refused by name, never silently ignored — with or without
    /// `--backend`.
    #[test]
    fn mcmc_is_refused_on_single_node_backends() {
        let gpath = tiny_graph("mcmc");
        let g = gpath.to_str().unwrap();
        let partition = ["partition", "--graph", g, "--mcmc", "batch"];
        for backend in [
            &[][..],
            &["--backend", "sequential"],
            &["--backend", "hybrid"],
        ] {
            let err = run(&argv(&[&partition[..], backend].concat())).unwrap_err();
            assert!(
                err.contains("pick it with --backend batch|hybrid|sequential"),
                "{backend:?}: {err}"
            );
        }
        let err = run(&argv(&[
            "partition",
            "--graph",
            g,
            "--backend",
            "batch",
            "--mcmc",
            "mh",
        ]))
        .unwrap_err();
        assert!(
            err.starts_with("--mcmc mh sets the sweep schedule"),
            "{err}"
        );
        let out = std::env::temp_dir().join("edist_cli_mcmc_edist.txt");
        run(&argv(&[
            "partition",
            "--graph",
            g,
            "--backend",
            "edist",
            "--ranks",
            "1",
            "--mcmc",
            "batch",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let _ = std::fs::remove_file(out);
    }

    /// `--sync-period` paces the edist move exchange: a single-node
    /// backend refuses it by name instead of running without it.
    #[test]
    fn sync_period_is_refused_on_single_node_backends() {
        let gpath = tiny_graph("sync_period");
        let g = gpath.to_str().unwrap();
        let partition = ["partition", "--graph", g, "--sync-period", "7"];
        for backend in [
            &[][..],
            &["--backend", "sequential"],
            &["--backend", "hybrid"],
            &["--backend", "batch"],
        ] {
            let err = run(&argv(&[&partition[..], backend].concat())).unwrap_err();
            assert!(
                err.starts_with("--sync-period 7 sets how often the edist backend"),
                "{backend:?}: {err}"
            );
        }
        let out = std::env::temp_dir().join("edist_cli_sync_period_edist.txt");
        let edist = ["--backend", "edist", "--ranks", "1", "--out"];
        run(&argv(
            &[&partition[..], &edist, &[out.to_str().unwrap()]].concat(),
        ))
        .unwrap();
        let _ = std::fs::remove_file(out);
    }

    /// DC-SBP exchanges no moves: `--sync-period` is refused by name on
    /// every `partition` path and on `serve`, before any graph is read.
    #[test]
    fn sync_period_is_refused_on_dcsbp() {
        let gpath = tiny_graph("sync_period_dcsbp");
        let g = gpath.to_str().unwrap();
        let dcsbp = ["--backend", "dcsbp", "--ranks", "2", "--sync-period", "3"];
        let partition = [&["partition", "--graph", g][..], &dcsbp].concat();
        let tcp = [
            "--cluster",
            "tcp",
            "--rank",
            "0",
            "--coordinator",
            "127.0.0.1:1",
        ];
        let want = "--sync-period 3 sets how often the edist backend exchanges moves; \
                    the dcsbp backend exchanges none";
        for extra in [&[][..], &tcp, &["--cluster", "tcp-local"]] {
            let got = run(&argv(&[&partition[..], extra].concat()));
            assert_eq!(got, Err(want.into()), "{extra:?}");
        }
        let serve = [
            "serve",
            "--graph",
            NO_GRAPH,
            "--listen",
            "unix:/no/such/d.sock",
        ];
        assert_eq!(run(&argv(&[&serve[..], &dcsbp].concat())), Err(want.into()));
        let _ = std::fs::remove_file(gpath);
    }

    /// `--strategy` only picks the sampler of `--sample`.
    #[test]
    fn partition_refuses_a_strategy_without_a_sample() {
        let got = run(&argv(&[
            "partition",
            "--graph",
            NO_GRAPH,
            "--strategy",
            "uniform",
        ]));
        assert!(got.unwrap_err().starts_with("--strategy picks the sampler"));
    }
}
