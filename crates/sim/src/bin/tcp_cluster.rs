//! Runs one experiment over real TCP loopback sockets and checks the
//! delivered notification set and metrics against an in-memory simulator
//! run of the same seed. The flags fill a `RunConfig` (`--seed` sets its
//! engine's seed, the run's one seed), and both runs go through
//! `cq_sim::run`'s loop (`cluster::compare`).
//!
//! ```text
//! tcp_cluster [--alg A] [--nodes N] [--queries Q] [--tuples T] [--seed S]
//!             [--payload-size B]
//! ```
//!
//! The command stream is applied in-process; only the engine's
//! node-to-node traffic crosses sockets.
//!
//! With `--payload-size B`, the equivalence check is replaced by the
//! loopback throughput harness: wide tuples carrying a `B`-byte string
//! payload are streamed through the real reactor and only the throughput
//! summary is printed (the default workload's tuples are all-`Int`, so
//! stress payloads need the harness's own catalog). It streams 2 000
//! tuples over 2 nodes unless `--tuples` or `--nodes` says otherwise.
//!
//! Every socket run ends with a throughput summary: frames sent/received,
//! wire bytes, syscalls, frames per flush, pool hit rate, wall time, and
//! messages per second.
//!
//! Exits nonzero (with a description of the first divergence) if the socket
//! run and the simulator run disagree. A reader that closes stdout early
//! (`tcp_cluster | head`) ends the run with exit code 0; any other write
//! error exits 1, naming it.

use std::io::{self, Write};
use std::time::Duration;

use cq_engine::{Algorithm, SocketStats};
use cq_sim::cluster::{compare, run_throughput, ThroughputConfig};
use cq_sim::RunConfig;

const USAGE: &str = "usage: tcp_cluster [--alg A] [--nodes N] [--queries Q] \
                     [--tuples T] [--seed S] [--payload-size B]";

fn parse<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    })
}

/// Prints the per-run socket throughput summary.
fn print_summary(
    out: &mut impl Write,
    messages: u64,
    wall: Duration,
    s: &SocketStats,
) -> io::Result<()> {
    let secs = wall.as_secs_f64().max(1e-9);
    writeln!(
        out,
        "socket summary: {} frames out / {} in, {} bytes written / {} read",
        s.frames_sent, s.frames_received, s.bytes_written, s.bytes_read
    )?;
    writeln!(
        out,
        "  {} write syscalls ({:.1} frames/flush, {:.0} bytes/syscall), \
         {} read syscalls, {} blocked writes",
        s.write_syscalls,
        s.frames_per_flush(),
        s.bytes_per_syscall(),
        s.read_syscalls,
        s.blocked_writes
    )?;
    writeln!(
        out,
        "  pool hit rate {:.1}% ({} hits / {} misses), wall {:.3}s, {:.0} msgs/sec",
        s.pool_hit_rate() * 100.0,
        s.pool_hits,
        s.pool_misses,
        secs,
        messages as f64 / secs
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every node-to-node message of the run is compared, so installation
    // traffic stays in the counters (`reset_metrics` would also clear the
    // wire bytes), and notification bodies are kept for the delivered sets.
    let mut cfg = RunConfig {
        queries: 10,
        tuples: 80,
        measure_stream_only: false,
        ..RunConfig::new(Algorithm::DaiT).with_engine(|e| {
            e.with_nodes(32)
                .with_seed(7)
                .with_retained_notifications(true)
        })
    };
    let mut payload_size: Option<usize> = None;
    // `--nodes` and `--tuples` as given; each mode has its own defaults.
    let (mut nodes, mut tuples): (Option<usize>, Option<usize>) = (None, None);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--alg" => {
                let name: String = parse("--alg", iter.next());
                cfg.engine.algorithm = Algorithm::ALL
                    .into_iter()
                    .find(|a| a.to_string().eq_ignore_ascii_case(&name))
                    .unwrap_or_else(|| {
                        eprintln!("unknown algorithm {name} (expected SAI/DAI-Q/DAI-T/DAI-V)");
                        std::process::exit(2);
                    });
            }
            "--nodes" => {
                let n = parse("--nodes", iter.next());
                if n == 0 {
                    eprintln!("--nodes must be at least 1");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
                nodes = Some(n);
            }
            "--queries" => cfg.queries = parse("--queries", iter.next()),
            "--tuples" => tuples = Some(parse("--tuples", iter.next())),
            "--seed" => cfg.engine.seed = parse("--seed", iter.next()),
            "--payload-size" => payload_size = Some(parse("--payload-size", iter.next())),
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let throughput = payload_size.map(|payload| {
        let default = ThroughputConfig::default();
        ThroughputConfig {
            nodes: nodes.unwrap_or(default.nodes),
            payload,
            tuples: tuples.unwrap_or(default.tuples),
            seed: cfg.engine.seed,
        }
    });
    cfg.engine.nodes = nodes.unwrap_or(cfg.engine.nodes);
    cfg.tuples = tuples.unwrap_or(cfg.tuples);
    if let Err(e) = run(&mut io::stdout(), cfg, throughput) {
        cq_sim::exit_on_write_error(e);
    }
}

/// Runs the throughput harness when it is configured, and the equivalence
/// check otherwise, printing as it goes.
fn run(
    out: &mut impl Write,
    cfg: RunConfig,
    throughput: Option<ThroughputConfig>,
) -> io::Result<()> {
    if let Some(tcfg) = throughput {
        writeln!(
            out,
            "tcp_cluster throughput: {} nodes, {} tuples, {}-byte payloads, seed {}",
            tcfg.nodes, tcfg.tuples, tcfg.payload, tcfg.seed
        )?;
        let report = run_throughput(&tcfg);
        writeln!(
            out,
            "moved {} messages / {} wire bytes in {:.3}s ({:.0} msgs/sec, {:.2} MB/s)",
            report.messages,
            report.wire_bytes,
            report.wall.as_secs_f64(),
            report.msgs_per_sec(),
            report.mb_per_sec()
        )?;
        return print_summary(out, report.messages, report.wall, &report.socket);
    }
    writeln!(
        out,
        "tcp_cluster: {} over {} nodes, {} queries, {} tuples, seed {}",
        cfg.engine.algorithm, cfg.engine.nodes, cfg.queries, cfg.tuples, cfg.engine.seed
    )?;
    match compare(&cfg) {
        Ok(report) => {
            writeln!(
                out,
                "sim and tcp runs agree; tcp moved {} wire bytes",
                report.result.faults.total_bytes_sent()
            )?;
            let messages = report.result.total_traffic.messages;
            print_summary(out, messages, report.wall, &report.socket)
        }
        Err(divergence) => {
            eprintln!("MISMATCH: {divergence}");
            std::process::exit(1);
        }
    }
}
