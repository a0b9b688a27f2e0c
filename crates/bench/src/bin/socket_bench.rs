//! Loopback throughput benchmark of the TCP hot path.
//!
//! Streams the wide-tuple throughput workload (`cq_sim::cluster::run_throughput`)
//! through the real nonblocking reactor at several payload sizes and prints
//! one JSON object to stdout: per payload size, messages and wire bytes
//! moved, wall time, msgs/sec, MB/s, and the socket-level counters that
//! prove the zero-copy hot path is doing its job (write syscalls, frames
//! per vectored flush, bytes per syscall, pool hit rate). The payload rows
//! run on 2 nodes — one stream pair, whose buffers stay cache-resident and
//! whose flushes coalesce — so a last row repeats the medium payload on
//! [`MANY_NODES`] nodes, where costs paid per connection or per `read`
//! (rather than per byte) and the topology's frames-per-flush ceiling show.
//! `scripts/bench_snapshot.sh` folds the output into `BENCH_25.json`.
//!
//! Usage: `socket_bench [--quick] [--check]`
//!
//! `--quick` shrinks the tuple count for CI. `--check` additionally
//! enforces the structural gates in-process and exits nonzero on failure:
//! every payload size must coalesce more than one frame per flush on
//! average, and every row must recycle inbox buffers at a ≥ 90% pool hit
//! rate and move messages at a nonzero rate — the same invariants the
//! committed snapshot records. Nothing is gated on time, and the many-node
//! row is not gated on frames per flush: with a stream per node pair that
//! ratio is set by the topology, not by the flush policy.

use cq_sim::cluster::{run_throughput, ThroughputConfig, ThroughputReport};

/// The payload sizes measured — small (header-dominated), medium (the
/// steady-state shape), and large (payload-dominated, multiple KiB frames).
const PAYLOADS: [usize; 3] = [16, 256, 4096];

/// Network size of the per-connection row.
const MANY_NODES: usize = 32;

fn print_row(r: &ThroughputReport, last: bool) {
    let s = &r.socket;
    println!(
        "    {{\"nodes\": {}, \"payload\": {}, \"tuples\": {}, \"messages\": {}, \
         \"wire_bytes\": {}, \"wall_ms\": {:.1}, \"msgs_per_sec\": {:.0}, \
         \"mb_per_sec\": {:.2}, \"frames_sent\": {}, \"frames_received\": {}, \
         \"write_syscalls\": {}, \"read_syscalls\": {}, \
         \"frames_per_flush\": {:.2}, \"bytes_per_syscall\": {:.0}, \
         \"pool_hit_rate\": {:.4}}}{}",
        r.nodes,
        r.payload,
        r.tuples,
        r.messages,
        r.wire_bytes,
        r.wall.as_secs_f64() * 1e3,
        r.msgs_per_sec(),
        r.mb_per_sec(),
        s.frames_sent,
        s.frames_received,
        s.write_syscalls,
        s.read_syscalls,
        s.frames_per_flush(),
        s.bytes_per_syscall(),
        s.pool_hit_rate(),
        if last { "" } else { "," }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    if let Some(bad) = args.iter().find(|a| *a != "--quick" && *a != "--check") {
        eprintln!("unknown argument: {bad}");
        eprintln!("usage: socket_bench [--quick] [--check]");
        std::process::exit(2);
    }
    let tuples = if quick || check { 400 } else { 2000 };

    let reports: Vec<ThroughputReport> = PAYLOADS
        .iter()
        .map(|&payload| {
            run_throughput(&ThroughputConfig {
                payload,
                tuples,
                ..ThroughputConfig::default()
            })
        })
        .collect();

    let many = run_throughput(&ThroughputConfig {
        nodes: MANY_NODES,
        payload: PAYLOADS[1],
        tuples,
        ..ThroughputConfig::default()
    });

    println!("{{");
    println!("  \"payloads\": [");
    for (i, r) in reports.iter().enumerate() {
        print_row(r, i + 1 == reports.len());
    }
    println!("  ],");
    println!("  \"many_nodes\": [");
    print_row(&many, true);
    println!("  ]");
    println!("}}");

    if check {
        let mut failures = Vec::new();
        for r in &reports {
            let s = &r.socket;
            if s.frames_per_flush() <= 1.0 {
                failures.push(format!(
                    "payload {}: {:.2} frames/flush — the coalesced flush \
                     policy must batch more than one frame per vectored write",
                    r.payload,
                    s.frames_per_flush()
                ));
            }
        }
        for r in reports.iter().chain([&many]) {
            if r.socket.pool_hit_rate() < 0.9 {
                failures.push(format!(
                    "{} nodes, payload {}: pool hit rate {:.3} — steady-state \
                     inbox frames must recycle pooled buffers",
                    r.nodes,
                    r.payload,
                    r.socket.pool_hit_rate()
                ));
            }
            if r.msgs_per_sec() <= 0.0 || r.wire_bytes == 0 {
                failures.push(format!(
                    "{} nodes, payload {}: no throughput measured",
                    r.nodes, r.payload
                ));
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "socket_bench --check passed ({} payload sizes, and {MANY_NODES} nodes)",
            PAYLOADS.len()
        );
    }
}
