//! Metric names, units and directions, and how each value is computed.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a unit test
//! keeps the two in step). End-to-end metrics come from untraced rounds
//! reduced by the per-op minimum; per-layer metrics come from the traced
//! round's spans, from boundary counts read through public accessors, and
//! from the isolated-layer probes.

use cq_engine::TrafficKind;

use crate::round::RoundResult;
use crate::stats::{per_op_min, percentile, tail_permille};
use crate::trace::{Analysis, Role, SinkCounts};
use crate::workloads::{Backend, Spec};

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("insert_tput", "1/s", "higher"),
    ("insert_p50_us", "us", "lower"),
    ("insert_p95_us", "us", "lower"),
    ("pose_p50_us", "us", "lower"),
    ("hops_per_insert", "hops", "lower"),
    ("msgs_per_insert", "msgs", "lower"),
    ("allocs_per_insert", "allocs", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("load_top10_share", "ratio", "lower"),
    ("recall", "ratio", "higher"),
];

pub const PER_LAYER: &[MetricDef] = &[
    ("tail.insert_p99_us", "us", "lower"),
    ("workload.gen_ns_per_op", "ns", "lower"),
    ("overlay.route_ns", "ns", "lower"),
    ("overlay.hops_per_lookup", "hops", "lower"),
    ("overlay.hops_per_msg", "hops", "lower"),
    ("relational.parse_ns", "ns", "lower"),
    ("relational.rewrite_ns", "ns", "lower"),
    ("relational.match_ns", "ns", "lower"),
    ("algo.publish_self_us", "us", "lower"),
    ("algo.publish_share", "ratio", "lower"),
    ("algo.rewriter_self_us", "us", "lower"),
    ("algo.rewriter_share", "ratio", "lower"),
    ("algo.evaluator_self_us", "us", "lower"),
    ("algo.evaluator_share", "ratio", "lower"),
    ("algo.notify_self_us", "us", "lower"),
    ("algo.notify_share", "ratio", "lower"),
    ("algo.other_self_us", "us", "lower"),
    ("algo.other_share", "ratio", "lower"),
    ("algo.load_skew", "ratio", "lower"),
    ("algo.rewriter_filter_per_insert", "checks", "lower"),
    ("algo.evaluator_filter_per_insert", "checks", "lower"),
    ("algo.notifications_per_insert", "count", "higher"),
    ("tables.alqt_insert_ns", "ns", "lower"),
    ("tables.alqt_scan_ns_per_query", "ns", "lower"),
    ("tables.vlqt_insert_ns", "ns", "lower"),
    ("tables.vlqt_scan_ns_per_candidate", "ns", "lower"),
    ("tables.vltt_insert_ns", "ns", "lower"),
    ("tables.vltt_scan_ns_per_candidate", "ns", "lower"),
    ("tables.vstore_insert_ns", "ns", "lower"),
    ("tables.vstore_scan_ns_per_candidate", "ns", "lower"),
    ("tables.candidates_per_insert", "count", "lower"),
    ("tables.matches_per_insert", "count", "higher"),
    ("tables.match_ratio", "ratio", "higher"),
    ("tables.storage_entries", "count", "lower"),
    ("tables.storage_skew", "ratio", "lower"),
    ("transport.send_to_deliver_us_p50", "us", "lower"),
    ("transport.send_to_deliver_us_p99", "us", "lower"),
    ("transport.critical_path_depth_p50", "count", "lower"),
    ("transport.critical_path_depth_max", "count", "lower"),
    ("traffic.query-index.msgs_per_insert", "msgs", "lower"),
    ("traffic.query-index.hops_per_insert", "hops", "lower"),
    ("traffic.tuple-index.msgs_per_insert", "msgs", "lower"),
    ("traffic.tuple-index.hops_per_insert", "hops", "lower"),
    ("traffic.reindex.msgs_per_insert", "msgs", "lower"),
    ("traffic.reindex.hops_per_insert", "hops", "lower"),
    ("traffic.notify.msgs_per_insert", "msgs", "lower"),
    ("traffic.notify.hops_per_insert", "hops", "lower"),
    ("traffic.probe.msgs_per_insert", "msgs", "lower"),
    ("traffic.probe.hops_per_insert", "hops", "lower"),
    ("wire.encode_ns_per_msg", "ns", "lower"),
    ("wire.decode_ns_per_msg", "ns", "lower"),
    ("wire.bytes_per_msg", "B", "lower"),
    ("wire.bytes_per_insert", "B", "lower"),
    ("socket.frames_per_flush", "ratio", "higher"),
    ("socket.write_syscalls_per_insert", "count", "lower"),
    ("socket.read_syscalls_per_insert", "count", "lower"),
    ("socket.bytes_per_syscall", "B", "higher"),
    ("socket.pool_hit_rate", "ratio", "higher"),
    ("socket.blocked_writes", "count", "lower"),
    ("socket.wire_share", "ratio", "lower"),
    ("frames.pump_ns_per_frame", "ns", "lower"),
    ("faults.lost_per_insert", "count", "lower"),
    ("faults.retransmits_per_insert", "count", "lower"),
    ("faults.dedup_per_insert", "count", "lower"),
    ("faults.replica_msgs_per_insert", "count", "lower"),
    ("recovery.heartbeats_per_insert", "count", "lower"),
    ("recovery.detect_ticks_mean", "ticks", "lower"),
    ("recovery.repair_ticks_mean", "ticks", "lower"),
    ("recovery.repair_bytes", "B", "lower"),
    ("recovery.false_suspects", "count", "lower"),
    ("recovery.lost_in_detection_window", "count", "lower"),
    ("recovery.settle_ms", "ms", "lower"),
    ("recovery.anti_entropy_ms", "ms", "lower"),
    ("recovery.fault_tax", "ratio", "lower"),
    ("trace.events_per_insert", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("driver.round_wall_median_s", "s", "lower"),
    ("driver.round_wall_spread", "ratio", "lower"),
    ("driver.rounds", "count", "higher"),
    ("driver.op_fail_share", "ratio", "lower"),
];

/// A computed metric; `None` marks a layer the workload does not exercise.
pub type Row = (String, Option<f64>);

pub fn row(name: impl Into<String>, value: f64) -> Row {
    (name.into(), Some(value))
}

fn per(total: u64, n: usize) -> f64 {
    total as f64 / n.max(1) as f64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Sorted per-op minima of one timing series across rounds.
fn quiet(rounds: &[RoundResult], series: impl Fn(&RoundResult) -> &Vec<u64>) -> Vec<u64> {
    let all: Vec<Vec<u64>> = rounds.iter().map(|r| series(r).clone()).collect();
    let mut v = per_op_min(&all);
    v.sort_unstable();
    v
}

/// The end-to-end metrics of one workload from its untraced rounds.
pub fn end_to_end(rounds: &[RoundResult], recall: f64) -> Vec<Row> {
    let last = rounds.last().expect("at least one round ran");
    let inserts = quiet(rounds, |r| &r.insert_ns);
    let poses = quiet(rounds, |r| &r.pose_ns);
    let n = inserts.len();
    // each round reports the median of its own set-ups; across rounds the
    // quiet path is the lowest, as for the ops
    let setup_ns = rounds.iter().map(|r| r.setup_ns).min().unwrap_or(0);
    let rss = rounds.iter().map(|r| r.peak_rss_kb).max().unwrap_or(0);
    vec![
        row("setup_s", setup_ns as f64 / 1e9),
        row(
            "insert_tput",
            n as f64 / (inserts.iter().sum::<u64>() as f64 / 1e9),
        ),
        row("insert_p50_us", us(percentile(&inserts, 500))),
        row("insert_p95_us", us(percentile(&inserts, 950))),
        row("pose_p50_us", us(percentile(&poses, 500))),
        row("hops_per_insert", per(last.hops, n)),
        row("msgs_per_insert", per(last.msgs, n)),
        row("allocs_per_insert", per(last.allocs, n)),
        row("peak_rss_mb", rss as f64 / 1024.0),
        row("load_top10_share", last.load_top10_share),
        row("recall", recall),
    ]
}

/// The highest insert percentile with at least ten samples beyond it — p99
/// at full size, where every workload has ≥ 1000 inserts — over the per-op
/// minima, in µs. Its spread from run to run (9–37 % on a busy host) is
/// wider than any bound, so it is reported beside the layers, unbounded.
pub fn quiet_insert_tail_us(rounds: &[RoundResult]) -> f64 {
    let inserts = quiet(rounds, |r| &r.insert_ns);
    us(percentile(&inserts, tail_permille(inserts.len())))
}

/// Σ of the per-op-minimum insert latencies across `rounds`, in ns.
pub fn quiet_insert_sum(rounds: &[RoundResult]) -> u64 {
    quiet(rounds, |r| &r.insert_ns).iter().sum()
}

/// Median of the per-op-minimum insert latencies across `rounds`, in ns.
pub fn quiet_insert_p50(rounds: &[RoundResult]) -> u64 {
    percentile(&quiet(rounds, |r| &r.insert_ns), 500)
}

/// Per-layer metrics read through public accessors after an untraced round
/// (`Metrics`, `NodeLoad`, `storage_loads`, `SocketStats`, `FaultCounters`,
/// `RecoveryCounters`).
pub fn boundary_layers(spec: &Spec, r: &RoundResult) -> Vec<Row> {
    let n = r.insert_ns.len();
    let mut out = vec![
        row("overlay.hops_per_msg", per(r.hops, r.msgs as usize)),
        row("algo.load_skew", r.load_skew),
        row(
            "algo.rewriter_filter_per_insert",
            per(r.rewriter_filtering, n),
        ),
        row(
            "algo.evaluator_filter_per_insert",
            per(r.evaluator_filtering, n),
        ),
        row("algo.notifications_per_insert", per(r.notifications, n)),
        row("tables.storage_entries", r.storage_entries as f64),
        row("tables.storage_skew", r.storage_skew),
    ];
    for (kind, (msgs, hops)) in TrafficKind::ALL.iter().zip(r.traffic) {
        out.push(row(
            format!("traffic.{}.msgs_per_insert", kind.name()),
            per(msgs, n),
        ));
        out.push(row(
            format!("traffic.{}.hops_per_insert", kind.name()),
            per(hops, n),
        ));
    }
    if spec.backend != Backend::Sim {
        out.push(row("wire.bytes_per_insert", per(r.wire_bytes, n)));
    }
    if let Some(s) = &r.socket {
        out.push(row("socket.frames_per_flush", s.frames_per_flush()));
        out.push(row(
            "socket.write_syscalls_per_insert",
            per(s.write_syscalls, n),
        ));
        out.push(row(
            "socket.read_syscalls_per_insert",
            per(s.read_syscalls, n),
        ));
        out.push(row("socket.bytes_per_syscall", s.bytes_per_syscall()));
        out.push(row("socket.pool_hit_rate", s.pool_hit_rate()));
        out.push(row("socket.blocked_writes", s.blocked_writes as f64));
    }
    if spec.backend == Backend::SimFaults {
        let (f, rec) = (&r.faults, &r.recovery);
        out.push(row("faults.lost_per_insert", per(f.messages_lost, n)));
        out.push(row(
            "faults.retransmits_per_insert",
            per(f.retransmissions, n),
        ));
        out.push(row("faults.dedup_per_insert", per(f.dedup_suppressed, n)));
        out.push(row(
            "faults.replica_msgs_per_insert",
            per(f.replica_messages, n),
        ));
        out.push(row(
            "recovery.heartbeats_per_insert",
            per(rec.heartbeats_sent, n),
        ));
        out.push(row(
            "recovery.detect_ticks_mean",
            per(rec.detect_ticks_total, rec.detections as usize),
        ));
        out.push(row(
            "recovery.repair_ticks_mean",
            per(rec.repair_ticks_total, rec.repairs as usize),
        ));
        out.push(row("recovery.repair_bytes", rec.repair_bytes as f64));
        out.push(row("recovery.false_suspects", rec.false_suspects as f64));
        out.push(row(
            "recovery.lost_in_detection_window",
            rec.lost_in_detection_window as f64,
        ));
        out.push(row("recovery.settle_ms", r.settle_ns as f64 / 1e6));
    }
    out
}

/// Per-layer metrics from the traced round's spans and sink counts.
///
/// An interval between two deliveries is charged whole to the handler that
/// opened it, so the self times of an op sum to its wall time by
/// construction. On the plain simulator the transport between two handlers
/// is a queue push and pop, and the interval is the handler. Behind the
/// fault pump or a socket it is mostly transit, so `handlers_timed` is false
/// there and `algo.*_self_us` / `algo.*_share` are left out.
pub fn trace_layers(analysis: &Analysis, counts: &SinkCounts, handlers_timed: bool) -> Vec<Row> {
    let inserts: Vec<_> = analysis.ops.iter().filter(|op| op.is_insert).collect();
    let n = inserts.len();
    let wall: u64 = inserts.iter().map(|op| op.wall_ns).sum();
    let mut out = Vec::new();
    for (role, name) in [
        (Role::Publish, "publish"),
        (Role::Rewriter, "rewriter"),
        (Role::Evaluator, "evaluator"),
        (Role::Notify, "notify"),
        (Role::Other, "other"),
    ] {
        let mut per_op: Vec<u64> = inserts.iter().map(|op| op.self_ns[role as usize]).collect();
        per_op.sort_unstable();
        let total: u64 = per_op.iter().sum();
        if handlers_timed && !per_op.is_empty() {
            out.push(row(
                format!("algo.{name}_self_us"),
                us(percentile(&per_op, 500)),
            ));
            out.push(row(
                format!("algo.{name}_share"),
                total as f64 / wall.max(1) as f64,
            ));
        }
    }
    out.push(row(
        "tables.candidates_per_insert",
        per(counts.candidates, n),
    ));
    out.push(row("tables.matches_per_insert", per(counts.matches, n)));
    if counts.candidates > 0 {
        out.push(row(
            "tables.match_ratio",
            counts.matches as f64 / counts.candidates as f64,
        ));
    }
    let mut transit = analysis.send_to_deliver_ns.clone();
    transit.sort_unstable();
    if !transit.is_empty() {
        out.push(row(
            "transport.send_to_deliver_us_p50",
            us(percentile(&transit, 500)),
        ));
        let tail = tail_permille(transit.len());
        out.push(row(
            "transport.send_to_deliver_us_p99",
            us(percentile(&transit, tail)),
        ));
    }
    let mut depths: Vec<u64> = inserts.iter().map(|op| op.depth as u64).collect();
    depths.sort_unstable();
    if let Some(max) = depths.last() {
        out.push(row(
            "transport.critical_path_depth_p50",
            percentile(&depths, 500) as f64,
        ));
        out.push(row("transport.critical_path_depth_max", *max as f64));
    }
    out.push(row("trace.events_per_insert", per(counts.events, n)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn round(insert_ns: Vec<u64>, setup_ns: u64) -> RoundResult {
        RoundResult {
            setup_ns,
            insert_ns,
            pose_ns: vec![30_000, 10_000, 20_000],
            hops: 40,
            msgs: 20,
            allocs: 100,
            load_top10_share: 0.5,
            peak_rss_kb: 2048,
            ..RoundResult::default()
        }
    }

    #[test]
    fn end_to_end_uses_per_op_minima_and_the_quietest_rounds_setup() {
        let rounds = [
            round(vec![4_000, 9_000, 2_000, 8_000], 5_000_000),
            round(vec![5_000, 3_000, 2_500, 1_000], 1_000_000),
            round(vec![6_000, 3_500, 9_000, 7_000], 3_000_000),
        ];
        let rows = end_to_end(&rounds, 1.0);
        let get = |name: &str| rows.iter().find(|(n, _)| n == name).unwrap().1.unwrap();
        // minima 4000, 3000, 2000, 1000 ns → 10 µs for 4 inserts
        assert_eq!(get("insert_tput"), 4.0 / 10e-6);
        assert_eq!(get("insert_p50_us"), 2.0);
        assert_eq!(get("setup_s"), 0.001);
        assert_eq!(get("hops_per_insert"), 10.0);
        assert_eq!(get("allocs_per_insert"), 25.0);
        assert_eq!(get("peak_rss_mb"), 2.0);
        assert_eq!(get("pose_p50_us"), 20.0);
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.0).collect();
        assert_eq!(names, declared);
    }

    /// `BENCHMARK.json` and the tables above must name the same metrics and
    /// workloads, in the same order.
    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let declared: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let declared: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, declared);
        let run_seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS));
    }

    #[test]
    fn every_computed_layer_name_is_declared() {
        let declared: Vec<&str> = PER_LAYER.iter().map(|d| d.0).collect();
        let mut r = round(vec![1, 2], 1);
        r.socket = Some(Default::default());
        for spec in WORKLOADS {
            for (name, _) in boundary_layers(&spec, &r) {
                assert!(declared.contains(&name.as_str()), "{name}");
            }
        }
        let analysis = Analysis {
            ops: vec![crate::trace::OpSpans {
                op: 0,
                is_insert: true,
                wall_ns: 10,
                self_ns: [2; 5],
                handlers: 4,
                depth: 2,
            }],
            send_to_deliver_ns: vec![5],
            orphan_delivers: 0,
        };
        let counts = SinkCounts {
            candidates: 4,
            matches: 1,
            ..SinkCounts::default()
        };
        let timed = trace_layers(&analysis, &counts, true);
        for (name, _) in &timed {
            assert!(declared.contains(&name.as_str()), "{name}");
        }
        // off the plain simulator handler intervals are mostly transit
        let untimed = trace_layers(&analysis, &counts, false);
        assert!(timed.iter().any(|(n, _)| n == "algo.evaluator_share"));
        assert!(!untimed.iter().any(|(n, _)| n.starts_with("algo.")));
        assert_eq!(timed.len(), untimed.len() + 10);
    }
}
