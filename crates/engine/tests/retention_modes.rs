//! Regression pin for the counts-mode accounting bug: with
//! `retain_notifications: false`, `deliver_matches` used to bump
//! `notifications_delivered` *before* checking whether the subscriber was
//! still online, so a disconnected subscriber's matches were counted both
//! as delivered and as stored offline. The two retention modes must report
//! the same accounting picture (modulo the documented asymmetry — see
//! DESIGN.md, "Fault model"): full retention counts every arrival, inbox
//! or offline store, as delivered; counts mode splits the offline portion
//! into `notifications_stored_offline` only.

pub mod common;

use std::sync::Arc;

use common::catalog;
use cq_engine::{
    Algorithm, EngineConfig, FaultConfig, Network, Oracle, RingBufferSink, TraceEvent, TrafficKind,
};
use cq_relational::Value;

/// The two subscribers of the lossy run: one query each.
const TWO_QUERIES: &[(usize, &str)] = &[
    (0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"),
    (7, "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 2"),
];

/// Three subscribers with several queries each, so one evaluator's matches
/// for one subscriber come from more than one query. Node 7 is again the
/// one that leaves.
const SEVERAL_QUERIES_EACH: &[(usize, &str)] = &[
    (0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"),
    (0, "SELECT S.D FROM R, S WHERE R.B = S.E"),
    (0, "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 3"),
    (7, "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 2"),
    (7, "SELECT R.A, S.E FROM R, S WHERE R.B = S.E"),
    (13, "SELECT S.E FROM R, S WHERE R.B = S.E"),
    (13, "SELECT R.B, S.D FROM R, S WHERE R.B = S.E AND R.A = 4"),
];

/// ef01-style workload: subscribers at nodes 0 and 7 (and whoever else
/// `queries` names), of which node 7 disconnects halfway through the
/// stream, so both the online and the offline delivery arms are exercised
/// — under retransmission pressure when `fault` is lossy.
fn run_mode(
    alg: Algorithm,
    retain: bool,
    fault: FaultConfig,
    queries: &[(usize, &str)],
) -> Network {
    let mut net = Network::new(
        EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(42)
            .with_fault(fault)
            .with_retained_notifications(retain),
        catalog(),
    );
    let b = net.node_at(7);
    for &(node, sql) in queries {
        net.pose_query_sql(net.node_at(node), sql).unwrap();
    }
    let insert = |net: &mut Network, i: i64| {
        net.insert_tuple(
            net.node_at((i % 20) as usize),
            "R",
            vec![Value::Int(i), Value::Int(i % 4)],
        )
        .unwrap();
        net.insert_tuple(
            net.node_at(((i + 3) % 20) as usize),
            "S",
            vec![Value::Int(2 + i % 2), Value::Int(i % 3)],
        )
        .unwrap();
    };
    for i in 0..6 {
        insert(&mut net, i);
    }
    // `b` disconnects: its matches from the second half of the stream must
    // land in the offline store (full mode) / offline counters (counts
    // mode), never in the delivered figure of counts mode.
    net.node_leave(b).unwrap();
    net.stabilize(2).unwrap();
    for i in 6..12 {
        insert(&mut net, i);
    }
    net
}

#[test]
fn counts_mode_agrees_with_full_retention_under_faults() {
    for alg in Algorithm::ALL {
        let lossy = FaultConfig::lossy(0.15, 77);
        let full = run_mode(alg, true, lossy.clone(), TWO_QUERIES);
        let counts = run_mode(alg, false, lossy, TWO_QUERIES);

        // Ground truth: full retention delivers exactly the oracle set
        // (inbox plus offline store), each notification exactly once.
        let mut oracle = Oracle::new();
        oracle.ingest(full.posed_queries(), full.inserted_tuples());
        let expected = oracle.expected().unwrap();
        assert_eq!(
            full.delivered_set(),
            expected,
            "{alg}: full retention must match the oracle under faults"
        );
        // (No `delivered == expected.len()` assertion: the counter counts
        // match *events* while the oracle set holds distinct notification
        // *contents* — the stream repeats S tuples, so events exceed set
        // size by design.)
        let fm = full.metrics();

        // The two modes draw different fault RNG sequences (counts mode
        // sends no notification messages), but exactly-once evaluation
        // means the totals agree.
        let cm = counts.metrics();
        assert!(
            cm.notifications_stored_offline > 0,
            "{alg}: the workload must exercise the offline arm"
        );
        assert_eq!(
            cm.notifications_stored_offline, fm.notifications_stored_offline,
            "{alg}: both modes must agree on the offline portion"
        );
        // The regression: offline counts used to be added to *both*
        // counters, making this left side exceed the oracle total.
        assert_eq!(
            cm.notifications_delivered + cm.notifications_stored_offline,
            fm.notifications_delivered,
            "{alg}: counts mode must split, not double-count, offline matches"
        );
    }
}

/// Counts mode accumulates per *query* and folds to subscribers only at
/// delivery. Without faults the two modes process the same messages in the
/// same order, so beyond the totals they must agree on the `Notify` traffic
/// itself: one message per (evaluation, subscriber) — not per query — for
/// the online subscribers, one routed store per (evaluation, subscriber)
/// for the offline one.
#[test]
fn counts_mode_sends_what_full_retention_sends_with_several_queries_per_subscriber() {
    for alg in Algorithm::ALL {
        let full = run_mode(alg, true, FaultConfig::default(), SEVERAL_QUERIES_EACH);
        let counts = run_mode(alg, false, FaultConfig::default(), SEVERAL_QUERIES_EACH);

        let mut oracle = Oracle::new();
        oracle.ingest(full.posed_queries(), full.inserted_tuples());
        assert_eq!(full.delivered_set(), oracle.expected().unwrap(), "{alg}");

        let (fm, cm) = (full.metrics(), counts.metrics());
        assert!(cm.notifications_stored_offline > 0, "{alg}: offline arm");
        assert!(cm.notifications_delivered > 0, "{alg}: online arm");
        assert_eq!(
            cm.notifications_stored_offline, fm.notifications_stored_offline,
            "{alg}: offline portion"
        );
        // The documented asymmetry: full retention counts an offline store
        // as delivered too, counts mode does not.
        assert_eq!(
            cm.notifications_delivered + cm.notifications_stored_offline,
            fm.notifications_delivered,
            "{alg}: totals"
        );
        assert_eq!(
            cm.traffic(TrafficKind::Notify),
            fm.traffic(TrafficKind::Notify),
            "{alg}: notify messages and hops"
        );
    }
}

/// `(posing node, the stream step it is posed before, query)`: one query per
/// node, most of them posed between tuples. The S-side filter is a free-side
/// filter whenever an R tuple did the rewriting.
const POSED_MID_STREAM: &[(usize, i64, &str)] = &[
    (0, 0, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"),
    (5, 3, "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 2"),
    (9, 5, "SELECT S.D FROM R, S WHERE R.B = S.E"),
    (
        13,
        8,
        "SELECT R.A, S.E FROM R, S WHERE R.B = S.E AND R.A = 4",
    ),
];

/// DAI-V's extra query: a T2 condition with a filter on S, posed mid-stream.
const POSED_MID_STREAM_T2: (usize, i64, &str) = (
    17,
    4,
    "SELECT R.A, S.D FROM R, S WHERE R.B + 1 = S.E + 1 AND S.D = 3",
);

/// A fault-free stream with the queries of `queries` posed between its
/// tuples, so that evaluators hold candidates published before some of the
/// queries they match for: the time test `pubT(t) >= insT(q)` has to turn
/// those pairs down. Counts are traced per receiving node.
fn run_staggered(
    alg: Algorithm,
    retain: bool,
    queries: &[(usize, i64, &str)],
) -> (Network, Arc<RingBufferSink>) {
    let mut net = Network::new(
        EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(7)
            .with_retained_notifications(retain),
        catalog(),
    );
    let sink = Arc::new(RingBufferSink::new(1 << 20));
    net.set_tracer(sink.clone());
    for i in 0..12 {
        for &(node, _, sql) in queries.iter().filter(|q| q.1 == i) {
            net.pose_query_sql(net.node_at(node), sql).unwrap();
        }
        net.insert_tuple(
            net.node_at((i % 20) as usize),
            "R",
            vec![Value::Int(i % 6), Value::Int(i % 3)],
        )
        .unwrap();
        net.insert_tuple(
            net.node_at(((i + 3) % 20) as usize),
            "S",
            vec![Value::Int(2 + i % 2), Value::Int(i % 3)],
        )
        .unwrap();
    }
    (net, sink)
}

/// Notifications delivered to each node's inbox, from the trace.
fn delivered_per_node(sink: &RingBufferSink, nodes: usize) -> Vec<u64> {
    let mut per_node = vec![0; nodes];
    for e in sink.events() {
        if let TraceEvent::NotifyDelivered {
            node,
            count,
            offline: false,
            ..
        } = e
        {
            per_node[node as usize] += count;
        }
    }
    per_node
}

/// With the queries posed mid-stream, the evaluators' time test excludes
/// stored candidates — and counts mode must exclude exactly what full
/// retention excludes, query by query, for every algorithm; DAI-V also over
/// a T2 condition with a free-side filter.
#[test]
fn counts_mode_agrees_with_full_retention_when_queries_are_posed_mid_stream() {
    for alg in Algorithm::ALL {
        let mut queries = POSED_MID_STREAM.to_vec();
        if alg == Algorithm::DaiV {
            queries.push(POSED_MID_STREAM_T2);
        }
        let (full, full_trace) = run_staggered(alg, true, &queries);
        let (counts, counts_trace) = run_staggered(alg, false, &queries);

        let mut oracle = Oracle::new();
        oracle.ingest(full.posed_queries(), full.inserted_tuples());
        assert_eq!(full.delivered_set(), oracle.expected().unwrap(), "{alg}");

        // The workload does exercise the time test: the last query posed
        // has partners older than itself for newer tuples.
        let late = full.posed_queries().last().unwrap();
        let tuples = full.inserted_tuples();
        let straddling = tuples.iter().filter(|r| r.relation() == "R").any(|r| {
            tuples.iter().filter(|s| s.relation() == "S").any(|s| {
                r.get("B").unwrap() == s.get("E").unwrap()
                    && r.pub_time().min(s.pub_time()) < late.ins_time()
                    && r.pub_time().max(s.pub_time()) >= late.ins_time()
            })
        });
        assert!(straddling, "{alg}: no pair straddles {}'s insT", late.key());

        let nodes = full.config().nodes;
        let (want, got) = (
            delivered_per_node(&full_trace, nodes),
            delivered_per_node(&counts_trace, nodes),
        );
        for &(node, _, sql) in &queries {
            let (h, slot) = (full.node_at(node), full.node_at(node).index());
            let inbox = full.inbox(h);
            assert!(!inbox.is_empty(), "{alg}: {sql} matched nothing");
            assert!(inbox.iter().all(|n| n.query_key == inbox[0].query_key));
            assert_eq!(want[slot], inbox.len() as u64, "{alg}: {sql}");
            assert_eq!(got[slot], want[slot], "{alg}: {sql}");
        }
        let (fm, cm) = (full.metrics(), counts.metrics());
        assert_eq!(
            cm.notifications_delivered, fm.notifications_delivered,
            "{alg}"
        );
        assert_eq!(
            cm.traffic(TrafficKind::Notify),
            fm.traffic(TrafficKind::Notify),
            "{alg}: notify messages and hops"
        );
    }
}
