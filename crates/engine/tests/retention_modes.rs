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

use common::{apply_all, assert_oracle, catalog, ef01_stream, replay, Command, TWO_SUBSCRIBERS};
use cq_engine::{
    Algorithm, EngineConfig, FaultConfig, Network, RingBufferSink, TraceEvent, TrafficKind,
};

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

/// The ef01-style stream over `queries` on 24 nodes in both retention
/// modes, full first. Node 7 — a subscriber — leaves halfway through the
/// stream, so both the online and the offline delivery arms are exercised
/// — under retransmission pressure when `fault` is lossy. Its matches from
/// the second half must land in the offline store (full mode) / offline
/// counters (counts mode), never in the delivered figure of counts mode.
fn both_modes(
    alg: Algorithm,
    fault: FaultConfig,
    queries: &[(usize, &'static str)],
) -> [Network; 2] {
    let cmds = ef01_stream(queries, &[Command::Leave(7), Command::Stabilize(2)]);
    [true, false].map(|retain| {
        let config = EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(42)
            .with_fault(fault.clone())
            .with_retained_notifications(retain);
        replay(config, &cmds)
    })
}

#[test]
fn counts_mode_agrees_with_full_retention_under_faults() {
    for alg in Algorithm::ALL {
        let [full, counts] = both_modes(alg, FaultConfig::lossy(0.15, 77), TWO_SUBSCRIBERS);

        // Ground truth: full retention delivers exactly the oracle set
        // (inbox plus offline store), each notification exactly once.
        assert_oracle(&full, "full retention under faults");
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
        let [full, counts] = both_modes(alg, FaultConfig::default(), SEVERAL_QUERIES_EACH);
        assert_oracle(&full, "full retention");

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
fn staggered(alg: Algorithm, retain: bool, cmds: &[Command]) -> (Network, Arc<RingBufferSink>) {
    let mut net = Network::new(
        EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(7)
            .with_retained_notifications(retain),
        catalog(),
    );
    let sink = Arc::new(RingBufferSink::new(1 << 20));
    net.set_tracer(sink.clone());
    apply_all(&mut net, cmds);
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
        let cmds: Vec<Command> = (0..12)
            .flat_map(|i| {
                let poses = queries.iter().filter(move |q| q.1 == i);
                let from = (i % 20) as usize;
                poses
                    .map(|&(node, _, sql)| Command::pose(node, sql))
                    .chain([
                        Command::r(from, i % 6, i % 3),
                        Command::s((from + 3) % 20, 2 + i % 2, i % 3),
                    ])
            })
            .collect();
        let (full, full_trace) = staggered(alg, true, &cmds);
        let (counts, counts_trace) = staggered(alg, false, &cmds);
        assert_oracle(&full, "full retention");

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
