//! The structured tracing layer observed end to end: causal ordering
//! invariants, DAI-V's two-phase value-hop path reconstructed event by
//! event from the trace alone, and both encodings pinned against the v1
//! fixtures. Trace *files* (the writer and `trace_dump`) are tested in
//! `crates/sim/tests/trace.rs`, beside them.

pub mod common;

use std::sync::Arc;

use common::{apply_all, catalog, Command, JOIN};
use cq_engine::{
    Algorithm, EngineConfig, FaultConfig, Message, Network, RingBufferSink, TraceEvent,
};
use cq_overlay::Id;
use cq_relational::Value;

/// One query, then interleaved `R`/`S` inserts from rotating nodes.
fn commands() -> Vec<Command> {
    let inserts = (0..8i64).flat_map(|i| {
        let from = i as usize;
        [
            Command::r(from % 16, i, i % 3),
            Command::s((from + 5) % 16, i, i % 2),
        ]
    });
    [Command::pose(0, JOIN)]
        .into_iter()
        .chain(inserts)
        .collect()
}

/// Stream-order invariants every trace must satisfy: a message is sent
/// before it is delivered (per `MsgId`), and notifications are only ever
/// delivered after join evaluations produced at least that many matches.
fn check_ordering(events: &[TraceEvent], context: &str) {
    let mut sent = std::collections::HashSet::new();
    let mut matches_so_far = 0u64;
    let mut delivered_so_far = 0u64;
    let mut notify_events = 0u64;
    for ev in events {
        match ev {
            TraceEvent::MsgSend { id, .. } => {
                sent.insert(*id);
            }
            TraceEvent::MsgDeliver { id, .. } => {
                assert!(sent.contains(id), "{context}: deliver of unsent {id:?}");
            }
            TraceEvent::JoinEval { matches, .. } => matches_so_far += matches,
            TraceEvent::NotifyDelivered { count, .. } => {
                delivered_so_far += count;
                notify_events += 1;
                assert!(
                    delivered_so_far <= matches_so_far,
                    "{context}: {delivered_so_far} notifications delivered but only \
                     {matches_so_far} join matches produced so far — delivery without \
                     a causal join event"
                );
            }
            _ => {}
        }
    }
    assert!(
        notify_events > 0,
        "{context}: workload must deliver matches"
    );
}

#[test]
fn ordering_invariants_hold_for_every_algorithm_under_faults() {
    for alg in Algorithm::ALL {
        let ring = Arc::new(RingBufferSink::new(1 << 20));
        let mut net = Network::new(
            EngineConfig::new(alg)
                .with_nodes(16)
                .with_seed(7)
                .with_fault(FaultConfig::lossy(0.15, 99)),
            catalog(),
        );
        net.set_tracer(ring.clone());
        apply_all(&mut net, &commands());
        let events = ring.events();
        assert!(
            events.iter().any(|e| e.kind() == "fault-drop"),
            "{alg}: the lossy profile must surface fault decisions in the trace"
        );
        check_ordering(&events, &format!("{alg} lossy"));
    }
}

#[test]
fn dai_v_two_phase_value_hop_path_is_visible_event_by_event() {
    // DAI-V ships a tuple to its attribute rewriter first (phase 1,
    // `al-index`), which rewrites to a value target and forwards a combined
    // `join-v` message to the evaluator (phase 2). The trace must show the
    // full causal chain: al-index deliver at X → join-v send *from* X with
    // its hop path → join-v deliver at Y → join evaluation at Y → and once
    // the other side arrives, a matched evaluation followed by an online
    // notification.
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiV)
            .with_nodes(16)
            .with_seed(7),
        catalog(),
    );
    net.set_tracer(ring.clone());
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    net.insert_tuple(net.node_at(3), "R", vec![Value::Int(1), Value::Int(7)])
        .unwrap();
    net.insert_tuple(net.node_at(9), "S", vec![Value::Int(2), Value::Int(7)])
        .unwrap();
    let events = ring.events();

    // Phase 1 → phase 2 hand-off: every join-v send originates at a node
    // that previously received an al-index message (the rewriter), and its
    // captured path starts at the rewriter and ends at the resolved
    // evaluator.
    let join_v_sends: Vec<_> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, TraceEvent::MsgSend { kind: "join-v", .. }))
        .collect();
    assert_eq!(
        join_v_sends.len(),
        2,
        "one value-hop per inserted tuple: {events:#?}"
    );
    for (pos, ev) in &join_v_sends {
        let TraceEvent::MsgSend {
            node, id, to, path, ..
        } = ev
        else {
            unreachable!()
        };
        assert!(
            events[..*pos].iter().any(
                |e| matches!(e, TraceEvent::MsgDeliver { kind: "al-index", node: n, .. } if n == node)
            ),
            "join-v sender {node} must have received an al-index message first"
        );
        assert_eq!(id.0, *node, "MsgId encodes the sending slot");
        let path = path.as_ref().expect("unicast sends capture their route");
        assert_eq!(path.first(), Some(node), "path starts at the rewriter");
        assert_eq!(path.last(), Some(to), "path ends at the evaluator");
    }

    // Delivery of a join-v is immediately followed by the evaluation it
    // triggers, on the same node (the handler runs synchronously).
    let mut evals = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if let TraceEvent::MsgDeliver {
            kind: "join-v",
            node,
            ..
        } = ev
        {
            match events.get(i + 1) {
                Some(TraceEvent::JoinEval {
                    node: n,
                    candidates,
                    matches,
                    ..
                }) => {
                    assert_eq!(n, node, "evaluation happens at the delivery node");
                    evals.push((*candidates, *matches));
                }
                other => panic!("join-v deliver not followed by JoinEval: {other:?}"),
            }
            // The evaluator stores the triggering tuple after matching.
            assert!(
                matches!(
                    events.get(i + 2),
                    Some(TraceEvent::IndexInsert {
                        table: "vstore",
                        ..
                    })
                ),
                "evaluator must store the tuple in its value store"
            );
        }
    }
    // First tuple finds an empty store; the second matches it.
    assert_eq!(evals, vec![(0, 0), (1, 1)]);

    // The match reaches the subscriber online, exactly once.
    let delivered: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NotifyDelivered { .. }))
        .collect();
    assert_eq!(
        delivered,
        vec![&TraceEvent::NotifyDelivered {
            tick: delivered.first().map(|e| e.tick()).unwrap_or_default(),
            node: a.index() as u32,
            count: 1,
            offline: false,
        }]
    );
    check_ordering(&events, "DAI-V two-phase");
}

/// The events pinned by `tests/fixtures/trace_v1.{jsonl,trace}`: one per
/// kind, the non-default twin of every boolean the JSONL form elides, a
/// `msg-send` with and without a route (one long enough to outgrow the
/// serializer's stack buffer), one event per label of every vocabulary,
/// extreme integers, and a phase name exercising every JSON escape.
fn fixture_events() -> Vec<TraceEvent> {
    let id = (5u32, 12u64);
    let mut evs = vec![
        TraceEvent::MsgSend {
            tick: 3,
            node: 5,
            id,
            to: 9,
            target: Id(0xDEAD_BEEF),
            kind: "join-v",
            path: Some(vec![5, 7, 9]),
        },
        TraceEvent::MsgSend {
            tick: 3,
            node: 5,
            id: (5, 13),
            to: 2,
            target: Id(7),
            kind: "al-index",
            path: None,
        },
        TraceEvent::MsgSend {
            tick: u64::MAX,
            node: u32::MAX,
            id: (u32::MAX, u64::MAX),
            to: u32::MAX,
            target: Id(u64::MAX),
            kind: "query",
            path: Some((0..100).map(|i| i * 40_000_000).collect()),
        },
        TraceEvent::MsgSend {
            tick: 0,
            node: 0,
            id: (0, 0),
            to: 0,
            target: Id(0),
            kind: "join",
            path: Some(Vec::new()),
        },
        TraceEvent::MsgDeliver {
            tick: 3,
            node: 9,
            id,
            kind: "join-v",
        },
        TraceEvent::FaultDrop {
            tick: 4,
            node: 9,
            id,
        },
        TraceEvent::FaultDuplicate {
            tick: 4,
            node: 9,
            id,
        },
        TraceEvent::FaultDelay {
            tick: 4,
            node: 9,
            id,
            extra: 3,
        },
        TraceEvent::Retransmit {
            tick: 6,
            node: 5,
            id,
            attempt: 2,
        },
        TraceEvent::DedupSuppressed {
            tick: 7,
            node: 9,
            id,
        },
        TraceEvent::NodeFailed { tick: 8, node: 4 },
        TraceEvent::IndexInsert {
            tick: 9,
            node: 1,
            table: "vlqt",
            fresh: true,
        },
        TraceEvent::IndexInsert {
            tick: 9,
            node: 1,
            table: "vlqt",
            fresh: false,
        },
        TraceEvent::IndexRemove {
            tick: 9,
            node: 4,
            table: "alqt",
            removed: 17,
            reason: "fail",
        },
        TraceEvent::JoinEval {
            tick: 10,
            node: 2,
            candidates: 8,
            matches: 3,
        },
        TraceEvent::NotifyDelivered {
            tick: 10,
            node: 0,
            count: 3,
            offline: false,
        },
        TraceEvent::NotifyDelivered {
            tick: 10,
            node: 0,
            count: 1,
            offline: true,
        },
        TraceEvent::Replicate {
            tick: 11,
            node: 2,
            to: 3,
        },
        TraceEvent::Promote {
            tick: 12,
            node: 3,
            items: 5,
        },
        TraceEvent::Phase {
            tick: 0,
            name: "install".to_string(),
        },
        TraceEvent::Phase {
            tick: 1 << 40,
            name: "q\"uote back\\slash new\nline bell\u{7} tab\t nul\u{0} λ→✓ \u{1F600}"
                .to_string(),
        },
        TraceEvent::Suspect {
            tick: 13,
            node: 6,
            target: 4,
        },
        TraceEvent::Confirm {
            tick: 15,
            node: 6,
            target: 4,
            dead: true,
        },
        TraceEvent::Confirm {
            tick: 15,
            node: 6,
            target: 7,
            dead: false,
        },
        TraceEvent::FalseSuspect {
            tick: 14,
            node: 6,
            target: 7,
        },
        TraceEvent::DigestExchange {
            tick: 16,
            node: 2,
            to: 3,
            items: 40,
            missing: 2,
        },
        TraceEvent::Repair {
            tick: 16,
            node: 2,
            to: 3,
            items: 2,
            bytes: 160,
        },
    ];
    for (i, kind) in Message::KINDS.iter().enumerate() {
        let tick = 100 + i as u64;
        evs.push(TraceEvent::MsgSend {
            tick,
            node: 1,
            id: (1, tick),
            to: 2,
            target: Id(tick << 20),
            kind,
            path: None,
        });
        evs.push(TraceEvent::MsgDeliver {
            tick,
            node: 2,
            id: (1, tick),
            kind,
        });
    }
    for (i, table) in TraceEvent::TABLES.iter().enumerate() {
        evs.push(TraceEvent::IndexInsert {
            tick: 200 + i as u64,
            node: 3,
            table,
            fresh: true,
        });
    }
    for (i, reason) in TraceEvent::REASONS.iter().enumerate() {
        evs.push(TraceEvent::IndexRemove {
            tick: 300 + i as u64,
            node: 3,
            table: TraceEvent::TABLES[i],
            removed: i as u64,
            reason,
        });
    }
    evs
}

/// Pins both trace encodings against files generated by the encoders of
/// commit af5338f (the last one with hand-written per-kind codecs): a
/// writer and reader that drift *together* pass every same-build round-trip
/// test, but cannot reproduce these bytes.
#[test]
fn both_encodings_reproduce_the_committed_v1_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let want_jsonl = std::fs::read_to_string(dir.join("trace_v1.jsonl")).unwrap();
    let want_binary = std::fs::read(dir.join("trace_v1.trace")).unwrap();
    let events = fixture_events();
    for (i, label) in TraceEvent::KINDS.iter().enumerate() {
        assert!(
            events.iter().any(|e| e.kind_index() == i),
            "fixture covers no {label} event"
        );
    }

    let mut jsonl = String::new();
    let mut binary = Vec::new();
    for ev in &events {
        ev.to_jsonl(&mut jsonl);
        jsonl.push('\n');
        cq_engine::wire::encode_trace_event(ev, &mut binary);
    }
    assert!(
        jsonl == want_jsonl,
        "JSONL encoder drifted from trace_v1.jsonl"
    );
    assert!(
        binary == want_binary,
        "binary encoder drifted from trace_v1.trace"
    );

    let parsed: Vec<TraceEvent> = want_jsonl
        .lines()
        .map(|l| TraceEvent::parse_jsonl(l).unwrap_or_else(|| panic!("unparseable: {l}")))
        .collect();
    assert_eq!(parsed, events, "JSONL decoder");
    let mut decoded = Vec::new();
    let mut pos = 0;
    while pos < want_binary.len() {
        let (ev, used) = cq_engine::wire::decode_trace_event(&want_binary[pos..])
            .unwrap_or_else(|e| panic!("bad fixture frame at byte {pos}: {e}"));
        pos += used;
        decoded.push(ev);
    }
    assert_eq!(decoded, events, "binary decoder");
}
