//! Property-based checks of the wire codec: encode∘decode is the identity
//! over randomized instances of every [`Message`] and [`TraceEvent`]
//! variant, `encoded_len` is byte-exact, and malformed message and
//! trace-event frames — truncated, bit-flipped, or version-bumped — are
//! rejected with a typed [`EngineError::Protocol`], never a panic. A
//! receiver's [`QueryInterner`] must be invisible in all of it: same values,
//! same error details, no aliasing across distinct bytes, never more than
//! [`INTERN_CAP`] entries.
//!
//! Generation is seed-driven: the strategies pick a variant index and a
//! `u64` seed, and a seeded [`StdRng`] expands them into a fully random
//! instance. That keeps the generators readable while still exercising the
//! whole variant space (every case runs each variant index explicitly).

use std::sync::Arc;

use cq_engine::wire::{
    decode_message, decode_message_interned, decode_trace_event, encode_message,
    encode_trace_event, encoded_len, QueryInterner, INTERN_CAP, VERSION,
};
use cq_engine::{EngineError, Message, ReplicaItem, TraceEvent, ValueJoin};
use cq_overlay::Id;
use cq_relational::{
    Catalog, DataType, Expr, Filter, JoinQuery, Notification, QueryKey, QueryRef, QuerySpec,
    RelationSchema, RelationalError, RewrittenQuery, SelectItem, Side, Timestamp, Tuple, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MESSAGE_VARIANTS: usize = Message::KINDS.len();
const TRACE_VARIANTS: usize = TraceEvent::KINDS.len();

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Str)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c
}

fn rand_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..8usize);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
        .collect()
}

fn rand_value(rng: &mut StdRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen_range(-1000i64..1000)),
        DataType::Str => Value::Str(rand_name(rng)),
    }
}

/// A random valid query over R ⋈ S (join condition on the Int attributes,
/// optionally through arithmetic; random select list and filters).
fn rand_query(rng: &mut StdRng, c: &Catalog) -> QueryRef {
    let subscriber = rand_name(rng);
    let cond = |rng: &mut StdRng, attr: &str| {
        if rng.gen_bool(0.5) {
            Expr::attr(attr)
        } else {
            Expr::bin(
                cq_relational::BinOp::Add,
                Expr::attr(attr),
                Expr::int(rng.gen_range(-5i64..5)),
            )
        }
    };
    let mut select = Vec::new();
    if rng.gen_bool(0.7) {
        select.push(SelectItem {
            side: Side::Left,
            attr: "B".into(),
        });
    }
    select.push(SelectItem {
        side: Side::Right,
        attr: "D".into(),
    });
    let mut filters = Vec::new();
    if rng.gen_bool(0.4) {
        filters.push(Filter {
            side: Side::Right,
            attr: "D".into(),
            value: Value::Int(rng.gen_range(-10i64..10)),
        });
    }
    let left = cond(rng, "A");
    let right = cond(rng, "C");
    Arc::new(
        JoinQuery::new(
            QuerySpec {
                key: QueryKey::derive(&subscriber, rng.gen_range(0..100)),
                subscriber,
                ins_time: Timestamp(rng.gen_range(0..1 << 40)),
                relations: ["R".into(), "S".into()],
                select,
                conditions: [left, right],
                filters,
            },
            c,
        )
        .expect("generated query is valid"),
    )
}

fn rand_tuple(rng: &mut StdRng, c: &Catalog) -> Arc<Tuple> {
    let rel = if rng.gen_bool(0.5) { "R" } else { "S" };
    let schema = c.get(rel).unwrap().clone();
    let values = schema
        .attributes()
        .iter()
        .map(|a| rand_value(rng, a.ty))
        .collect();
    Arc::new(
        Tuple::new(
            schema,
            values,
            Timestamp(rng.gen_range(0..1 << 40)),
            rng.gen(),
        )
        .unwrap(),
    )
}

fn rand_rewritten(rng: &mut StdRng, c: &Catalog) -> RewrittenQuery {
    let query = rand_query(rng, c);
    let bound_side = if rng.gen_bool(0.5) {
        Side::Left
    } else {
        Side::Right
    };
    let bound_values = (0..rng.gen_range(0..3usize))
        .map(|_| {
            let ty = if rng.gen_bool(0.5) {
                DataType::Int
            } else {
                DataType::Str
            };
            rand_value(rng, ty)
        })
        .collect();
    let target_attr = rng.gen_bool(0.5).then(|| rand_name(rng));
    RewrittenQuery::from_parts(
        query,
        bound_side,
        bound_values,
        target_attr.as_deref(),
        rand_value(rng, DataType::Int),
        Timestamp(rng.gen_range(0..1 << 40)),
    )
}

fn rand_notification(rng: &mut StdRng) -> Notification {
    let subscriber = rand_name(rng);
    let values = (0..rng.gen_range(0..4usize))
        .map(|_| {
            let ty = if rng.gen_bool(0.5) {
                DataType::Int
            } else {
                DataType::Str
            };
            rand_value(rng, ty)
        })
        .collect();
    Notification {
        query_key: QueryKey::derive(&subscriber, rng.gen_range(0..100)),
        subscriber,
        values,
    }
}

fn rand_replica_item(rng: &mut StdRng, c: &Catalog) -> ReplicaItem {
    use cq_engine::tables::{StoredQuery, StoredRewritten, StoredTuple, StoredValueTuple};
    match rng.gen_range(0..5u32) {
        0 => ReplicaItem::Query(StoredQuery {
            index_id: Id(rng.gen()),
            query: rand_query(rng, c),
            index_side: Side::Left,
            index_attr: rand_name(rng),
        }),
        1 => ReplicaItem::Rewritten(StoredRewritten {
            index_id: Id(rng.gen()),
            rq: rand_rewritten(rng, c),
        }),
        2 => ReplicaItem::Tuple(StoredTuple {
            index_id: Id(rng.gen()),
            attr: rand_name(rng),
            tuple: rand_tuple(rng, c),
        }),
        3 => ReplicaItem::ValueTuple {
            group: rand_name(rng),
            value_key: rand_name(rng).as_str().into(),
            entry: StoredValueTuple {
                index_id: Id(rng.gen()),
                side: Side::Right,
                tuple: rand_tuple(rng, c),
            },
        },
        _ => ReplicaItem::Offline {
            id: Id(rng.gen()),
            notification: rand_notification(rng),
        },
    }
}

/// A random message of the given variant (`variant` ∈ `0..MESSAGE_VARIANTS`,
/// in [`Message::kind_index`] order).
fn rand_message(variant: usize, rng: &mut StdRng, c: &Catalog) -> Message {
    match variant {
        0 => Message::IndexQuery {
            query: rand_query(rng, c),
            index_side: Side::Right,
            index_attr: rand_name(rng),
            index_id: Id(rng.gen()),
        },
        1 => Message::AlIndexTuple {
            tuple: rand_tuple(rng, c),
            attr: rand_name(rng),
            index_id: Id(rng.gen()),
        },
        2 => Message::VlIndexTuple {
            tuple: rand_tuple(rng, c),
            attr: rand_name(rng),
            index_id: Id(rng.gen()),
        },
        3 => Message::Join {
            items: (0..rng.gen_range(0..3usize))
                .map(|_| rand_rewritten(rng, c))
                .collect(),
            index_id: Id(rng.gen()),
        },
        4 => Message::JoinV(Box::new(ValueJoin {
            group: rand_name(rng),
            items: (0..rng.gen_range(0..3usize))
                .map(|_| rand_rewritten(rng, c))
                .collect(),
            tuple: rand_tuple(rng, c),
            side: Side::Left,
            value_key: rand_name(rng).as_str().into(),
            index_id: Id(rng.gen()),
        })),
        5 => Message::StoreNotifications {
            subscriber_id: Id(rng.gen()),
            notifications: (0..rng.gen_range(0..4usize))
                .map(|_| rand_notification(rng))
                .collect(),
        },
        6 => Message::Notify {
            notifications: (0..rng.gen_range(1..4usize))
                .map(|_| rand_notification(rng))
                .collect(),
        },
        7 => Message::Replicate {
            item: Box::new(rand_replica_item(rng, c)),
        },
        8 => Message::Ping {
            from: rng.gen(),
            seq: rng.gen(),
        },
        9 => Message::Pong {
            from: rng.gen(),
            seq: rng.gen(),
        },
        _ => Message::Bundle(
            (0..rng.gen_range(0..4usize))
                .map(|_| {
                    let inner = rng.gen_range(0..10usize); // bundles never nest
                    rand_message(inner, rng, c)
                })
                .collect(),
        ),
    }
}

/// A random trace event of the given variant (`variant` ∈
/// `0..TRACE_VARIANTS`, in [`TraceEvent::kind_index`] order).
fn rand_trace_event(variant: usize, rng: &mut StdRng) -> TraceEvent {
    let tick = rng.gen_range(0..1u64 << 40);
    let node = rng.gen_range(0..10_000u32);
    let id: (u32, u64) = (rng.gen_range(0..10_000), rng.gen());
    match variant {
        0 => TraceEvent::MsgSend {
            tick,
            node,
            id,
            to: rng.gen_range(0..10_000),
            target: Id(rng.gen()),
            kind: Message::KINDS[rng.gen_range(0..Message::KINDS.len())],
            path: if rng.gen_bool(0.5) {
                Some((0..rng.gen_range(0..6usize)).map(|_| rng.gen()).collect())
            } else {
                None
            },
        },
        1 => TraceEvent::MsgDeliver {
            tick,
            node,
            id,
            kind: Message::KINDS[rng.gen_range(0..Message::KINDS.len())],
        },
        2 => TraceEvent::FaultDrop { tick, node, id },
        3 => TraceEvent::FaultDuplicate { tick, node, id },
        4 => TraceEvent::FaultDelay {
            tick,
            node,
            id,
            extra: rng.gen(),
        },
        5 => TraceEvent::Retransmit {
            tick,
            node,
            id,
            attempt: rng.gen(),
        },
        6 => TraceEvent::DedupSuppressed { tick, node, id },
        7 => TraceEvent::NodeFailed { tick, node },
        8 => TraceEvent::IndexInsert {
            tick,
            node,
            table: TraceEvent::TABLES[rng.gen_range(0..TraceEvent::TABLES.len())],
            fresh: rng.gen_bool(0.5),
        },
        9 => TraceEvent::IndexRemove {
            tick,
            node,
            table: TraceEvent::TABLES[rng.gen_range(0..TraceEvent::TABLES.len())],
            removed: rng.gen(),
            reason: TraceEvent::REASONS[rng.gen_range(0..TraceEvent::REASONS.len())],
        },
        10 => TraceEvent::JoinEval {
            tick,
            node,
            candidates: rng.gen(),
            matches: rng.gen(),
        },
        11 => TraceEvent::NotifyDelivered {
            tick,
            node,
            count: rng.gen(),
            offline: rng.gen_bool(0.5),
        },
        12 => TraceEvent::Replicate {
            tick,
            node,
            to: rng.gen(),
        },
        13 => TraceEvent::Promote {
            tick,
            node,
            items: rng.gen(),
        },
        14 => {
            let mut name = rand_name(rng);
            if rng.gen_bool(0.3) {
                name.push('"');
                name.push('\n');
                name.push('λ');
            }
            TraceEvent::Phase { tick, name }
        }
        15 => TraceEvent::Suspect {
            tick,
            node,
            target: rng.gen(),
        },
        16 => TraceEvent::Confirm {
            tick,
            node,
            target: rng.gen(),
            dead: rng.gen_bool(0.5),
        },
        17 => TraceEvent::FalseSuspect {
            tick,
            node,
            target: rng.gen(),
        },
        18 => TraceEvent::DigestExchange {
            tick,
            node,
            to: rng.gen(),
            items: rng.gen(),
            missing: rng.gen(),
        },
        _ => TraceEvent::Repair {
            tick,
            node,
            to: rng.gen(),
            items: rng.gen(),
            bytes: rng.gen(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode∘decode = id for every message variant, and `encoded_len` is
    /// byte-exact. Identity is checked through the `Debug` form (messages
    /// hold `Arc`s, so no `PartialEq`).
    #[test]
    fn message_encoding_round_trips(seed in 0u64..1 << 48) {
        let c = catalog();
        for variant in 0..MESSAGE_VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed ^ ((variant as u64) << 48));
            let msg = rand_message(variant, &mut rng, &c);
            let mut buf = Vec::new();
            encode_message(&msg, &mut buf);
            prop_assert_eq!(buf.len() as u64, encoded_len(&msg), "variant {}", variant);
            let (back, used) = decode_message(&buf, &c).unwrap();
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
    }

    /// encode∘decode = id for every trace-event variant, in both the binary
    /// and the JSONL encoding.
    #[test]
    fn trace_event_encoding_round_trips(seed in 0u64..1 << 48) {
        for variant in 0..TRACE_VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed ^ ((variant as u64) << 48));
            let ev = rand_trace_event(variant, &mut rng);
            prop_assert_eq!(ev.kind_index(), variant);
            let mut buf = Vec::new();
            encode_trace_event(&ev, &mut buf);
            let (back, used) = decode_trace_event(&buf).unwrap();
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(&back, &ev);
            let mut line = String::new();
            ev.to_jsonl(&mut line);
            prop_assert_eq!(TraceEvent::parse_jsonl(&line), Some(ev), "{}", line);
        }
    }

    /// Every truncation of a valid frame is rejected with a typed
    /// `Protocol` error — no panic, no partial value.
    #[test]
    fn truncated_frames_are_rejected(seed in 0u64..1 << 48, variant in 0usize..MESSAGE_VARIANTS) {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = rand_message(variant, &mut rng, &c);
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        for cut in 0..buf.len() {
            match decode_message(&buf[..cut], &c) {
                Err(EngineError::Protocol { .. }) => {}
                other => prop_assert!(false, "cut at {}: {:?}", cut, other.map(|(m, _)| m.kind())),
            }
        }
        // `.trace` files cross the same trust boundary (`trace_dump`).
        for variant in 0..TRACE_VARIANTS {
            let ev = rand_trace_event(variant, &mut rng);
            let mut buf = Vec::new();
            encode_trace_event(&ev, &mut buf);
            for cut in 0..buf.len() {
                match decode_trace_event(&buf[..cut]) {
                    Err(EngineError::Protocol { .. }) => {}
                    other => prop_assert!(false, "{} cut at {}: {:?}", ev.kind(), cut, other),
                }
            }
        }
    }

    /// Corrupting any single byte of a frame either still decodes to *some*
    /// value or fails with a typed `Protocol` error — it never panics.
    #[test]
    fn corrupt_frames_never_panic(
        seed in 0u64..1 << 48,
        variant in 0usize..MESSAGE_VARIANTS,
        pos_seed in 0u64..1 << 32,
        flip in 1u32..256,
    ) {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = rand_message(variant, &mut rng, &c);
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= flip as u8;
        let _ = decode_message(&buf, &c); // Ok or Err(Protocol), never a panic
        for variant in 0..TRACE_VARIANTS {
            let ev = rand_trace_event(variant, &mut rng);
            let mut buf = Vec::new();
            encode_trace_event(&ev, &mut buf);
            let pos = (pos_seed as usize) % buf.len();
            buf[pos] ^= flip as u8;
            match decode_trace_event(&buf) {
                Ok(_) | Err(EngineError::Protocol { .. }) => {}
                Err(other) => prop_assert!(false, "{} byte {}: {}", ev.kind(), pos, other),
            }
        }
    }

    /// A receiver's interner changes nothing observable: over a message
    /// sequence in which every query recurs (bundles included), and over
    /// every truncation and a corruption of each frame, decoding with the
    /// interner yields the same value or the same `Protocol` detail as
    /// decoding without — while the interner is warm, so hits are followed
    /// by truncated and corrupted bytes too.
    #[test]
    fn interned_decoding_is_indistinguishable(seed in 0u64..1 << 48, flip in 1u32..256) {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frames: Vec<Vec<u8>> = (0..12)
            .map(|_| {
                let msg = rand_message(rng.gen_range(0..MESSAGE_VARIANTS), &mut rng, &c);
                let mut buf = Vec::new();
                encode_message(&msg, &mut buf);
                buf
            })
            .collect();
        // Second pass, reversed: every query in it has been decoded before.
        frames.extend(frames.clone().into_iter().rev());
        let mut queries = QueryInterner::new();
        let outcome = |r: cq_engine::Result<(Message, usize)>| format!("{r:?}");
        for buf in &frames {
            prop_assert_eq!(
                outcome(decode_message_interned(buf, &c, &mut queries)),
                outcome(decode_message(buf, &c))
            );
            for cut in 0..buf.len() {
                let interned = decode_message_interned(&buf[..cut], &c, &mut queries);
                let typed = matches!(interned, Err(EngineError::Protocol { .. }));
                prop_assert!(typed, "cut at {}", cut);
                prop_assert_eq!(outcome(interned), outcome(decode_message(&buf[..cut], &c)), "cut at {}", cut);
            }
            let mut bad = buf.clone();
            let pos = rng.gen_range(0..bad.len());
            bad[pos] ^= flip as u8;
            prop_assert_eq!(
                outcome(decode_message_interned(&bad, &c, &mut queries)),
                outcome(decode_message(&bad, &c)),
                "byte {} flipped", pos
            );
            prop_assert!(queries.len() <= INTERN_CAP);
        }
    }

    /// Any version byte other than the current one is rejected.
    #[test]
    fn version_mismatch_is_rejected(seed in 0u64..1 << 48, bump in 1u32..256) {
        let c = catalog();
        let mut rng = StdRng::seed_from_u64(seed);
        let msg = rand_message(0, &mut rng, &c);
        let mut buf = Vec::new();
        encode_message(&msg, &mut buf);
        buf[4] = VERSION.wrapping_add(bump as u8);
        match decode_message(&buf, &c) {
            Err(EngineError::Protocol { detail }) => {
                prop_assert!(detail.contains("unsupported wire version"), "{}", detail);
            }
            other => prop_assert!(false, "{:?}", other.map(|(m, _)| m.kind())),
        }
    }
}

/// The first tag past the schema table is not an event kind.
#[test]
fn trace_tag_past_the_last_kind_is_rejected() {
    let mut buf = Vec::new();
    encode_trace_event(&TraceEvent::NodeFailed { tick: 1, node: 2 }, &mut buf);
    buf[5] = TraceEvent::KINDS.len() as u8; // length prefix (4) + version (1), then the tag
    match decode_trace_event(&buf) {
        Err(EngineError::Protocol { detail }) => {
            assert!(detail.contains("invalid trace-event tag"), "{detail}")
        }
        other => panic!("{other:?}"),
    }
}

/// The engine never nests bundles, so a decoder refuses a bundle whose
/// member is a bundle — built here by hand, since no encoder path makes one.
#[test]
fn a_bundle_inside_a_bundle_is_rejected() {
    let bundle = Message::KINDS.iter().position(|k| *k == "bundle").unwrap() as u8;
    let mut body = vec![VERSION, bundle];
    body.extend_from_slice(&1u32.to_le_bytes()); // one member ...
    body.push(bundle); // ... which is itself a bundle
    body.extend_from_slice(&0u32.to_le_bytes());
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    match decode_message(&frame, &catalog()) {
        Err(EngineError::Protocol { detail }) => assert!(detail.contains("nested"), "{detail}"),
        other => panic!("{:?}", other.map(|(m, _)| m)),
    }
    // The same frame with an empty outer bundle decodes.
    let mut flat = 6u32.to_le_bytes().to_vec();
    flat.extend_from_slice(&[VERSION, bundle, 0, 0, 0, 0]);
    assert!(
        matches!(decode_message(&flat, &catalog()), Ok((Message::Bundle(m), 10)) if m.is_empty())
    );
}

/// A rewriting binds one value per select item of its bound side. A frame
/// may carry any count — `wire_v1.bin` holds rewritings that bind fewer and
/// more, and decodes — so a decoded rewriting that binds fewer (its
/// notification would have nothing to put in that item's place) or more
/// fails with a typed error when a tuple matches it, and never panics.
#[test]
fn a_rewriting_binding_the_wrong_count_fails_typed_when_matched() {
    let c = catalog();
    // SELECT R.B, S.D FROM R, S WHERE R.A = S.C, rewritten by an R tuple:
    // it binds R.B.
    let query = Arc::new(
        JoinQuery::new(
            QuerySpec {
                key: QueryKey::derive("n", 0),
                subscriber: "n".into(),
                ins_time: Timestamp(0),
                relations: ["R".into(), "S".into()],
                select: vec![
                    SelectItem {
                        side: Side::Left,
                        attr: "B".into(),
                    },
                    SelectItem {
                        side: Side::Right,
                        attr: "D".into(),
                    },
                ],
                conditions: [Expr::attr("A"), Expr::attr("C")],
                filters: vec![],
            },
            &c,
        )
        .unwrap(),
    );
    let tuple = Tuple::new(
        c.get("R").unwrap().clone(),
        vec![Value::Int(7), "bound-marker".into()],
        Timestamp(1),
        0,
    )
    .unwrap();
    let rq = RewrittenQuery::rewrite_attribute(&query, Side::Left, "A", "C", &tuple)
        .unwrap()
        .unwrap();
    let mut frame = Vec::new();
    encode_message(
        &Message::Join {
            items: vec![rq],
            index_id: Id(3),
        },
        &mut frame,
    );
    let decoded = |frame: &[u8]| match decode_message(frame, &c) {
        Ok((Message::Join { mut items, .. }, _)) => items.pop().unwrap(),
        other => panic!("{:?}", other.map(|(m, _)| m)),
    };
    let s = Tuple::new(
        c.get("S").unwrap().clone(),
        vec![Value::Int(7), Value::Int(3)],
        Timestamp(2),
        1,
    )
    .unwrap();
    let n = decoded(&frame).match_tuple(&s).unwrap().unwrap();
    assert_eq!(n.values, vec!["bound-marker".into(), Value::Int(3)]);
    // The bound value: a `Str` tag, its length, its text — after its list's
    // `u32` count of 1.
    let mut value = vec![1u8];
    value.extend_from_slice(&12u32.to_le_bytes());
    value.extend_from_slice(b"bound-marker");
    let at = frame
        .windows(value.len())
        .position(|w| w == value.as_slice())
        .unwrap();
    assert_eq!(frame[at - 4..at], 1u32.to_le_bytes());
    for count in [0u32, 2] {
        let mut bad = frame[..at - 4].to_vec();
        bad.extend_from_slice(&count.to_le_bytes());
        for _ in 0..count {
            bad.extend_from_slice(&value);
        }
        bad.extend_from_slice(&frame[at + value.len()..]);
        let body_len = (bad.len() - 4) as u32;
        bad[..4].copy_from_slice(&body_len.to_le_bytes());
        let rq = decoded(&bad);
        assert_eq!(rq.bound_values().len(), count as usize);
        match rq.match_tuple(&s) {
            Err(RelationalError::SchemaMismatch { detail, .. }) => {
                assert!(
                    detail.contains(&format!("binds {count} values")),
                    "{detail}"
                )
            }
            other => panic!("{count} values: {other:?}"),
        }
    }
}

fn index_query(query: &QueryRef) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_message(
        &Message::IndexQuery {
            query: Arc::clone(query),
            index_side: Side::Left,
            index_attr: "A".into(),
            index_id: Id(1),
        },
        &mut buf,
    );
    buf
}

fn decoded_query(buf: &[u8], c: &Catalog, queries: &mut QueryInterner) -> QueryRef {
    match decode_message_interned(buf, c, queries).unwrap().0 {
        Message::IndexQuery { query, .. } => query,
        other => panic!("{other:?}"),
    }
}

/// Equal bytes share one decoded query wherever they occur — a bare
/// `IndexQuery`, inside rewritten queries, inside a bundle — while the
/// public decoder never shares.
#[test]
fn a_repeated_query_is_decoded_once() {
    let c = catalog();
    let mut rng = StdRng::seed_from_u64(15);
    let rq = rand_rewritten(&mut rng, &c);
    let mut buf = Vec::new();
    encode_message(
        &Message::Bundle(vec![
            Message::Join {
                items: vec![rq.clone(), rq.clone()],
                index_id: Id(2),
            },
            Message::Ping { from: 1, seq: 1 },
        ]),
        &mut buf,
    );
    let mut queries = QueryInterner::new();
    let first = decoded_query(&index_query(rq.query()), &c, &mut queries);
    let (Message::Bundle(members), _) = decode_message_interned(&buf, &c, &mut queries).unwrap()
    else {
        panic!("a bundle")
    };
    let Message::Join { items, .. } = &members[0] else {
        panic!("a join")
    };
    assert_eq!(items.len(), 2);
    for item in items {
        assert!(Arc::ptr_eq(item.query(), &first));
        assert_eq!(format!("{item:?}"), format!("{rq:?}"));
    }
    assert_eq!(queries.len(), 1);

    let (Message::Bundle(members), _) = decode_message(&buf, &c).unwrap() else {
        panic!("a bundle")
    };
    let Message::Join { items, .. } = &members[0] else {
        panic!("a join")
    };
    assert!(!Arc::ptr_eq(items[0].query(), items[1].query()));
}

/// The interner is keyed by content, not by `QueryKey`: two queries that
/// claim the same key but differ in any byte stay two queries.
#[test]
fn same_key_different_bytes_never_alias() {
    let c = catalog();
    let spec = |ins_time: u64, filter: i64| QuerySpec {
        key: QueryKey::derive("n1", 0),
        subscriber: "n1".into(),
        ins_time: Timestamp(ins_time),
        relations: ["R".into(), "S".into()],
        select: vec![SelectItem {
            side: Side::Right,
            attr: "D".into(),
        }],
        conditions: [Expr::attr("A"), Expr::attr("C")],
        filters: vec![Filter {
            side: Side::Right,
            attr: "D".into(),
            value: Value::Int(filter),
        }],
    };
    let variants: Vec<QueryRef> = [(3, 9), (4, 9), (3, 8)]
        .into_iter()
        .map(|(t, f)| Arc::new(JoinQuery::new(spec(t, f), &c).unwrap()))
        .collect();
    let mut queries = QueryInterner::new();
    let mut decoded = Vec::new();
    for _ in 0..2 {
        for q in &variants {
            let back = decoded_query(&index_query(q), &c, &mut queries);
            assert_eq!(back.key(), variants[0].key());
            assert_eq!(format!("{back:?}"), format!("{q:?}"));
            decoded.push(back);
        }
    }
    assert_eq!(queries.len(), 3);
    for i in 0..3 {
        assert!(Arc::ptr_eq(&decoded[i], &decoded[i + 3]));
        assert!(!Arc::ptr_eq(&decoded[i], &decoded[(i + 1) % 3]));
    }
}

/// The entry cap holds under a stream of distinct valid queries, decoding
/// stays correct across the clear, and queries handed out before it live on.
#[test]
fn the_interner_never_exceeds_its_cap() {
    let c = catalog();
    let mut rng = StdRng::seed_from_u64(7);
    let mut queries = QueryInterner::new();
    let first = rand_query(&mut rng, &c);
    let held = decoded_query(&index_query(&first), &c, &mut queries);
    let mut peak = 0;
    for _ in 0..INTERN_CAP + 64 {
        let q = rand_query(&mut rng, &c);
        let back = decoded_query(&index_query(&q), &c, &mut queries);
        assert_eq!(format!("{back:?}"), format!("{q:?}"));
        assert!(queries.len() <= INTERN_CAP);
        peak = peak.max(queries.len());
    }
    assert_eq!(peak, INTERN_CAP, "distinct queries must fill the table");
    assert!(queries.len() < INTERN_CAP, "and a full table starts over");
    assert_eq!(format!("{held:?}"), format!("{first:?}"));
}
