//! The v1 message bytes, pinned: `tests/fixtures/wire_v1.bin` is a run of
//! frames written by the hand-written message codec that preceded the
//! generated one (commit 2ec4e57) — one per [`Message`] kind, one
//! [`Message::Replicate`] per [`ReplicaItem`] kind, and a bundle of mixed
//! members. Every frame must decode, re-encode to the same bytes and report
//! the same [`encoded_len`]. Never regenerate the fixture from the current
//! build: it is the only check that compares encoded bytes with fixed ones.

use std::collections::BTreeSet;

use cq_engine::wire::{decode_message, encode_message, encoded_len};
use cq_engine::{Message, ReplicaItem};
use cq_relational::{Catalog, DataType, RelationSchema};

/// The catalog the fixture's queries and tuples were validated against.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Str)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("T", &[("E", DataType::Str), ("F", DataType::Int)]).unwrap())
        .unwrap();
    c
}

fn fixture() -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_v1.bin");
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn replica_kind(item: &ReplicaItem) -> &'static str {
    match item {
        ReplicaItem::Query(_) => "query",
        ReplicaItem::Rewritten(_) => "rewritten",
        ReplicaItem::Tuple(_) => "tuple",
        ReplicaItem::ValueTuple { .. } => "value-tuple",
        ReplicaItem::Offline { .. } => "offline",
    }
}

#[test]
fn every_v1_frame_re_encodes_byte_for_byte() {
    let c = catalog();
    let bytes = fixture();
    let (mut kinds, mut replica_kinds, mut bundle_kinds) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    let (mut at, mut frames) = (0, 0);
    while at < bytes.len() {
        let (msg, used) = decode_message(&bytes[at..], &c)
            .unwrap_or_else(|e| panic!("frame {frames} at byte {at}: {e}"));
        let frame = &bytes[at..at + used];
        let mut again = Vec::new();
        encode_message(&msg, &mut again);
        assert_eq!(again, frame, "frame {frames} ({}) re-encodes", msg.kind());
        assert_eq!(encoded_len(&msg), used as u64, "frame {frames} length");
        kinds.insert(msg.kind());
        match &msg {
            Message::Replicate { item } => {
                replica_kinds.insert(replica_kind(item));
            }
            Message::Bundle(members) => bundle_kinds.extend(members.iter().map(Message::kind)),
            _ => {}
        }
        at += used;
        frames += 1;
    }
    assert_eq!(frames, 15, "frame count");
    assert_eq!(kinds, Message::KINDS.into_iter().collect(), "every kind");
    assert_eq!(replica_kinds.len(), 5, "every replica-item kind");
    assert!(bundle_kinds.len() >= 3, "a bundle of mixed members");
}
