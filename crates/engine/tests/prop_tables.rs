//! Property tests for the node-local tables: `extract_where` must
//! partition — every entry either stays or moves, nothing is lost or
//! duplicated — because churn-time key transfer is built on it; and the
//! VLQT must behave like its obvious model (a `Vec` of entries plus a set of
//! keys per `(relation, attribute, value)`) under any interleaving of
//! inserts, extractions and re-inserts, dedup-index collisions included.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cq_engine::tables::keys::FirstIndex;
use cq_engine::tables::{Alqt, StoredQuery, StoredRewritten, StoredTuple, Vlqt, Vltt};
use cq_overlay::Id;
use cq_relational::{
    Catalog, DataType, Expr, JoinQuery, QueryKey, QueryRef, QuerySpec, RelationSchema,
    RewrittenQuery, SelectItem, Side, Timestamp, Tuple, Value,
};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c
}

// ---------------------------------------------------------------------------
// VLQT against its model
// ---------------------------------------------------------------------------

/// `T(A str, B int) ⋈ U(C int, D str)` on `T.B = U.C`, selecting both
/// strings: a rewriting's key is `"n#0/" + side + "+s:" + string + "+i:" +
/// join value`, so the bound string steers the key.
fn string_catalog() -> (Catalog, QueryRef) {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("T", &[("A", DataType::Str), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("U", &[("C", DataType::Int), ("D", DataType::Str)]).unwrap())
        .unwrap();
    let select = |side, attr: &str| SelectItem {
        side,
        attr: attr.into(),
    };
    let q = JoinQuery::new(
        QuerySpec {
            key: QueryKey::derive("n", 0),
            subscriber: "n".into(),
            ins_time: Timestamp(0),
            relations: ["T".into(), "U".into()],
            select: vec![select(Side::Left, "A"), select(Side::Right, "D")],
            conditions: [Expr::attr("B"), Expr::attr("C")],
            filters: vec![],
        },
        &c,
    )
    .unwrap();
    (c, Arc::new(q))
}

/// The rewriting of `q` by a tuple of `side` carrying `(string, join)`.
fn string_rewriting(
    c: &Catalog,
    q: &QueryRef,
    side: Side,
    string: &str,
    join: i64,
) -> RewrittenQuery {
    let (rel, values, index_attr, dis_attr) = match side {
        Side::Left => ("T", vec![string.into(), Value::Int(join)], "B", "C"),
        Side::Right => ("U", vec![Value::Int(join), string.into()], "C", "B"),
    };
    let t = Tuple::new(c.get(rel).unwrap().clone(), values, Timestamp(1), 0).unwrap();
    RewrittenQuery::rewrite_attribute(q, side, index_attr, dis_attr, &t)
        .unwrap()
        .expect("no filters, fresh tuple")
}

/// Two 16-byte ASCII strings whose left-side rewritings share their
/// dedup-index hash ([`FirstIndex::hash`]) for every join value.
///
/// The Fx hash folds a key 8 bytes at a time, `h' = (rotl(h, 5) ^ word) * K`,
/// and the key's first 8 bytes are the fixed `"n#0/L+s:"`. Two strings that
/// differ in their first word leave states `h1 != h2`; a second word chosen
/// as `w ^ rotl(h1, 5) ^ rotl(h2, 5)` cancels the difference, after which
/// the keys' equal tails keep the states equal. The search only has to find
/// a first word for which that second word is ASCII. This mirrors
/// `cq_fasthash`; the caller checks the outcome through the table's own
/// hash, so a change of hash function fails there, not silently.
fn colliding_strings() -> [String; 2] {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |state: u64, word: u64| (state.rotate_left(5) ^ word).wrapping_mul(K);
    let word = |s: &str| u64::from_le_bytes(s.as_bytes().try_into().expect("8 bytes"));
    let after_prefix = step(0, word("n#0/L+s:"));
    let (first, second) = ("aaaaaaaa", "bbbbbbbb");
    let h1 = step(after_prefix, word(first));
    for i in 0..1_000_000u32 {
        // Fastest-changing digit first: a word's low bytes (the string's
        // first characters) decide the low bits of every top-bit-of-a-byte.
        let other_first: String = format!("{i:08}").chars().rev().collect();
        let h2 = step(after_prefix, word(&other_first));
        let cancel = h1.rotate_left(5) ^ h2.rotate_left(5);
        if cancel & 0x8080_8080_8080_8080 == 0 {
            let other_second = (word(second) ^ cancel).to_le_bytes();
            let other_second = std::str::from_utf8(&other_second).expect("ASCII");
            return [
                format!("{first}{second}"),
                format!("{other_first}{other_second}"),
            ];
        }
    }
    panic!("no ASCII cancelling word in a million tries (expected one in 256)");
}

#[test]
fn the_collision_the_model_test_relies_on_is_real() {
    let (c, q) = string_catalog();
    let [s1, s2] = colliding_strings();
    assert_ne!(s1, s2);
    for join in [0, 7, -3] {
        let a = string_rewriting(&c, &q, Side::Left, &s1, join);
        let b = string_rewriting(&c, &q, Side::Left, &s2, join);
        assert_ne!(a.key(), b.key());
        assert_eq!(
            FirstIndex::hash(a.key()),
            FirstIndex::hash(b.key()),
            "the dedup index's hash changed: rebuild `colliding_strings` for it"
        );
    }
}

/// The model of one value bucket: what was stored, in order, and the keys.
#[derive(Default)]
struct ModelBucket {
    entries: Vec<(String, Id)>,
    keys: BTreeSet<String>,
}

type Model = BTreeMap<(&'static str, &'static str, i64), ModelBucket>;

fn model_insert(model: &mut Model, e: &StoredRewritten, join: i64) -> bool {
    let at = match e.rq.free_side() {
        Side::Left => ("T", "B", join),
        Side::Right => ("U", "C", join),
    };
    let bucket = model.entry(at).or_default();
    let fresh = bucket.keys.insert(e.rq.key().to_string());
    if fresh {
        bucket.entries.push((e.rq.key().to_string(), e.index_id));
    }
    fresh
}

fn model_extract(model: &mut Model, pred: impl Fn(Id) -> bool) -> Vec<(String, Id)> {
    let mut out = Vec::new();
    for bucket in model.values_mut() {
        let (gone, kept) = std::mem::take(&mut bucket.entries)
            .into_iter()
            .partition(|(_, id)| pred(*id));
        bucket.entries = kept;
        for (key, _) in &gone {
            bucket.keys.remove(key);
        }
        out.extend(gone);
    }
    out
}

fn join_of(e: &StoredRewritten) -> i64 {
    e.rq.target().value().as_int().expect("int join attribute")
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vlqt_agrees_with_its_model(
        ops in prop::collection::vec((0u8..10, 0u64..64, 0u64..64), 1..120),
    ) {
        let (c, q) = string_catalog();
        let [s1, s2] = colliding_strings();
        let strings = [s1.as_str(), s2.as_str(), "x", "y", ""];
        let mut table = Vlqt::new();
        let mut model = Model::new();
        // What extractions took out, to be put back by a later op.
        let mut parked: Vec<StoredRewritten> = Vec::new();

        for (op, a, b) in ops {
            match op {
                // Insert, through either entry point; small domains make
                // duplicates (and both colliding keys in one bucket) common.
                0..=6 => {
                    let side = if (a / 5) % 4 == 0 { Side::Right } else { Side::Left };
                    let join = (b % 3) as i64;
                    let rq = string_rewriting(&c, &q, side, strings[(a % 5) as usize], join);
                    let entry = StoredRewritten { index_id: Id(b % 8), rq };
                    let expect = model_insert(&mut model, &entry, join);
                    let got = if op % 2 == 0 {
                        table.insert(entry).unwrap()
                    } else {
                        let key = entry.rq.key().to_string();
                        let stored = table.insert_fresh(entry).unwrap();
                        prop_assert!(stored.is_none_or(|e| e.rq.key() == key));
                        stored.is_some()
                    };
                    prop_assert_eq!(got, expect, "dedup verdict");
                }
                7 => {
                    let pred = |id: Id| id.0 % 4 == a % 4;
                    let gone = table.extract_where(pred);
                    let expect = model_extract(&mut model, pred);
                    prop_assert_eq!(
                        sorted(gone.iter().map(|e| (e.rq.key().to_string(), e.index_id)).collect()),
                        sorted(expect)
                    );
                    parked.extend(gone);
                }
                8 => {
                    let gone = table.drain_all();
                    let expect = model_extract(&mut model, |_| true);
                    prop_assert_eq!(gone.len(), expect.len());
                    prop_assert!(table.is_empty());
                    parked.extend(gone);
                }
                _ => {
                    for e in parked.drain(..) {
                        let expect = model_insert(&mut model, &e, join_of(&e));
                        prop_assert_eq!(table.insert(e).unwrap(), expect, "re-insert verdict");
                    }
                }
            }

            prop_assert_eq!(table.len(), model.values().map(|b| b.entries.len()).sum::<usize>());
            for ((rel, attr, join), bucket) in &model {
                let value_key = Value::Int(*join).canonical();
                let scanned: Vec<&str> =
                    table.candidates(rel, attr, &value_key).map(|e| e.rq.key()).collect();
                let expect: Vec<&str> = bucket.entries.iter().map(|(k, _)| k.as_str()).collect();
                prop_assert_eq!(scanned, expect, "candidates() is insertion order");
                prop_assert_eq!(table.candidate_count(rel, attr, &value_key), bucket.entries.len());
            }
            prop_assert_eq!(
                sorted(table.entries().map(|e| e.rq.key()).collect()),
                sorted(model.values().flat_map(|b| b.keys.iter().map(String::as_str)).collect()),
                "entries() is a permutation of what is stored"
            );
        }
    }

    #[test]
    fn alqt_extract_partitions(
        ids in prop::collection::vec(0u64..16, 1..40),
        threshold in 0u64..16,
    ) {
        let c = catalog();
        let mut t = Alqt::new();
        for (i, &id) in ids.iter().enumerate() {
            let q = Arc::new(
                JoinQuery::new(
                    QuerySpec {
                        key: QueryKey::derive("n", i as u64),
                        subscriber: "n".into(),
                        ins_time: Timestamp(0),
                        relations: ["R".into(), "S".into()],
                        select: vec![SelectItem { side: Side::Left, attr: "A".into() }],
                        conditions: [Expr::attr("B"), Expr::attr("C")],
                        filters: vec![],
                    },
                    &c,
                )
                .unwrap(),
            );
            t.insert(StoredQuery {
                index_id: Id(id),
                query: q,
                index_side: Side::Left,
                index_attr: "B".into(),
            });
        }
        let before = t.len();
        let moved = t.extract_where(|id| id.0 < threshold);
        prop_assert_eq!(moved.len() + t.len(), before, "partition loses nothing");
        prop_assert!(moved.iter().all(|e| e.index_id.0 < threshold));
        // remaining entries all fail the predicate
        let rest = t.drain_all();
        prop_assert!(rest.iter().all(|e| e.index_id.0 >= threshold));
    }

    #[test]
    fn vltt_extract_partitions(
        ids in prop::collection::vec(0u64..16, 1..40),
        threshold in 0u64..16,
    ) {
        let c = catalog();
        let schema = c.get("R").unwrap().clone();
        let mut t = Vltt::new();
        for (i, &id) in ids.iter().enumerate() {
            let tuple = Arc::new(
                Tuple::new(
                    schema.clone(),
                    vec![Value::Int(i as i64), Value::Int((i % 5) as i64)],
                    Timestamp(0),
                    i as u64,
                )
                .unwrap(),
            );
            t.insert(StoredTuple { index_id: Id(id), attr: "B".into(), tuple }).unwrap();
        }
        let before = t.len();
        let moved = t.extract_where(|id| id.0 < threshold);
        prop_assert_eq!(moved.len() + t.len(), before);
        prop_assert!(moved.iter().all(|e| e.index_id.0 < threshold));
        let rest = t.drain_all();
        prop_assert!(rest.iter().all(|e| e.index_id.0 >= threshold));
    }
}
