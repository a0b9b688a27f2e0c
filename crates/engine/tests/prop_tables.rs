//! Property tests for the node-local tables: `extract_where` must
//! partition — every entry either stays or moves, nothing is lost or
//! duplicated — because churn-time key transfer is built on it; the VLQT
//! must behave like its obvious model (a `Vec` of entries per `(relation,
//! attribute, value)`, searched by identity) under any interleaving of
//! inserts, extractions and re-inserts; and the dedup set under both — VLQT
//! buckets and DAI-T's rewriter memory — must do so even when every item is
//! filed under one fingerprint, and across the size at which it starts to
//! keep an index, in both directions. A holder's five tables as one
//! `Tables`, and the replica store built on it, must behave like a `Vec` of
//! the items they were given.

use std::collections::BTreeMap;
use std::sync::Arc;

use cq_engine::tables::keys::{AsIs, Filing, FirstSeen};
use cq_engine::tables::{
    Alqt, Held, RewrittenEntry, StoredQuery, StoredRewritten, StoredTuple, StoredValueTuple,
    Tables, Vlqt, Vltt,
};
use cq_engine::{indexing, EngineError, ReplicaItem, ReplicaStore};
use cq_overlay::{Id, IdSpace};
use cq_relational::{
    Catalog, DataType, Expr, JoinQuery, MatchTarget, Notification, QueryKey, QueryRef, QuerySpec,
    RelationSchema, RewriteBody, RewriteIdentity, RewrittenQuery, RewrittenRef, SelectItem, Side,
    TargetRef, Timestamp, Tuple, Value, ValueRef,
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

/// `SELECT R.A FROM R, S WHERE R.B = S.C`, the `n`-th query of node `n`.
fn query(c: &Catalog, n: u64) -> QueryRef {
    let spec = QuerySpec {
        key: QueryKey::derive("n", n),
        subscriber: "n".into(),
        ins_time: Timestamp(0),
        relations: ["R".into(), "S".into()],
        select: vec![SelectItem {
            side: Side::Left,
            attr: "A".into(),
        }],
        conditions: [Expr::attr("B"), Expr::attr("C")],
        filters: vec![],
    };
    Arc::new(JoinQuery::new(spec, c).unwrap())
}

/// The `R(a, b)` tuple with sequence number `seq`.
fn r_tuple(c: &Catalog, a: i64, b: i64, seq: u64) -> Arc<Tuple> {
    let values = vec![Value::Int(a), Value::Int(b)];
    Arc::new(Tuple::new(c.get("R").unwrap().clone(), values, Timestamp(1), seq).unwrap())
}

// ---------------------------------------------------------------------------
// VLQT and its dedup set against their models
// ---------------------------------------------------------------------------

/// `T(A str, B int, E int) ⋈ U(C int, D str)` on `T.B = U.C`, and two
/// queries over it: `SELECT T.A, U.D`, whose rewriting binds one string and
/// targets the join value, and `SELECT T.A, T.E, U.D`, whose `T`-side
/// rewriting binds two values — the string and `E`.
fn string_catalog() -> (Catalog, [QueryRef; 2]) {
    let mut c = Catalog::new();
    let t = [
        ("A", DataType::Str),
        ("B", DataType::Int),
        ("E", DataType::Int),
    ];
    c.register(RelationSchema::of("T", &t).unwrap()).unwrap();
    c.register(RelationSchema::of("U", &[("C", DataType::Int), ("D", DataType::Str)]).unwrap())
        .unwrap();
    let select = |side, attr: &str| SelectItem {
        side,
        attr: attr.into(),
    };
    let query = |n, select| {
        let spec = QuerySpec {
            key: QueryKey::derive("n", n),
            subscriber: "n".into(),
            ins_time: Timestamp(0),
            relations: ["T".into(), "U".into()],
            select,
            conditions: [Expr::attr("B"), Expr::attr("C")],
            filters: vec![],
        };
        Arc::new(JoinQuery::new(spec, &c).unwrap())
    };
    let one = query(0, vec![select(Side::Left, "A"), select(Side::Right, "D")]);
    let two = query(
        1,
        vec![
            select(Side::Left, "A"),
            select(Side::Left, "E"),
            select(Side::Right, "D"),
        ],
    );
    (c, [one, two])
}

/// The rewriting of `q` by a tuple of `side` carrying `(string, join)`,
/// and `e` in `T.E`.
fn string_rewriting(
    c: &Catalog,
    q: &QueryRef,
    side: Side,
    string: &str,
    join: i64,
    e: i64,
) -> RewrittenQuery {
    let (rel, values, index_attr, dis_attr) = match side {
        Side::Left => (
            "T",
            vec![string.into(), Value::Int(join), Value::Int(e)],
            "B",
            "C",
        ),
        Side::Right => ("U", vec![Value::Int(join), string.into()], "C", "B"),
    };
    let t = Tuple::new(c.get(rel).unwrap().clone(), values, Timestamp(1), 0).unwrap();
    RewrittenQuery::rewrite_attribute(q, side, index_attr, dis_attr, &t)
        .unwrap()
        .expect("no filters, fresh tuple")
}

const STRINGS: [&str; 5] = ["x+s:y", "x", "y", "+", ""];

/// The rewriting ops `(a, b)` select: a small domain, so duplicates are
/// common. `a < 32` picks the one-value query; from 32 on the two-value
/// one, whose `T`-side rewritings can differ in `E` alone.
fn op_rewriting(c: &Catalog, qs: &[QueryRef; 2], a: u64, b: u64) -> RewrittenQuery {
    let side = if (a / 5).is_multiple_of(4) {
        Side::Right
    } else {
        Side::Left
    };
    let q = &qs[usize::from(a >= 32)];
    let e = ((a / 10) % 2) as i64;
    string_rewriting(c, q, side, STRINGS[(a % 5) as usize], (b % 3) as i64, e)
}

/// A rewriting's identity, spelled out: the query, whether the left side
/// is bound, the bound values, the target value.
type Ident = (QueryKey, bool, Vec<Value>, Value);

fn ident(rq: RewrittenRef<'_>) -> Ident {
    (
        rq.query().key().clone(),
        rq.bound_side() == Side::Left,
        rq.bound_values().to_vec(),
        rq.target().value().into(),
    )
}

/// The `(relation, attribute, value)` a rewriting of [`op_rewriting`] is
/// filed under.
type BucketKey = (&'static str, &'static str, i64);

fn bucket_key(rq: &RewrittenQuery) -> BucketKey {
    let join = rq.target().value().as_int().expect("int join attribute");
    match rq.free_side() {
        Side::Left => ("T", "B", join),
        Side::Right => ("U", "C", join),
    }
}

/// `rq` under the value-level identifier of its target, as the engine
/// indexes it (`Hash(DisR + DisA + v)`).
fn indexed(rq: RewrittenQuery) -> StoredRewritten {
    let MatchTarget::Attribute { attr, value } = rq.target() else {
        unreachable!("an attribute target")
    };
    let index_id = indexing::vindex_attr(IdSpace::default(), rq.free_relation(), attr, value);
    StoredRewritten { index_id, rq }
}

/// The model of one value bucket: what was stored, in order.
type ModelBucket = Vec<(Ident, Id)>;

type Model = BTreeMap<BucketKey, ModelBucket>;

fn model_insert(bucket: &mut ModelBucket, e: &StoredRewritten) -> bool {
    let id = ident(e.rq.view());
    let fresh = bucket.iter().all(|(stored, _)| *stored != id);
    if fresh {
        bucket.push((id, e.index_id));
    }
    fresh
}

fn model_bucket<'m>(model: &'m mut Model, e: &StoredRewritten) -> &'m mut ModelBucket {
    model.entry(bucket_key(&e.rq)).or_default()
}

fn model_extract(bucket: &mut ModelBucket, pred: impl Fn(Id) -> bool) -> Vec<(Ident, Id)> {
    let (gone, kept) = std::mem::take(bucket)
        .into_iter()
        .partition(|(_, id)| pred(*id));
    *bucket = kept;
    gone
}

fn idents<'a>(entries: impl IntoIterator<Item = RewrittenEntry<'a>>) -> Vec<(Ident, Id)> {
    entries
        .into_iter()
        .map(|e| (ident(e.rq), e.index_id))
        .collect()
}

fn stored_idents(entries: &[StoredRewritten]) -> Vec<(Ident, Id)> {
    let entries = entries.iter();
    entries.map(|e| (ident(e.rq.view()), e.index_id)).collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// Files every item under one fingerprint: each probe then walks the whole
/// set, and only identity comparison can tell items apart.
struct OneFile;

impl Filing for OneFile {
    fn file_under(_: u64) -> u64 {
        0
    }
}

/// A VLQT bucket's insert: the body goes in unless its rewriting is there.
fn insert<F: Filing>(bucket: &mut FirstSeen<RewriteBody, F>, rq: RewrittenQuery) -> bool {
    bucket.insert_with(rq, |rq| rq.into_parts().0).is_some()
}

/// The rewritings a set of bodies filed under `key` holds.
fn bodies_back(key: BucketKey, bodies: Vec<RewriteBody>) -> Vec<RewrittenQuery> {
    let target = TargetRef::Attribute {
        attr: key.1,
        value: ValueRef::Int(key.2),
    };
    let rewritings = bodies.into_iter();
    rewritings
        .map(|body| RewrittenQuery::from_body(body, target))
        .collect()
}

/// VLQT buckets as dedup sets of bodies, one per target, and their model.
struct Sets<F> {
    sets: BTreeMap<BucketKey, FirstSeen<RewriteBody, F>>,
    model: BTreeMap<BucketKey, Vec<Ident>>,
}

impl<F: Filing> Sets<F> {
    /// Offers `rq` to its set: it goes in unless its rewriting is there.
    fn offer(&mut self, rq: RewrittenQuery) -> Result<(), TestCaseError> {
        let key = bucket_key(&rq);
        let model = self.model.entry(key).or_default();
        let fresh = !model.contains(&ident(rq.view()));
        if fresh {
            model.push(ident(rq.view()));
        }
        let set = self.sets.entry(key).or_default();
        prop_assert_eq!(insert(set, rq), fresh, "dedup verdict");
        Ok(())
    }

    /// Takes the set of `key` out whole, as its rewritings.
    fn take(&mut self, key: BucketKey) -> Result<Vec<RewrittenQuery>, TestCaseError> {
        let set = self.sets.remove(&key).expect("a set of the key");
        let back = bodies_back(key, set.into_vec());
        let got: Vec<Ident> = back.iter().map(|rq| ident(rq.view())).collect();
        prop_assert_eq!(
            got,
            self.model.remove(&key).unwrap_or_default(),
            "a set's order"
        );
        Ok(back)
    }

    fn check(&self) -> Result<(), TestCaseError> {
        for (key, set) in &self.sets {
            let target = TargetRef::Attribute {
                attr: key.1,
                value: ValueRef::Int(key.2),
            };
            let views = set
                .as_slice()
                .iter()
                .map(|body| RewrittenRef::new(body, target));
            let got: Vec<Ident> = views.map(ident).collect();
            prop_assert_eq!(&got, &self.model[key]);
        }
        Ok(())
    }
}

/// Drives dedup sets the way VLQT buckets are driven (insert unless
/// contained, one set per target; take a set out whole, re-insert) and one
/// the way the rewriter memory is (remember unless contained), against
/// linear-search models.
fn first_seen_agrees_with_its_model<F: Filing>(
    ops: &[(u8, u64, u64)],
) -> Result<(), TestCaseError> {
    let (c, qs) = string_catalog();
    let mut sets = Sets::<F> {
        sets: BTreeMap::new(),
        model: BTreeMap::new(),
    };
    let mut memory: FirstSeen<RewriteIdentity, F> = FirstSeen::default();
    let mut model_remembered: Vec<Ident> = Vec::new();
    let mut parked: Vec<RewrittenQuery> = Vec::new();
    for &(op, a, b) in ops {
        match op {
            0..=6 => {
                let rq = op_rewriting(&c, &qs, a, b);
                let fresh = !model_remembered.contains(&ident(rq.view()));
                if fresh {
                    model_remembered.push(ident(rq.view()));
                }
                let remembered = memory.insert_with(&rq, RewrittenQuery::to_identity);
                prop_assert_eq!(remembered.is_some(), fresh, "memory verdict");
                prop_assert!(remembered.is_none_or(|id| id.is_of(&rq)));
                sets.offer(rq)?;
            }
            // One set, or all of them, leaves.
            7 | 8 => {
                let keys = sets.sets.keys().copied();
                let taken: Vec<BucketKey> =
                    keys.filter(|k| op == 8 || k.2 as u64 == a % 3).collect();
                for key in taken {
                    parked.extend(sets.take(key)?);
                }
            }
            _ => {
                for rq in parked.drain(..) {
                    sets.offer(rq)?;
                }
            }
        }
        sets.check()?;
        prop_assert_eq!(memory.as_slice().len(), model_remembered.len());
    }
    Ok(())
}

/// Ops that take sets across the size at which they start to keep an
/// index (eight items): two sets of 15, all offered twice; one set taken
/// out and put back, so its index is built anew mid-run; then both, and
/// everything offered once more.
fn crossings() -> Vec<(u8, u64, u64)> {
    // `(0, a, b)` offers `op_rewriting(a, b)` to the set of join value
    // `b % 3`. The `a` below bind the left side of the one-value query
    // (5..10) and of the two-value one (32..37, 45..50): 15 rewritings of
    // one target per join value.
    let distinct = || (5..10).chain(32..37).chain(45..50);
    let join_0 = distinct().map(|a| (0, a, 0));
    let join_1 = distinct().map(|a| (0, a, 1));
    let all: Vec<_> = join_0.chain(join_1).collect();
    let mut ops = [all.clone(), all.clone()].concat();
    ops.extend([(7, 0, 0), (9, 0, 0)]); // the join-0 set leaves and comes back
    ops.extend(&all);
    ops.extend([(8, 0, 0), (9, 0, 0)]); // both do
    ops.extend(&all);
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn first_seen_agrees_with_its_model_when_every_fingerprint_collides(
        ops in prop::collection::vec((0u8..10, 0u64..64, 0u64..64), 1..120),
    ) {
        let ops = [crossings(), ops].concat();
        first_seen_agrees_with_its_model::<OneFile>(&ops)?;
        first_seen_agrees_with_its_model::<AsIs>(&ops)?;
    }

    #[test]
    fn vlqt_agrees_with_its_model(
        ops in prop::collection::vec((0u8..11, 0u64..64, 0u64..64), 1..120),
    ) {
        let (c, qs) = string_catalog();
        let mut table = Vlqt::new();
        let mut model = Model::new();
        // What extractions took out, to be put back by a later op.
        let mut parked: Vec<StoredRewritten> = Vec::new();

        for (op, a, b) in ops {
            match op {
                // Insert, through either entry point.
                0..=6 => {
                    let entry = indexed(op_rewriting(&c, &qs, a, b));
                    let expect = model_insert(model_bucket(&mut model, &entry), &entry);
                    let got = if op % 2 == 0 {
                        table.insert(entry).unwrap()
                    } else {
                        let (rel, attr, join) = bucket_key(&entry.rq);
                        let (rq, id) = (entry.rq.clone(), entry.index_id);
                        let value_key = Value::Int(join).canonical();
                        let mut bucket = table.bucket_mut(rel, attr, &value_key);
                        let stored = bucket.insert_fresh(entry).unwrap();
                        prop_assert!(stored.is_none_or(|e| e.index_id == id
                            && e.rq.same_identity(&rq.view())
                            && e.rq.same_shape(&rq.view())));
                        stored.is_some()
                    };
                    prop_assert_eq!(got, expect, "dedup verdict");
                }
                7 | 8 => {
                    let pred = |id: Id| op == 8 || id.0 % 4 == a % 4;
                    let gone = table.extract_where(pred);
                    let expect: Vec<_> =
                        model.values_mut().flat_map(|b| model_extract(b, pred)).collect();
                    prop_assert_eq!(sorted(stored_idents(&gone)), sorted(expect));
                    prop_assert!(op == 7 || table.is_empty());
                    parked.extend(gone);
                }
                // An entry under another identifier than its bucket's is
                // refused, through either entry point, and changes nothing.
                9 => {
                    let entry = indexed(op_rewriting(&c, &qs, a, b));
                    let key = bucket_key(&entry.rq);
                    if model.get(&key).is_some_and(|bucket| !bucket.is_empty()) {
                        let index_id = Id(entry.index_id.0 ^ (1 + b));
                        let stray = StoredRewritten { index_id, rq: entry.rq };
                        let refused = if a % 2 == 0 {
                            table.insert(stray).map(|_| ())
                        } else {
                            let value_key = Value::Int(key.2).canonical();
                            let mut bucket = table.bucket_mut(key.0, key.1, &value_key);
                            bucket.insert_fresh(stray).map(|_| ())
                        };
                        let typed = matches!(refused, Err(EngineError::Protocol { .. }));
                        prop_assert!(typed, "{:?}", refused);
                    }
                }
                _ => {
                    for e in parked.drain(..) {
                        let expect = model_insert(model_bucket(&mut model, &e), &e);
                        prop_assert_eq!(table.insert(e).unwrap(), expect, "re-insert verdict");
                    }
                }
            }

            prop_assert_eq!(table.len(), model.values().map(Vec::len).sum::<usize>());
            for ((rel, attr, join), bucket) in &model {
                let value_key = Value::Int(*join).canonical();
                prop_assert_eq!(
                    &idents(table.candidates(rel, attr, &value_key)),
                    bucket,
                    "candidates() is insertion order"
                );
            }
            prop_assert_eq!(
                sorted(idents(table.entries())),
                sorted(model.values().flatten().cloned().collect()),
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
            t.insert(StoredQuery {
                index_id: Id(id),
                query: query(&c, i as u64),
                index_side: Side::Left,
                index_attr: "B".into(),
            });
        }
        let before = t.len();
        let moved = t.extract_where(|id| id.0 < threshold);
        prop_assert_eq!(moved.len() + t.len(), before, "partition loses nothing");
        prop_assert!(moved.iter().all(|e| e.index_id.0 < threshold));
        // remaining entries all fail the predicate
        let rest = t.extract_where(|_| true);
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
        let rest = t.extract_where(|_| true);
        prop_assert!(rest.iter().all(|e| e.index_id.0 >= threshold));
    }
}

// ---------------------------------------------------------------------------
// A holder's tables, and the replica store, against a `Vec` of items
// ---------------------------------------------------------------------------

/// Items of all five kinds, pairwise distinct; ops pick them by position,
/// so the same item is often given twice. An item's index identifier is a
/// function of what it is filed under, as in the engine.
fn item_pool() -> Vec<ReplicaItem> {
    let c = catalog();
    let mut pool = Vec::new();
    for (n, id) in [(0, 1), (0, 6), (1, 1), (1, 11)] {
        pool.push(ReplicaItem::Query(StoredQuery {
            index_id: Id(id),
            query: query(&c, n),
            index_side: Side::Left,
            index_attr: "B".into(),
        }));
    }
    let q = query(&c, 2);
    for (a, b) in [(0, 0), (1, 0), (0, 1), (2, 3), (1, 5), (4, 6)] {
        let t = r_tuple(&c, a, b, 0);
        let rq = RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "C", &t)
            .unwrap()
            .expect("no filters");
        let index_id = Id(b as u64 * 3 % 16);
        pool.push(ReplicaItem::Rewritten(StoredRewritten { index_id, rq }));
    }
    for (seq, b) in [(10, 0), (11, 0), (12, 2), (13, 7)] {
        pool.push(ReplicaItem::Tuple(StoredTuple {
            index_id: Id(b as u64 * 5 % 16),
            attr: "B".into(),
            tuple: r_tuple(&c, 1, b, seq),
        }));
    }
    for (seq, group, b) in [(20, "g", 1), (21, "g", 1), (20, "h", 1), (22, "h", 4)] {
        pool.push(ReplicaItem::ValueTuple {
            group: group.into(),
            value_key: Value::Int(b).canonical().as_str().into(),
            entry: StoredValueTuple {
                index_id: Id(b as u64 * 7 % 16),
                side: Side::Left,
                tuple: r_tuple(&c, 1, b, seq),
            },
        });
    }
    for (id, v) in [(2, 1), (2, 2), (9, 1), (13, 4)] {
        pool.push(ReplicaItem::Offline {
            id: Id(id),
            notification: Notification {
                query_key: QueryKey::derive("n", 0),
                subscriber: "n".into(),
                values: vec![Value::Int(v)],
            },
        });
    }
    pool
}

/// The table an item lives in, in `Tables` order.
fn rank(item: &ReplicaItem) -> u8 {
    match item {
        ReplicaItem::Query(_) => 0,
        ReplicaItem::Rewritten(_) => 1,
        ReplicaItem::Tuple(_) => 2,
        ReplicaItem::ValueTuple { .. } => 3,
        ReplicaItem::Offline { .. } => 4,
    }
}

/// What tells two pool items apart: table, index identifier, digest hash.
fn key(item: &ReplicaItem) -> (u8, u64, u64) {
    (rank(item), item.index_id().0, item.digest_hash())
}

fn keys<'a>(items: impl IntoIterator<Item = &'a ReplicaItem>) -> Vec<(u8, u64, u64)> {
    sorted(items.into_iter().map(key).collect())
}

/// `got` is `expect` extracted in table order: the tables one after the
/// other, offline notifications in the order they were stored.
fn check_extracted(got: &[ReplicaItem], expect: &[ReplicaItem]) -> Result<(), TestCaseError> {
    prop_assert!(
        got.windows(2).all(|w| rank(&w[0]) <= rank(&w[1])),
        "table order"
    );
    prop_assert_eq!(keys(got), keys(expect));
    let offline = |items: &[ReplicaItem]| -> Vec<_> {
        items.iter().filter(|i| rank(i) == 4).map(key).collect()
    };
    prop_assert_eq!(offline(got), offline(expect), "offline store order");
    Ok(())
}

/// Removes the items under `pred` from `model`, keeping the rest in order.
fn model_take(model: &mut Vec<ReplicaItem>, pred: impl Fn(Id) -> bool) -> Vec<ReplicaItem> {
    let (gone, kept) = std::mem::take(model)
        .into_iter()
        .partition(|item| pred(item.index_id()));
    *model = kept;
    gone
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Tables` against a `Vec<ReplicaItem>`: the ALQT and VLQT refuse an
    /// item they hold, the other three keep every arrival; `take_where`
    /// moves exactly the items under its predicate, in table order; `wipe`
    /// counts per table; and the walk yields every held item with its
    /// `ReplicaItem::digest_hash`. The replica store, given the same
    /// sequence, holds every item once, whatever its kind.
    #[test]
    fn tables_and_replica_store_agree_with_a_vec(
        ops in prop::collection::vec((0u8..10, 0usize..64), 1..120),
    ) {
        let pool = item_pool();
        let (mut tables, mut model) = (Tables::default(), Vec::<ReplicaItem>::new());
        let (mut store, mut mirrored) = (ReplicaStore::new(), Vec::<ReplicaItem>::new());
        for (op, x) in ops {
            let pred = |id: Id| op == 7 || id.0 % 4 == x as u64 % 4;
            match op {
                0..=5 => {
                    let item = &pool[x % pool.len()];
                    let held = model.iter().any(|i| key(i) == key(item));
                    let fresh = !held || rank(item) >= 2;
                    prop_assert_eq!(tables.insert(item.clone()).unwrap(), fresh, "{:?}", item);
                    if fresh {
                        model.push(item.clone());
                    }
                    store.insert(item.clone()).unwrap();
                    if !mirrored.iter().any(|i| key(i) == key(item)) {
                        mirrored.push(item.clone());
                    }
                }
                6 | 7 => {
                    check_extracted(&tables.take_where(pred), &model_take(&mut model, pred))?;
                    check_extracted(&store.take_owned(pred), &model_take(&mut mirrored, pred))?;
                }
                8 => {
                    let wiped = tables.wipe().map(|(_, n)| n as usize);
                    let mut expect = [0; 5];
                    for item in model.drain(..) {
                        expect[rank(&item) as usize] += 1;
                    }
                    prop_assert_eq!(wiped, expect);
                    store.clear();
                    mirrored.clear();
                }
                _ => {}
            }
            prop_assert_eq!(tables.len(), model.len());
            let walked: Vec<Held<'_>> = tables.walk().collect();
            for held in &walked {
                let item = held.to_item();
                prop_assert_eq!((held.index_id(), held.digest_hash()), (item.index_id(), item.digest_hash()));
            }
            let walked: Vec<ReplicaItem> = walked.into_iter().map(Held::to_item).collect();
            prop_assert_eq!(keys(&walked), keys(&model));
            prop_assert_eq!(store.len(), mirrored.len());
            prop_assert_eq!(keys(&store.items()), keys(&mirrored));
        }
    }
}

// ---------------------------------------------------------------------------
// VLQT digest hashes, pinned
// ---------------------------------------------------------------------------

/// `V(K str, X int) ⋈ W(K str, Y int)` on `V.K = W.K`: a query whose
/// rewritings target a string.
fn str_join_query() -> QueryRef {
    let mut c = Catalog::new();
    for (rel, other) in [("V", "X"), ("W", "Y")] {
        let attrs = [("K", DataType::Str), (other, DataType::Int)];
        c.register(RelationSchema::of(rel, &attrs).unwrap())
            .unwrap();
    }
    let spec = QuerySpec {
        key: QueryKey::derive("m", 4),
        subscriber: "m".into(),
        ins_time: Timestamp(0),
        relations: ["V".into(), "W".into()],
        select: vec![
            SelectItem {
                side: Side::Left,
                attr: "X".into(),
            },
            SelectItem {
                side: Side::Right,
                attr: "Y".into(),
            },
        ],
        conditions: [Expr::attr("K"), Expr::attr("K")],
        filters: vec![],
    };
    Arc::new(JoinQuery::new(spec, &c).unwrap())
}

/// The anti-entropy digest hash of VLQT entries — `Int` and `Str` targets,
/// one and two bound values, both bound sides, an inline and a heap value
/// key — against the values written by the build before VLQT buckets stored
/// their target once. A digest's hashes decide what an `ef02` repair walks first,
/// so they are never regenerated from the current build.
#[test]
fn vlqt_digest_hashes_are_pinned() {
    let (c, qs) = string_catalog();
    let q = str_join_query();
    let str_target = |side: Side, bound: i64, target: &str| {
        let bound = std::iter::once(Value::Int(bound)).collect();
        RewrittenQuery::from_parts(
            Arc::clone(&q),
            side,
            bound,
            Some("K"),
            target.into(),
            Timestamp(3),
        )
    };
    let long = "x".repeat(25);
    let entries = [
        (3, string_rewriting(&c, &qs[0], Side::Left, "x", 7, 0)),
        (
            5,
            string_rewriting(&c, &qs[1], Side::Left, "x+s:y", i64::MIN, 1),
        ),
        (9, string_rewriting(&c, &qs[0], Side::Right, "", -1, 0)),
        (11, str_target(Side::Left, 1, "a+s:b")),
        (12, str_target(Side::Right, -8, &long)),
        (14, str_target(Side::Left, 0, "")),
    ];
    let mut got = Vec::new();
    for (id, rq) in entries {
        let item = ReplicaItem::Rewritten(StoredRewritten {
            index_id: Id(id),
            rq,
        });
        let mut tables = Tables::default();
        assert!(tables.insert(item.clone()).unwrap());
        let held: Vec<u64> = tables.walk().map(Held::digest_hash).collect();
        assert_eq!(held, [item.digest_hash()]);
        got.push(item.digest_hash());
    }
    assert_eq!(
        got,
        [
            0x236e_e1a3_2b25_4130,
            0xc2e3_6aea_92c6_3e36,
            0x78cf_7fa8_d5d8_3dc2,
            0xd170_b372_0df4_3513,
            0x9bdb_62dc_3614_1619,
            0x84c4_ce44_139c_2c73,
        ]
    );
}
