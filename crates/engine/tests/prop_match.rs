//! `RewrittenQuery::matches` reads the target attribute by a schema
//! position resolved when the rewriting is built. This file checks it
//! against the predicate it replaces — `triggered_by`, then the attribute
//! looked up *by name* — over random schemas, queries and tuples, for every
//! way a rewriting comes into being: rewritten locally, decoded from the
//! wire, and assembled from parts around a target attribute that is not the
//! query's join attribute (which no column was resolved for).
//!
//! DAI-V's value targets get the same treatment: `rewrite_value` and the
//! match against a `ConditionValue` read a bare-attribute condition side by
//! position, and are checked against `Expr::eval` of both condition sides
//! for T1 queries, for T2 queries (either side compound) and for tuples of
//! the wrong relation. Along the way, a rewriting's identity must survive
//! the wire and a rebuild from its parts.
//!
//! The evaluators do not call `matches` per pair: a `RunMatcher` decides
//! the shape half once per candidate for a run of rewritings and leaves the
//! time half per pair. Random runs — queries of one join condition with
//! their own insertion times and now and then their own filters, T2
//! conditions, off-join-attribute targets, candidates of the wrong relation
//! and too short for their schema — must come out of it exactly as out of
//! the pairwise loop it replaces: counts, notifications and their order,
//! and the first error.
//!
//! The other direction, an arriving tuple against the rewritings stored in
//! a VLQT bucket, reads the bucket's ledger — runs of one shape, a tally per
//! query — instead of each entry. Random buckets of such a group — runs cut
//! by free-side filters, one query under two `Arc`s, queries some tuples
//! predate, duplicates, extractions and re-inserts between scans — must
//! scan exactly as the pairwise loop does: the candidate count or the first
//! error, the counts per query address in first-match order and their
//! total, and the notifications in order.
//!
//! Delivery folds the counts per subscriber as they are added, finding a
//! subscriber's slot by the hash its query keeps. Random adds over a few
//! subscribers, one query decoded into two `Arc`s among them, must fold
//! exactly as a fold by name does.

use std::sync::Arc;

use cq_engine::algo::RunMatcher;
use cq_engine::tables::{StoredRewritten, Vlqt};
use cq_engine::wire::{decode_message, encode_message};
use cq_engine::{indexing, EngineError, Matches, Message, QueryCounts};
use cq_overlay::{Id, IdSpace};
use cq_relational::{
    Attribute, BinOp, Catalog, DataType, Expr, Filter, JoinQuery, MatchTarget, Notification,
    QueryKey, QueryRef, QuerySpec, RelationSchema, RewrittenQuery, SelectItem, Side, Timestamp,
    Tuple, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values come from a domain of three per type, so equalities happen.
fn rand_value(rng: &mut StdRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.gen_range(0..3)),
        DataType::Str => Value::from(["x", "y", "z"][rng.gen_range(0..3usize)]),
    }
}

/// Relations `L`, `R` and the bystander `X`, each with 1–6 attributes
/// `a0..` of random types. Attribute 0 of `L` and `R` is an `Int`, so a
/// type-correct join always exists; `X` repeats `R`'s attributes under
/// another name, so a tuple of the wrong relation can look just like one of
/// the right one.
fn rand_catalog(rng: &mut StdRng) -> Catalog {
    let attributes = |rng: &mut StdRng| -> Vec<Attribute> {
        (0..rng.gen_range(1..7usize))
            .map(|i| Attribute {
                name: format!("a{i}"),
                ty: if i == 0 || rng.gen_bool(0.6) {
                    DataType::Int
                } else {
                    DataType::Str
                },
            })
            .collect()
    };
    let (left, right) = (attributes(rng), attributes(rng));
    let mut c = Catalog::new();
    c.register(RelationSchema::new("L", left).unwrap()).unwrap();
    c.register(RelationSchema::new("R", right.clone()).unwrap())
        .unwrap();
    c.register(RelationSchema::new("X", right).unwrap())
        .unwrap();
    c
}

fn rand_attr<'c>(rng: &mut StdRng, c: &'c Catalog, rel: &str, ty: Option<DataType>) -> &'c str {
    let fits: Vec<&Attribute> = c
        .get(rel)
        .unwrap()
        .attributes()
        .iter()
        .filter(|a| ty.is_none_or(|ty| a.ty == ty))
        .collect();
    &fits[rng.gen_range(0..fits.len())].name
}

/// One side of a join condition over `rel`'s `Int` attributes: a bare
/// attribute, or — when `compound` — a sum or product with another
/// attribute or a constant.
fn rand_condition(rng: &mut StdRng, c: &Catalog, rel: &str, compound: bool) -> Expr {
    let attr = |rng: &mut StdRng| Expr::attr(rand_attr(rng, c, rel, Some(DataType::Int)));
    if !compound {
        return attr(rng);
    }
    let op = if rng.gen_bool(0.5) {
        BinOp::Add
    } else {
        BinOp::Mul
    };
    let rhs = if rng.gen_bool(0.5) {
        attr(rng)
    } else {
        Expr::int(rng.gen_range(0..3))
    };
    Expr::bin(op, attr(rng), rhs)
}

fn rand_side(rng: &mut StdRng) -> Side {
    if rng.gen_bool(0.5) {
        Side::Left
    } else {
        Side::Right
    }
}

fn relation_of(side: Side) -> &'static str {
    match side {
        Side::Left => "L",
        Side::Right => "R",
    }
}

/// Up to two `attr = const` filters on either side.
fn rand_filters(rng: &mut StdRng, c: &Catalog) -> Vec<Filter> {
    (0..rng.gen_range(0..3usize))
        .map(|_| {
            let side = rand_side(rng);
            let attr = rand_attr(rng, c, relation_of(side), None);
            let ty = c.get(relation_of(side)).unwrap().type_of(attr).unwrap();
            Filter {
                side,
                attr: attr.into(),
                value: rand_value(rng, ty),
            }
        })
        .collect()
}

/// A query `L ⋈ R` over `Int` attributes — T1 unless `t2`, which makes each
/// condition side compound more often than not — with a random select
/// list, up to two filters and an insertion time some tuples predate.
fn rand_query(rng: &mut StdRng, c: &Catalog, t2: bool) -> QueryRef {
    let conditions = ["L", "R"].map(|rel| {
        let compound = t2 && rng.gen_bool(0.6);
        rand_condition(rng, c, rel, compound)
    });
    let filters = rand_filters(rng, c);
    query_on(rng, c, conditions, filters, "n")
}

/// A query posed by `subscriber` over `conditions` and `filters`, with a
/// random select list and an insertion time some tuples predate.
fn query_on(
    rng: &mut StdRng,
    c: &Catalog,
    conditions: [Expr; 2],
    filters: Vec<Filter>,
    subscriber: &str,
) -> QueryRef {
    let select = (0..rng.gen_range(1..4usize))
        .map(|_| {
            let side = rand_side(rng);
            SelectItem {
                side,
                attr: rand_attr(rng, c, relation_of(side), None).into(),
            }
        })
        .collect();
    let spec = QuerySpec {
        key: QueryKey::derive(subscriber, rng.gen_range(0..1000)),
        subscriber: subscriber.into(),
        ins_time: Timestamp(rng.gen_range(0..4)),
        relations: ["L".into(), "R".into()],
        select,
        conditions,
        filters,
    };
    Arc::new(JoinQuery::new(spec, c).expect("generated query is valid"))
}

fn rand_tuple(rng: &mut StdRng, c: &Catalog, rel: &str) -> Tuple {
    let schema = c.get(rel).unwrap().clone();
    let values = schema
        .attributes()
        .iter()
        .map(|a| rand_value(rng, a.ty))
        .collect();
    Tuple::new(schema, values, Timestamp(rng.gen_range(0..8)), rng.gen()).unwrap()
}

/// The predicate `matches` replaces, attribute looked up by name. Errors
/// are compared as text.
fn by_name(rq: &RewrittenQuery, t: &Tuple) -> Result<bool, String> {
    let MatchTarget::Attribute { attr, value } = rq.target() else {
        panic!("attribute targets only");
    };
    let check = || -> cq_relational::Result<bool> {
        Ok(rq.query().triggered_by(rq.free_side(), t)? && t.get(attr)? == value)
    };
    check().map_err(|e| e.to_string())
}

/// The predicate a value target stands for: the free side's condition
/// evaluated on the tuple.
fn by_eval(rq: &RewrittenQuery, t: &Tuple) -> Result<bool, String> {
    let MatchTarget::ConditionValue { value } = rq.target() else {
        panic!("value targets only");
    };
    let free = rq.free_side();
    let check = || -> cq_relational::Result<bool> {
        Ok(rq.query().triggered_by(free, t)? && &rq.query().condition(free).eval(t)? == value)
    };
    check().map_err(|e| e.to_string())
}

/// What a rewriting by `t` on `side` reads, looked up by name: `None` when
/// `t` does not trigger `q` (time, relation, the side's filters), else the
/// target value `target` reads and the bound side's select values in select
/// order. Errors are compared as text.
fn rewrite_by_name(
    q: &JoinQuery,
    side: Side,
    t: &Tuple,
    target: impl FnOnce(&Tuple) -> cq_relational::Result<Value>,
) -> Result<Option<(Value, Vec<Value>)>, String> {
    let reference = || -> cq_relational::Result<Option<(Value, Vec<Value>)>> {
        if t.pub_time() < q.ins_time() || t.relation() != q.relation(side) {
            return Ok(None);
        }
        for f in q.filters().iter().filter(|f| f.side == side) {
            if t.get(&f.attr)? != &f.value {
                return Ok(None);
            }
        }
        let target = target(t)?;
        let bound = q.select().iter().filter(|it| it.side == side);
        let bound = bound.map(|it| t.get(&it.attr).cloned());
        Ok(Some((target, bound.collect::<cq_relational::Result<_>>()?)))
    };
    reference().map_err(|e| e.to_string())
}

/// A rewriting's target value and bound values, or its error as text.
fn rewritten(
    got: &cq_relational::Result<Option<RewrittenQuery>>,
) -> Result<Option<(Value, Vec<Value>)>, String> {
    let parts = |rq: &RewrittenQuery| (rq.target().value().clone(), rq.bound_values().to_vec());
    got.as_ref()
        .map(|rq| rq.as_ref().map(parts))
        .map_err(|e| e.to_string())
}

/// A tuple to rewrite on `bound`: mostly of the bound relation, one in five
/// too short for the positions resolved against `c`; one in ten of the free
/// relation and one in ten of the look-alike bystander.
fn rand_trigger(
    rng: &mut StdRng,
    c: &Catalog,
    short: &Catalog,
    q: &JoinQuery,
    bound: Side,
) -> Tuple {
    match rng.gen_range(0..10) {
        0 => rand_tuple(rng, c, "X"),
        1 => rand_tuple(rng, c, q.relation(bound.other())),
        2 | 3 => rand_tuple(rng, short, q.relation(bound)),
        _ => rand_tuple(rng, c, q.relation(bound)),
    }
}

/// `rq` put together again from what its accessors show.
fn from_its_parts(rq: &RewrittenQuery) -> RewrittenQuery {
    let target_attr = match rq.target() {
        MatchTarget::Attribute { attr, .. } => Some(&**attr),
        MatchTarget::ConditionValue { .. } => None,
    };
    RewrittenQuery::from_parts(
        Arc::clone(rq.query()),
        rq.bound_side(),
        rq.bound_values().iter().cloned().collect(),
        target_attr,
        rq.target().value().clone(),
        rq.trigger_time(),
    )
}

fn key_text(rq: &RewrittenQuery) -> String {
    let mut s = String::new();
    rq.write_key(&mut s).unwrap();
    s
}

/// Every way `local` comes into being again must give the same rewriting:
/// same identity and fingerprint, same target, same key text.
fn assert_same_rewriting(
    local: &RewrittenQuery,
    other: &RewrittenQuery,
) -> Result<(), TestCaseError> {
    prop_assert!(other.same_identity(local) && local.same_identity(other));
    prop_assert_eq!(other.fingerprint(), local.fingerprint());
    prop_assert!(local.to_identity().is_of(other));
    prop_assert_eq!(other.target(), local.target());
    prop_assert_eq!(key_text(other), key_text(local));
    Ok(())
}

/// `c` with every relation cut to a prefix of its attributes. A tuple of it
/// passes the relation test, but is too short for positions resolved
/// against `c`, and may lack attributes a filter, target or condition
/// names.
fn truncated(rng: &mut StdRng, c: &Catalog) -> Catalog {
    let mut short = Catalog::new();
    for rel in ["L", "R", "X"] {
        let attrs = c.get(rel).unwrap().attributes();
        let keep = rng.gen_range(1..=attrs.len());
        short
            .register(RelationSchema::new(rel, attrs[..keep].to_vec()).unwrap())
            .unwrap();
    }
    short
}

/// One rewriting of a random query of `queries` for a `Join` run: bound on
/// `bound` (now and then on the other side, which splits the shape),
/// triggered by a random tuple — or, for attribute targets, now and then
/// assembled around a target attribute that is not the join attribute.
fn rand_rewriting(
    rng: &mut StdRng,
    c: &Catalog,
    queries: &[QueryRef],
    bound: Side,
    value_targets: bool,
) -> Option<RewrittenQuery> {
    let q = &queries[rng.gen_range(0..queries.len())];
    let bound = if rng.gen_bool(0.1) {
        bound.other()
    } else {
        bound
    };
    let rq = (0..16).find_map(|_| {
        let t = rand_tuple(rng, c, q.relation(bound));
        if value_targets {
            RewrittenQuery::rewrite_value(q, bound, &t).unwrap()
        } else {
            let (index_attr, dis_attr) = (q.join_attr(bound)?, q.join_attr(bound.other())?);
            RewrittenQuery::rewrite_attribute(q, bound, index_attr, dis_attr, &t).unwrap()
        }
    })?;
    if value_targets || rng.gen_bool(0.8) {
        return Some(rq);
    }
    let free_rel = q.relation(bound.other());
    let attr = if rng.gen_bool(0.2) {
        "missing"
    } else {
        rand_attr(rng, c, free_rel, None)
    };
    let ty = c
        .get(free_rel)
        .unwrap()
        .type_of(attr)
        .unwrap_or(DataType::Int);
    Some(RewrittenQuery::from_parts(
        Arc::clone(q),
        bound,
        rq.bound_values().iter().cloned().collect(),
        Some(attr),
        rand_value(rng, ty),
        rq.trigger_time(),
    ))
}

/// A stored candidate for rewritings bound on `bound`: mostly a tuple of the
/// free relation, also one too short for it, one of the bound relation and
/// one of the look-alike bystander.
fn rand_candidate(rng: &mut StdRng, c: &Catalog, short: &Catalog, bound: Side) -> Arc<Tuple> {
    let free = relation_of(bound.other());
    Arc::new(match rng.gen_range(0..8) {
        0 => rand_tuple(rng, c, "X"),
        1 => rand_tuple(rng, c, relation_of(bound)),
        2 => rand_tuple(rng, short, free),
        _ => rand_tuple(rng, c, free),
    })
}

/// What the run matcher replaces: every rewriting against every candidate,
/// counting and (with `retain`) building notifications, stopping at the
/// first error. Returns the match count of each rewriting that completed,
/// the notifications built and the error, as text.
fn pairwise(
    run: &[RewrittenQuery],
    candidates: &[Arc<Tuple>],
    retain: bool,
) -> (Vec<u64>, Vec<Notification>, Option<String>) {
    fn pair(
        rq: &RewrittenQuery,
        t: &Tuple,
        retain: bool,
        out: &mut Vec<Notification>,
    ) -> cq_relational::Result<bool> {
        let matched = rq.matches(t)?;
        if matched && retain {
            out.push(rq.notification_with(t)?);
        }
        Ok(matched)
    }
    let (mut counts, mut out) = (Vec::new(), Vec::new());
    for rq in run {
        let mut n = 0;
        for t in candidates {
            match pair(rq, t, retain, &mut out) {
                Ok(matched) => n += u64::from(matched),
                Err(e) => return (counts, out, Some(e.to_string())),
            }
        }
        counts.push(n);
    }
    (counts, out, None)
}

/// What the VLQT ledger replaces: every rewriting in the tuple's bucket
/// against the tuple, stopping at the first error. Returns the candidate
/// count or the error, as text.
fn pairwise_vlqt(vlqt: &Vlqt, t: &Tuple, attr: &str, matches: &mut Matches) -> Result<u64, String> {
    let mut scan = || -> cq_relational::Result<u64> {
        let mut candidates = 0;
        for e in vlqt.candidates(t.relation(), attr, t.canonical_of(attr)?) {
            candidates += 1;
            if e.rq.matches(t)? {
                matches.add(&e.rq, t)?;
            }
        }
        Ok(candidates)
    };
    scan().map_err(|e| e.to_string())
}

/// `rq` under the value-level identifier of its target, as the engine
/// indexes it (`Hash(DisR + DisA + v)`): one identifier per VLQT bucket.
fn indexed(rq: RewrittenQuery) -> StoredRewritten {
    let MatchTarget::Attribute { attr, value } = rq.target() else {
        unreachable!("an attribute target")
    };
    let index_id = indexing::vindex_attr(IdSpace::default(), rq.free_relation(), attr, value);
    StoredRewritten { index_id, rq }
}

/// What a scan left behind: the counts' entries — query address and count,
/// in first-match order — and total, or the notifications in order.
fn outcome(matches: &Matches) -> (Vec<(usize, u64)>, u64, Vec<Notification>) {
    match matches {
        Matches::Counts(counts) => (counts.per_query(), matches.len(), Vec::new()),
        Matches::Full(out) => (Vec::new(), matches.len(), out.clone()),
    }
}

/// `rq` after a trip through the wire codec.
fn over_the_wire(rq: &RewrittenQuery, c: &Catalog) -> RewrittenQuery {
    let mut frame = Vec::new();
    encode_message(
        &Message::Join {
            items: vec![rq.clone()],
            index_id: Id(1),
        },
        &mut frame,
    );
    match decode_message(&frame, c).expect("decodes what was encoded") {
        (Message::Join { mut items, .. }, _) => items.pop().expect("one item"),
        (other, _) => panic!("decoded {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matching_by_column_is_matching_by_name(seed in 0u64..1 << 48) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let c = rand_catalog(rng);
        let q = rand_query(rng, &c, false);
        let bound = if rng.gen_bool(0.5) { Side::Left } else { Side::Right };
        let free = bound.other();
        let (bound_rel, free_rel) = (q.relation(bound), q.relation(free));
        let index_attr = q.join_attr(bound).expect("T1");
        let dis_attr = q.join_attr(free).expect("T1");

        // `rewrite_attribute` reads by position what the rewriting reads
        // by name: the index attribute and the bound side's select items.
        // Keep the first rewriting made (filters and insertion time reject
        // some tuples).
        let short = truncated(rng, &c);
        let mut local = None;
        for _ in 0..64 {
            let t = rand_trigger(rng, &c, &short, &q, bound);
            let got = RewrittenQuery::rewrite_attribute(&q, bound, index_attr, dis_attr, &t);
            let expect = rewrite_by_name(&q, bound, &t, |t| t.get(index_attr).cloned());
            prop_assert_eq!(rewritten(&got), expect, "rewrite_attribute of {} by {}", q, t);
            if let Ok(Some(rq)) = got {
                local.get_or_insert(rq);
            }
        }
        let Some(local) = local else {
            return Ok(()); // e.g. two contradictory filters on one attribute
        };
        let decoded = over_the_wire(&local, &c);
        assert_same_rewriting(&local, &decoded)?;
        assert_same_rewriting(&local, &from_its_parts(&local))?;

        // A target on some *other* attribute of the free relation, or on
        // one it does not have: nothing to resolve, the name decides.
        let other_attr = if rng.gen_bool(0.2) {
            "missing"
        } else {
            rand_attr(rng, &c, free_rel, None)
        };
        let ty = c.get(free_rel).unwrap().type_of(other_attr).unwrap_or(DataType::Int);
        let off_join = RewrittenQuery::from_parts(
            Arc::clone(&q),
            bound,
            local.bound_values().iter().cloned().collect(),
            Some(other_attr),
            rand_value(rng, ty),
            local.trigger_time(),
        );

        for _ in 0..24 {
            // Mostly the free relation; also the look-alike bystander and
            // the bound relation itself.
            let rel = match rng.gen_range(0..6) {
                0 => "X",
                1 => bound_rel,
                _ => free_rel,
            };
            let t = rand_tuple(rng, &c, rel);
            for rq in [&local, &decoded, &off_join] {
                let got = rq.matches(&t).map_err(|e| e.to_string());
                prop_assert_eq!(got, by_name(rq, &t), "{} against {}", rq, t);
            }
        }
    }

    #[test]
    fn value_matching_by_column_is_evaluating_the_condition(seed in 0u64..1 << 48) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let c = rand_catalog(rng);
        let t2 = rng.gen_bool(0.6);
        let q = rand_query(rng, &c, t2);
        let bound = if rng.gen_bool(0.5) { Side::Left } else { Side::Right };
        let (bound_rel, free_rel) = (q.relation(bound), q.relation(bound.other()));

        // `rewrite_value` is the trigger test, then the bound side's
        // condition evaluated and its select items read by name — for
        // tuples of either relation, of the bystander and too short.
        let short = truncated(rng, &c);
        let mut local = None;
        for _ in 0..64 {
            let t = rand_trigger(rng, &c, &short, &q, bound);
            let got = RewrittenQuery::rewrite_value(&q, bound, &t);
            let expect = rewrite_by_name(&q, bound, &t, |t| q.condition(bound).eval(t));
            prop_assert_eq!(rewritten(&got), expect, "rewrite_value of {} by {}", q, t);
            if let Ok(Some(rq)) = got {
                local.get_or_insert(rq);
            }
        }
        let Some(local) = local else {
            return Ok(()); // e.g. two contradictory filters on one attribute
        };
        let decoded = over_the_wire(&local, &c);
        assert_same_rewriting(&local, &decoded)?;
        assert_same_rewriting(&local, &from_its_parts(&local))?;

        for _ in 0..24 {
            let rel = match rng.gen_range(0..6) {
                0 => "X",
                1 => bound_rel,
                _ => free_rel,
            };
            let t = rand_tuple(rng, &c, rel);
            for rq in [&local, &decoded] {
                let got = rq.matches(&t).map_err(|e| e.to_string());
                prop_assert_eq!(got, by_eval(rq, &t), "{} against {}", rq, t);
            }
        }
    }

    #[test]
    fn the_run_matcher_is_the_pairwise_predicate(seed in 0u64..1 << 48) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let c = rand_catalog(rng);
        let short = truncated(rng, &c);
        // A `JoinV` run (value targets, T1 or T2) or a `Join` run (attribute
        // targets, T1): queries of one join condition — a group — each with
        // its own select list, insertion time and subscriber, and with the
        // group's filters or, now and then, filters of its own.
        let value_targets = rng.gen_bool(0.4);
        let t2 = value_targets && rng.gen_bool(0.6);
        let base = rand_query(rng, &c, t2);
        let conditions = Side::BOTH.map(|side| base.condition(side).clone());
        let queries: Vec<QueryRef> = (0..rng.gen_range(1..4))
            .map(|i| {
                let filters = if rng.gen_bool(0.7) {
                    base.filters().to_vec()
                } else {
                    rand_filters(rng, &c)
                };
                query_on(rng, &c, conditions.clone(), filters, &format!("s{i}"))
            })
            .collect();
        let bound = rand_side(rng);
        let run: Vec<RewrittenQuery> = (0..rng.gen_range(1..9))
            .filter_map(|_| rand_rewriting(rng, &c, &queries, bound, value_targets))
            .collect();
        let candidates: Vec<Arc<Tuple>> = (0..rng.gen_range(0..13))
            .map(|_| rand_candidate(rng, &c, &short, bound))
            .collect();

        // What the matcher rests on: `matches` is the time test and the shape
        // test, and rewritings of one shape pass the shape test alike.
        let shape = |rq: &RewrittenQuery, t: &Tuple| rq.shape_matches(t).map_err(|e| e.to_string());
        for rq in &run {
            for t in &candidates {
                let split = if rq.admits_time(t) { shape(rq, t) } else { Ok(false) };
                prop_assert_eq!(rq.matches(t).map_err(|e| e.to_string()), split, "{} against {}", rq, t);
                for other in run.iter().filter(|o| o.same_shape(rq)) {
                    prop_assert_eq!(shape(other, t), shape(rq, t), "{} and {} against {}", rq, other, t);
                }
            }
        }

        // One matcher for both modes, so each starts from the other's
        // leftover verdicts.
        let mut matcher = RunMatcher::default();
        for retain in [false, true] {
            let (want_counts, want_out, want_err) = pairwise(&run, &candidates, retain);
            let mut matches = Matches::new(retain);
            let mut counts = Vec::new();
            let result = matcher.match_run(&run, &candidates, &mut matches, |n| counts.push(n));
            // The same rewritings complete with the same counts, and the
            // same error stops the same rewriting ...
            prop_assert_eq!(&counts, &want_counts, "retain: {}", retain);
            prop_assert_eq!(result.err().map(|e| e.to_string()), want_err.clone());
            match &mut matches {
                // ... at the same pair: the notifications before it, in order.
                Matches::Full(out) => prop_assert_eq!(out, &want_out),
                // Per query (a subscriber each), in first-match order; a run
                // that failed is dropped whole, so its counts do not matter.
                Matches::Counts(got) if want_err.is_none() => {
                    let mut want: Vec<(&str, u64)> = Vec::new();
                    for (rq, &n) in run.iter().zip(&want_counts).filter(|(_, &n)| n > 0) {
                        match want.iter_mut().find(|(s, _)| *s == rq.query().subscriber()) {
                            Some((_, total)) => *total += n,
                            None => want.push((rq.query().subscriber(), n)),
                        }
                    }
                    let got: Vec<(&str, u64)> = got.by_subscriber().collect();
                    prop_assert_eq!(got, want);
                }
                Matches::Counts(_) => {}
            }
        }
    }

    #[test]
    fn the_vlqt_ledger_is_the_pairwise_scan(seed in 0u64..1 << 48) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let c = rand_catalog(rng);
        let short = truncated(rng, &c);
        // A group's queries, each with its own select list, insertion time
        // and subscriber; filters of their own now and then cut a bucket
        // into several runs.
        let base = rand_query(rng, &c, false);
        let conditions = Side::BOTH.map(|side| base.condition(side).clone());
        let mut queries: Vec<QueryRef> = (0..rng.gen_range(1..4))
            .map(|i| {
                let filters = if rng.gen_bool(0.6) {
                    base.filters().to_vec()
                } else {
                    rand_filters(rng, &c)
                };
                query_on(rng, &c, conditions.clone(), filters, &format!("s{i}"))
            })
            .collect();
        // One query under a second `Arc`, as a TCP receiver's interner
        // decodes it again once it has forgotten it.
        if rng.gen_bool(0.5) {
            queries.push(Arc::new(JoinQuery::clone(&queries[0])));
        }
        let bound = rand_side(rng);
        let join_attr = base.join_attr(bound.other()).expect("T1");

        // Inserts, scans, extractions and re-inserts in any order: a scan
        // builds a bucket's ledger or extends it over what was stored
        // since, an extraction takes the bucket with it, and an entry under
        // another identifier than its bucket's is refused.
        let mut vlqt = Vlqt::new();
        let mut matcher = RunMatcher::default();
        let (mut stored, mut parked) = (Vec::new(), Vec::new());
        for _ in 0..rng.gen_range(1..60) {
            match rng.gen_range(0..11) {
                0..=4 => {
                    for _ in 0..rng.gen_range(1..8) {
                        let entry = if !stored.is_empty() && rng.gen_bool(0.2) {
                            // a duplicate
                            let i = rng.gen_range(0..stored.len());
                            StoredRewritten::clone(&stored[i])
                        } else {
                            let Some(rq) = rand_rewriting(rng, &c, &queries, bound, false) else {
                                continue;
                            };
                            indexed(rq)
                        };
                        vlqt.insert(entry.clone()).unwrap();
                        stored.push(entry);
                    }
                }
                5..=7 => {
                    // Mostly the bucket the group fills; now and then one an
                    // off-join-attribute target is filed under, or an
                    // attribute the tuple lacks.
                    let t = rand_candidate(rng, &c, &short, bound);
                    let attr = if rng.gen_bool(0.7) {
                        join_attr
                    } else {
                        rand_attr(rng, &c, t.relation(), None)
                    };
                    for retain in [false, true] {
                        let mut want = Matches::new(retain);
                        let want_result = pairwise_vlqt(&vlqt, &t, attr, &mut want);
                        let mut got = Matches::new(retain);
                        let got_result = matcher
                            .match_vlqt(&mut vlqt, &t, attr, &mut got)
                            .map_err(|e| e.to_string());
                        prop_assert_eq!(got_result, want_result, "{} on {}", t, attr);
                        prop_assert_eq!(outcome(&got), outcome(&want), "{} on {}", t, attr);
                    }
                }
                8 => {
                    let k = rng.gen_range(0..4);
                    parked.extend(vlqt.extract_where(|i| i.0 % 4 == k));
                }
                9 => {
                    let Some(e) = stored.get(rng.gen_range(0..stored.len().max(1))) else {
                        continue;
                    };
                    let MatchTarget::Attribute { attr, value } = e.rq.target() else {
                        unreachable!("an attribute target")
                    };
                    let key = value.canonical();
                    if vlqt.candidates(e.rq.free_relation(), attr, &key).next().is_none() {
                        continue; // its bucket is parked
                    }
                    let index_id = Id(e.index_id.0 ^ rng.gen_range(1..4u64));
                    let stray = StoredRewritten { index_id, rq: e.rq.clone() };
                    let len = vlqt.len();
                    let refused = vlqt.insert(stray);
                    let typed = matches!(refused, Err(EngineError::Protocol { .. }));
                    prop_assert!(typed, "{:?}", refused);
                    prop_assert_eq!(vlqt.len(), len);
                }
                _ => {
                    for e in parked.drain(..) {
                        vlqt.insert(e).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn the_subscriber_fold_is_the_fold_by_name(seed in 0u64..1 << 48) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let c = rand_catalog(rng);
        let base = rand_query(rng, &c, false);
        let conditions = Side::BOTH.map(|side| base.condition(side).clone());
        let subscribers = rng.gen_range(1..5);
        let mut queries: Vec<QueryRef> = (0..rng.gen_range(1..9))
            .map(|_| {
                let subscriber = format!("s{}", rng.gen_range(0..subscribers));
                query_on(rng, &c, conditions.clone(), base.filters().to_vec(), &subscriber)
            })
            .collect();
        // One query decoded twice into two `Arc`s, as a TCP receiver decodes
        // it again once its interner has forgotten it.
        let mut frame = Vec::new();
        let message = Message::IndexQuery {
            query: Arc::clone(&queries[0]),
            index_side: Side::Left,
            index_attr: "a0".into(),
            index_id: Id(1),
        };
        encode_message(&message, &mut frame);
        for _ in 0..2 {
            match decode_message(&frame, &c).expect("decodes what was encoded") {
                (Message::IndexQuery { query, .. }, _) => queries.push(query),
                (other, _) => panic!("decoded {other:?}"),
            }
        }
        let decoded = &queries[queries.len() - 2..];
        prop_assert!(!Arc::ptr_eq(&decoded[0], &decoded[1]));
        let adds: Vec<(usize, u64)> = (0..rng.gen_range(1..20))
            .map(|_| (rng.gen_range(0..queries.len()), rng.gen_range(1..4)))
            .collect();

        let mut want: Vec<(&str, u64)> = Vec::new();
        for &(q, n) in &adds {
            let name = queries[q].subscriber();
            match want.iter_mut().find(|(s, _)| *s == name) {
                Some((_, total)) => *total += n,
                None => want.push((name, n)),
            }
        }
        // Twice through one accumulator: a cleared one folds afresh.
        let mut counts = QueryCounts::default();
        for _ in 0..2 {
            counts.clear();
            for &(q, n) in &adds {
                counts.add_n(&queries[q], n);
            }
            prop_assert_eq!(counts.by_subscriber().collect::<Vec<_>>(), want.clone());
            // Per query, the two decoded `Arc`s stay apart.
            let mut per_query: Vec<(usize, u64)> = Vec::new();
            for &(q, n) in &adds {
                let address = Arc::as_ptr(&queries[q]) as usize;
                match per_query.iter_mut().find(|(a, _)| *a == address) {
                    Some((_, total)) => *total += n,
                    None => per_query.push((address, n)),
                }
            }
            prop_assert_eq!(counts.per_query(), per_query);
        }
    }
}

/// Counts mode sorts a run's yes verdicts by `pubT` once and counts each
/// rewriting with one binary search for its `insT`. Candidates published
/// out of order — falling, interleaved, with repeated times, one of them of
/// another shape — must count as the pairwise loop counts for every `insT`
/// from before the first to after the last, and retention mode must still
/// build the notifications in candidate order.
#[test]
fn the_run_matcher_counts_candidates_out_of_pub_time_order() {
    let mut c = Catalog::new();
    for rel in ["L", "R"] {
        let schema = RelationSchema::of(rel, &[("a0", DataType::Int), ("a1", DataType::Int)]);
        c.register(schema.unwrap()).unwrap();
    }
    let tuple = |rel: &str, values: [i64; 2], published: u64| {
        let schema = Arc::clone(c.get(rel).unwrap());
        let values = values.map(Value::Int).to_vec();
        Tuple::new(schema, values, Timestamp(published), published).unwrap()
    };
    let published = [9, 2, 7, 7, 0, 5, 3, 9, 1, 4, 6, 2, 8];
    let mut candidates: Vec<Arc<Tuple>> = published
        .iter()
        .enumerate()
        .map(|(i, &at)| Arc::new(tuple("R", [1, i as i64], at)))
        .collect();
    candidates.insert(4, Arc::new(tuple("R", [2, 99], 6)));
    let trigger = tuple("L", [1, -1], 20);
    // One query per insertion time, posed in falling and then rising order.
    let run: Vec<RewrittenQuery> = (0..=10u64)
        .rev()
        .chain(0..=10)
        .map(|ins| {
            let spec = QuerySpec {
                key: QueryKey::derive("n", ins),
                subscriber: format!("s{ins}"),
                ins_time: Timestamp(ins),
                relations: ["L".into(), "R".into()],
                select: vec![SelectItem {
                    side: Side::Right,
                    attr: "a1".into(),
                }],
                conditions: [Expr::attr("a0"), Expr::attr("a0")],
                filters: vec![],
            };
            let q = Arc::new(JoinQuery::new(spec, &c).unwrap());
            RewrittenQuery::rewrite_attribute(&q, Side::Left, "a0", "a0", &trigger)
                .unwrap()
                .unwrap()
        })
        .collect();
    let mut matcher = RunMatcher::default();
    for retain in [false, true] {
        let (want_counts, want_out, want_err) = pairwise(&run, &candidates, retain);
        assert_eq!(want_err, None);
        let mut matches = Matches::new(retain);
        let mut counts = Vec::new();
        matcher
            .match_run(&run, &candidates, &mut matches, |n| counts.push(n))
            .unwrap();
        assert_eq!(counts, want_counts, "retain: {retain}");
        assert_eq!(
            (counts[0], counts[10]),
            (0, 13),
            "after the last, before the first"
        );
        if let Matches::Full(out) = &matches {
            assert_eq!(out, &want_out);
        }
    }
}
