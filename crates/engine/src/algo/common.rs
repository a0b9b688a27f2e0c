//! Handler building blocks shared by the four protocol implementations.
//!
//! Everything here is a pure function of a [`NodeCtx`] (or of its
//! [`NodeCtx::split`] halves): state reads/writes go through the node
//! state, randomness through the context RNG, and sends are pushed as
//! [`Effect`]s. The helpers reproduce the paper's shared machinery — query
//! indexing (Section 4.3.1), the two-level tuple indexing of Section 4.2,
//! rewriting T1 queries on tuple arrival (Sections 4.3.2/4.4) and matching
//! rewritten queries against stored tuples (Section 4.3.3) — while the
//! per-algorithm differences stay in the [`Protocol`](crate::protocol::Protocol)
//! impls.
//!
//! The join kernels ([`t1_tuple_arrival`], [`RunMatcher`],
//! [`match_vlqt_candidates`]) scan their tables **in place**: candidate
//! entries are borrowed straight out of the index maps while matches,
//! metrics and effects flow into the disjoint [`EffectCtx`] sinks. No
//! candidate set is ever cloned out and no per-arrival key `String` is
//! allocated (value keys come from the tuple's cached canonical forms or
//! the reusable scratch buffer). See DESIGN.md, "Hot-path memory
//! discipline".

use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{
    JoinQuery, MatchTarget, QueryRef, RelationalError, RewrittenQuery, RewrittenRef, Side,
    TargetRef, Timestamp, Tuple,
};
use rand::Rng;

use crate::error::{EngineError, Result};
use crate::indexing;
use crate::messages::Message;
use crate::metrics::TrafficKind;
use crate::node::NodeState;
use crate::protocol::{Effect, EffectCtx, Matches, NodeCtx};
use crate::replication::ReplicaItem;
use crate::tables::vlqt::{LedgerScratch, Tally};
use crate::tables::{StoredTuple, Vlqt};
use crate::trace::TraceEvent;

/// `IndexA(q)` for `side`: the join attribute for T1 queries, a
/// pseudo-random attribute of the side's condition for T2 (Section 4.5).
/// Borrowed from the query: the T2 candidate set is precomputed at
/// validation time ([`JoinQuery::condition_attrs`]), so the pick costs one
/// RNG draw and zero allocations.
pub(crate) fn choose_index_attr<'q>(
    fx: &mut EffectCtx<'_>,
    query: &'q JoinQuery,
    side: Side,
) -> &'q str {
    if let Some(attr) = query.join_attr(side) {
        return attr;
    }
    // T2: no single join attribute; pick pseudo-randomly among the side's
    // condition attributes (validated non-empty at construction; sorted and
    // deduplicated, matching the BTreeSet order previously collected here).
    let attrs = query.condition_attrs(side);
    let i = fx.rng().gen_range(0..attrs.len());
    attrs[i].as_str()
}

/// Emits the attribute-level `IndexQuery` batch for `sides`, one message
/// per configured replica identifier (Section 4.7).
pub(crate) fn pose_at_sides(ctx: &mut NodeCtx<'_>, query: &QueryRef, sides: &[Side]) -> Result<()> {
    let space = ctx.space();
    let k = ctx.config().replication;
    let mut targets: Vec<(Id, Message)> = Vec::new();
    for &side in sides {
        let attr = choose_index_attr(ctx, query, side);
        for id in indexing::aindex_replicas(space, query.relation(side), attr, k) {
            targets.push((
                id,
                Message::IndexQuery {
                    query: Arc::clone(query),
                    index_side: side,
                    index_attr: attr.to_string(),
                    index_id: id,
                },
            ));
        }
    }
    ctx.push(Effect::Batch {
        kind: TrafficKind::QueryIndex,
        targets,
    });
    Ok(())
}

/// Emits the tuple-indexing batch: one attribute-level message per
/// attribute, plus a value-level message when the algorithm stores tuples
/// at the value level (Section 4.2).
pub(crate) fn publish_tuple(ctx: &mut NodeCtx<'_>, tuple: &Arc<Tuple>, value_level: bool) {
    let space = ctx.space();
    let ids = indexing::tuple_index_ids(space, tuple, value_level, ctx.config().replication);
    let mut targets: Vec<(Id, Message)> = Vec::with_capacity(ids.len() * 2);
    for (attr, ai, vi) in ids {
        targets.push((
            ai,
            Message::AlIndexTuple {
                tuple: Arc::clone(tuple),
                attr: attr.clone(),
                index_id: ai,
            },
        ));
        if let Some(vi) = vi {
            targets.push((
                vi,
                Message::VlIndexTuple {
                    tuple: Arc::clone(tuple),
                    attr,
                    index_id: vi,
                },
            ));
        }
    }
    ctx.push(Effect::Batch {
        kind: TrafficKind::TupleIndex,
        targets,
    });
}

/// Probes both candidate rewriters of `query` for their arrival statistics
/// (Section 4.3.6), returning `(left, right)` `(count, distinct)` pairs.
pub(crate) fn probe_rewriters(
    ctx: &mut NodeCtx<'_>,
    query: &JoinQuery,
) -> Result<((u64, usize), (u64, usize))> {
    let space = ctx.space();
    let k = ctx.config().replication;
    let mut out = [(0u64, 0usize); 2];
    for side in Side::BOTH {
        let rel = query.relation(side);
        let attr = choose_index_attr(ctx, query, side);
        // Probe the base identifier (replica 0) — the canonical rewriter.
        let id = indexing::aindex_replica(space, rel, attr, 0, k);
        out[side.idx()] = ctx.probe_arrival_stats(rel, attr, id)?;
    }
    Ok((out[0], out[1]))
}

/// T1 tuple arrival at a rewriter (Sections 4.3.2 / 4.4.2 / 4.4.3): rewrite
/// every triggered query, reindex each group's rewritten queries at the
/// value level with one `Join` message per group. `dedup_reindex` enables
/// DAI-T's rewriter memory ("a rewriter does not need to reindex the same
/// rewritten query more than once", Section 4.4.3).
///
/// The ALQT groups are scanned in place — entries scoped to other replica
/// identifiers are skipped during iteration, and the filtering work counter
/// tallies exactly the entries addressed to this replica (matching or not
/// on `index_attr`), as before.
pub(crate) fn t1_tuple_arrival(
    ctx: &mut NodeCtx<'_>,
    tuple: &Arc<Tuple>,
    attr: &str,
    index_id: Id,
    dedup_reindex: bool,
) -> Result<()> {
    let rel = tuple.relation();
    let value_key = tuple.canonical_of(attr)?;
    let (st, fx) = ctx.split();
    st.record_arrival(rel, attr, value_key);
    // Split the node state: the group scan borrows the ALQT shared while
    // DAI-T's dedup memory is written through the disjoint `reindexed`.
    let NodeState {
        tables, reindexed, ..
    } = st;
    let space = fx.space();
    let mut checks = 0u64;
    for (_group, stored) in tables.alqt.groups(rel, attr) {
        let mut items: Vec<RewrittenQuery> = Vec::new();
        let mut target: Option<Id> = None;
        for (i, sq) in stored.iter().enumerate() {
            if sq.index_id != index_id {
                continue;
            }
            checks += 1;
            debug_assert_eq!(sq.index_attr, attr, "ALQT buckets by index attribute");
            let dis_side = sq.index_side.other();
            let dis_attr = sq
                .query
                .join_attr(dis_side)
                .ok_or_else(|| EngineError::Protocol {
                    detail: format!(
                        "stored query {} has no join attribute on its \
                             distributing side (corrupted ALQT entry?)",
                        sq.query.key()
                    ),
                })?;
            let Some(rq) = RewrittenQuery::rewrite_attribute(
                &sq.query,
                sq.index_side,
                &sq.index_attr,
                dis_attr,
                tuple,
            )?
            else {
                continue;
            };
            if dedup_reindex
                && reindexed
                    .insert_with(&rq, RewrittenQuery::to_identity)
                    .is_none()
            {
                continue;
            }
            // A group shares its join condition, so one evaluator serves it:
            // `Hash(DisR + DisA + v)`, `v` being the tuple's value of `attr`.
            let dis_rel = sq.query.relation(dis_side);
            let id = *target.get_or_insert_with(|| {
                indexing::vindex_attr_canonical(space, dis_rel, dis_attr, value_key)
            });
            debug_assert_eq!(
                id,
                indexing::vindex_attr(space, dis_rel, dis_attr, rq.target().value()),
                "group shares one evaluator"
            );
            if items.is_empty() {
                items.reserve(stored.len() - i);
            }
            items.push(rq);
        }
        if let Some(id) = target {
            fx.push(Effect::Send {
                id,
                msg: Message::Join {
                    items,
                    index_id: id,
                },
            });
        }
    }
    if checks > 0 {
        let node = fx.node().index();
        fx.metrics().add_rewriter_filtering(node, checks);
    }
    Ok(())
}

/// How many of `items`' leading entries share the head's evaluator bucket
/// — its `(DisR, DisA, value)`. The items of a `Join` message were
/// reindexed under one identifier, so this is normally all of them; an
/// evaluator resolves its tables once per such run instead of once per item.
pub(crate) fn target_run_len(items: &[RewrittenQuery]) -> usize {
    let run = items.chunk_by(RewrittenQuery::same_bucket).next();
    run.map_or(0, <[_]>::len)
}

/// How many of `items`' leading entries share the head's shape
/// ([`RewrittenQuery::same_shape`]). A shape includes the target and the
/// free relation, so such a run also shares its evaluator bucket.
pub(crate) fn shape_run_len(items: &[RewrittenQuery]) -> usize {
    items
        .chunk_by(RewrittenQuery::same_shape)
        .next()
        .map_or(0, <[_]>::len)
}

/// The `(DisR, DisA)` a run headed by `head` targets, with the canonical
/// form of the value written into `value_key`. Returns a typed protocol
/// violation when the rewritten query carries a value target (those never
/// travel in plain `Join` messages).
pub(crate) fn attribute_target<'q>(
    fx: &EffectCtx<'_>,
    head: &'q RewrittenQuery,
    value_key: &mut String,
) -> Result<(&'q str, &'q str)> {
    let MatchTarget::Attribute { attr, value } = head.target() else {
        return Err(fx.violation(format!(
            "rewritten query {head} carries a value target; T1 evaluators match attribute targets only"
        )));
    };
    value_key.clear();
    value.canonical_into(value_key);
    Ok((head.free_relation(), attr))
}

/// Matches runs of rewritten queries against one candidate list each — a
/// `Join` message's items against the VLTT bucket they target (Section
/// 4.3.3), a `JoinV` message's against the value store (Section 4.5) — and,
/// the other way round, an arriving tuple against a VLQT bucket
/// ([`Self::match_vlqt`]).
///
/// `rq.matches(t)` is a time test, `pubT(t) >= insT(q)`, and a shape test —
/// relation, free-side filters, target — that rewritings of
/// [`RewrittenQuery::same_shape`] answer alike. The items of one message
/// nearly always share their shape, as they share their group's join
/// condition (Section 4.3.5). So per sub-run of equal shape the matcher
/// decides the shape test once per candidate, into a verdict — no, yes
/// with the candidate's `pubT`, or an error deferred with its `pubT` — and
/// per rewriting only compares `insT(q)` with the yes verdicts' times: one
/// binary search over them, sorted, in counts mode, and otherwise one
/// integer comparison per pair. It arrives where the pairwise loop
///
/// ```text
/// for rq in run { for t in candidates { if rq.matches(t)? { matches.add(rq, t)? } } }
/// ```
///
/// arrives: the same per-query counts (added with one
/// [`QueryCounts::add_n`](crate::protocol::QueryCounts::add_n) per
/// rewriting that matched at all), the same notifications in the same
/// rewriting-major, candidate-minor order, and the same error — a deferred
/// error surfaces at the first pair, in that order, whose time test
/// passes, because the pairwise loop never runs the shape test of a pair
/// the time test rejects and stops at the first one that fails.
///
/// The buffers live as long as the matcher (one per network, lent to
/// each handler with the network's other scratch buffers), so
/// steady-state matching allocates nothing.
#[derive(Debug, Default)]
pub struct RunMatcher {
    /// The candidates whose shape verdict is yes: `pubT` and position, by
    /// ascending `pubT` in counts mode and in candidate order otherwise.
    yes: Vec<(Timestamp, usize)>,
    /// Candidates whose shape test failed: position, `pubT`, error.
    failed: Vec<(usize, Timestamp, RelationalError)>,
    /// How many candidates the verdicts cover; `None` until decided.
    decided: Option<usize>,
    /// The rewriting the verdicts were decided for, and whether sorted.
    #[cfg(debug_assertions)]
    shape: Option<(RewrittenQuery, bool)>,
    /// What [`Self::match_vlqt`] files VLQT ledgers with.
    ledgers: LedgerScratch,
}

impl RunMatcher {
    /// Forgets the verdicts: the next rewriting starts a new shape.
    pub fn reset(&mut self) {
        self.decided = None;
    }

    /// Matches every rewriting of `run` against `candidates`, in order,
    /// calling `matched` with how many matches each one produced.
    pub fn match_run<C: AsRef<Tuple>>(
        &mut self,
        run: &[RewrittenQuery],
        candidates: &[C],
        matches: &mut Matches,
        mut matched: impl FnMut(u64),
    ) -> cq_relational::Result<()> {
        for shape in run.chunk_by(RewrittenQuery::same_shape) {
            self.reset();
            for rq in shape {
                matched(self.match_rewriting(rq.view(), candidates, matches)?);
            }
        }
        Ok(())
    }

    /// Matches one rewriting against `candidates`, returning how many
    /// matches it produced. The first call after [`Self::reset`] decides
    /// the verdicts; until the next reset, every call must pass a rewriting
    /// of the same shape, the same candidates and the same retention mode.
    pub fn match_rewriting<C: AsRef<Tuple>>(
        &mut self,
        rq: RewrittenRef<'_>,
        candidates: &[C],
        matches: &mut Matches,
    ) -> cq_relational::Result<u64> {
        let sort = matches!(matches, Matches::Counts(_));
        match self.decided {
            None => self.decide(rq, candidates, sort),
            Some(covered) => {
                debug_assert_eq!(covered, candidates.len(), "candidates changed");
                #[cfg(debug_assertions)]
                debug_assert!(
                    self.shape
                        .as_ref()
                        .is_some_and(|(s, sorted)| s.view().same_shape(&rq) && *sorted == sort),
                    "{rq} does not have the decided shape and mode"
                );
            }
        }
        let ins = rq.query().ins_time();
        let failed = self.failed.iter().find(|f| f.1 >= ins);
        match matches {
            Matches::Counts(counts) => {
                if let Some((_, _, e)) = failed {
                    return Err(e.clone());
                }
                let n = (self.yes.len() - self.yes.partition_point(|y| y.0 < ins)) as u64;
                debug_assert_eq!(n, self.yes.iter().filter(|y| y.0 >= ins).count() as u64);
                if n > 0 {
                    counts.add_n(rq.query(), n);
                }
                Ok(n)
            }
            Matches::Full(out) => {
                let before = out.len();
                let stop = failed.map_or(candidates.len(), |f| f.0);
                for &(time, at) in &self.yes {
                    if at > stop {
                        break;
                    }
                    if time >= ins {
                        out.push(rq.notification_with(candidates[at].as_ref())?);
                    }
                }
                if let Some((_, _, e)) = failed {
                    return Err(e.clone());
                }
                Ok((out.len() - before) as u64)
            }
        }
    }

    /// Decides `shape`'s shape test for every candidate, yes verdicts by `pubT` if `sort`.
    fn decide<C: AsRef<Tuple>>(&mut self, shape: RewrittenRef<'_>, candidates: &[C], sort: bool) {
        self.yes.clear();
        self.failed.clear();
        for (at, c) in candidates.iter().enumerate() {
            let t = c.as_ref();
            match shape.shape_matches(t) {
                Ok(true) => self.yes.push((t.pub_time(), at)),
                Ok(false) => {}
                Err(e) => self.failed.push((at, t.pub_time(), e)),
            }
        }
        if sort && !self.yes.is_sorted_by_key(|y| y.0) {
            self.yes.sort_unstable_by_key(|y| y.0);
        }
        self.decided = Some(candidates.len());
        #[cfg(debug_assertions)]
        {
            self.shape = Some((shape.into_owned(), sort));
        }
    }

    /// Matches an arriving value-level tuple against the VLQT bucket of its
    /// `(relation, attr, value)` (Section 4.3.4), returning how many
    /// rewritings the bucket holds.
    ///
    /// The other direction of [`Self::match_run`]: here the stored side is
    /// the rewritings, so the bucket's ledger — its runs of one shape, each
    /// with a tally per query — does what the verdicts do there. Per run
    /// the shape test is decided once, on the run's head. All of a query's
    /// rewritings share its `insT`, so per tally the time test is one
    /// compare and, in counts mode, the count is added with one
    /// [`QueryCounts::add_n`](crate::protocol::QueryCounts::add_n). It
    /// arrives where the pairwise loop
    ///
    /// ```text
    /// for e in bucket { if e.rq.matches(t)? { matches.add(&e.rq, t)? } }
    /// ```
    ///
    /// arrives. A query enters the counts at its first entry in the first
    /// run that matches, which is where that loop enters it. Retention mode
    /// walks a matching run's entries in stored order, so the notifications
    /// come in bucket order. A run whose shape test fails fails the scan at
    /// its first entry whose time test passes, so the error is returned
    /// when any of its tallies passes the time test. The runs before it
    /// have already been matched, as that loop matches them.
    pub fn match_vlqt(
        &mut self,
        vlqt: &mut Vlqt,
        tuple: &Tuple,
        attr: &str,
        matches: &mut Matches,
    ) -> cq_relational::Result<u64> {
        let col = tuple.schema().index_of(attr)?;
        let value_key = tuple.canonical_at(col);
        let Some((entries, ledger)) =
            vlqt.ledger(tuple.relation(), attr, value_key, &mut self.ledgers)
        else {
            return Ok(0);
        };
        // The bucket's target: the tuple's value is the one it is keyed by.
        let value = (&tuple.values()[col]).into();
        let target = TargetRef::Attribute { attr, value };
        let admits = |t: &Tally| tuple.pub_time() >= t.query.ins_time();
        for run in ledger.runs(entries, target) {
            match run.head().shape_matches(tuple) {
                Ok(false) => {}
                Ok(true) => match matches {
                    Matches::Counts(counts) => {
                        for tally in run.tallies.iter().filter(|t| admits(t)) {
                            counts.add_n(&tally.query, tally.count);
                        }
                    }
                    Matches::Full(out) => {
                        for e in run.entries.iter().filter(|e| e.admits_time(tuple)) {
                            out.push(e.notification_with(tuple)?);
                        }
                    }
                },
                Err(e) => {
                    if run.tallies.iter().any(admits) {
                        return Err(e);
                    }
                }
            }
        }
        Ok(entries.len() as u64)
    }
}

/// Charges one evaluation — of a rewriting, or of an arriving tuple against
/// a VLQT bucket: the `candidates` it was checked against are the
/// evaluator's filtering work (the paper counts it per rewriting), and one
/// `JoinEval` event records what it produced.
pub(crate) fn note_join_eval(fx: &mut EffectCtx<'_>, candidates: u64, produced: u64) {
    let node = fx.node().index();
    fx.metrics().add_evaluator_filtering(node, candidates);
    let tick = fx.tick();
    fx.trace(|| TraceEvent::JoinEval {
        tick,
        node: node as u32,
        candidates,
        matches: produced,
    });
}

/// Matches an arriving value-level tuple against the VLQT (Section 4.3.4)
/// in place ([`RunMatcher::match_vlqt`]), returning the accumulated
/// matches. The bucket's C rewritings are charged as one evaluation.
pub(crate) fn match_vlqt_candidates(
    fx: &mut EffectCtx<'_>,
    vlqt: &mut Vlqt,
    tuple: &Arc<Tuple>,
    attr: &str,
) -> Result<Matches> {
    let mut matches = fx.new_matches();
    let mut matcher = fx.take_matcher();
    let scanned = matcher.match_vlqt(vlqt, tuple, attr, &mut matches);
    fx.restore_matcher(matcher);
    #[cfg(debug_assertions)]
    shadow_check_vlqt(vlqt, tuple, attr, &scanned, &matches);
    note_join_eval(fx, scanned?, matches.len());
    Ok(matches)
}

/// Debug builds check every VLQT scan against the pairwise loop the ledger
/// replaced: the same candidate count or error, the same counts entries —
/// query address and count, in order — and total, the same notifications.
#[cfg(debug_assertions)]
fn shadow_check_vlqt(
    vlqt: &Vlqt,
    tuple: &Tuple,
    attr: &str,
    scanned: &cq_relational::Result<u64>,
    matches: &Matches,
) {
    let mut pairwise = Matches::new(matches!(matches, Matches::Full(_)));
    let mut scan = || -> cq_relational::Result<u64> {
        let mut candidates = 0;
        for e in vlqt.candidates(tuple.relation(), attr, tuple.canonical_of(attr)?) {
            candidates += 1;
            if e.rq.matches(tuple)? {
                pairwise.add(&e.rq, tuple)?;
            }
        }
        Ok(candidates)
    };
    assert_eq!(&scan(), scanned, "VLQT ledger scan of {tuple} on {attr}");
    match (matches, &pairwise) {
        (Matches::Counts(got), Matches::Counts(want)) => {
            let (got, want) = (got.per_query(), want.per_query());
            assert_eq!(got, want, "VLQT ledger counts of {tuple}");
            assert_eq!(
                matches.len(),
                pairwise.len(),
                "VLQT ledger total of {tuple}"
            );
        }
        (Matches::Full(got), Matches::Full(want)) => {
            assert_eq!(got, want, "VLQT ledger notifications of {tuple}")
        }
        _ => unreachable!("one retention mode"),
    }
}

/// Stores a value-level tuple in the VLTT (mirrored when k-successor
/// replication is on).
pub(crate) fn store_value_tuple(
    st: &mut NodeState,
    fx: &mut EffectCtx<'_>,
    entry: StoredTuple,
) -> Result<()> {
    let (tick, node) = (fx.tick(), fx.node().index() as u32);
    fx.trace(|| TraceEvent::IndexInsert {
        tick,
        node,
        table: "vltt",
        fresh: true, // the VLTT keeps every arrival (no dedup key)
    });
    st.store(fx, ReplicaItem::Tuple(entry)).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::{parse_query, Catalog, DataType, QueryKey, RelationSchema, Value};

    /// `R(A, B, C)` and `S(C, D)`, or with `R`'s attributes in the order
    /// `C, B, A`.
    fn catalog(reordered: bool) -> Catalog {
        let r = if reordered {
            ["C", "B", "A"]
        } else {
            ["A", "B", "C"]
        };
        let mut c = Catalog::new();
        let r = RelationSchema::of("R", &r.map(|n| (n, DataType::Int))).unwrap();
        c.register(r).unwrap();
        let s = RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap();
        c.register(s).unwrap();
        c
    }

    /// The bucket test as it read before it compared schema pointers:
    /// target attribute and free relation by name.
    fn same_bucket_by_name(a: &RewrittenQuery, b: &RewrittenQuery) -> bool {
        let same_target = match (a.target(), b.target()) {
            (
                MatchTarget::Attribute { attr, value },
                MatchTarget::Attribute {
                    attr: other_attr,
                    value: other_value,
                },
            ) => attr.as_bytes() == other_attr.as_bytes() && value == other_value,
            (
                MatchTarget::ConditionValue { value },
                MatchTarget::ConditionValue { value: other },
            ) => value == other,
            _ => false,
        };
        same_target && a.free_relation() == b.free_relation()
    }

    /// Over rewritings of queries of one catalog, of two catalogs with equal
    /// content and of one whose `R` lists its attributes in another order —
    /// T1 and T2, with and without filters, attribute and value targets —
    /// a run's length is what the by-name test makes it.
    #[test]
    fn target_runs_are_cut_where_names_differ() {
        const WHERE: [&str; 5] = [
            "R.B = S.C",
            "R.A = S.C",
            "R.C = S.C",
            "R.B = S.C AND R.A = 1",
            "R.A + R.B = S.C",
        ];
        let catalogs = [catalog(false), catalog(false), catalog(true)];
        let mut items = Vec::new();
        for (ci, c) in catalogs.iter().enumerate() {
            for (n, cond) in WHERE.iter().enumerate() {
                let sql = format!("SELECT R.A, S.D FROM R, S WHERE {cond}");
                let key = QueryKey::derive(&format!("c{ci}"), n as u64);
                let parsed = parse_query(&sql, c).unwrap();
                let q = Arc::new(parsed.into_query(key, "n", Timestamp(0), c).unwrap());
                for side in Side::BOTH {
                    for v in [1, 2] {
                        let schema = Arc::clone(c.get(q.relation(side)).unwrap());
                        let values = vec![Value::Int(v); schema.arity()];
                        let t = Tuple::new(schema, values, Timestamp(5), 0).unwrap();
                        items.extend(RewrittenQuery::rewrite_value(&q, side, &t).unwrap());
                        if let (Some(index), Some(dis)) =
                            (q.join_attr(side), q.join_attr(side.other()))
                        {
                            let rq = RewrittenQuery::rewrite_attribute(&q, side, index, dis, &t);
                            items.extend(rq.unwrap());
                        }
                    }
                }
            }
        }
        let mut joined = 0;
        for a in &items {
            for b in &items {
                let want = 1 + usize::from(same_bucket_by_name(a, b));
                let pair = [a.clone(), b.clone()];
                assert_eq!(target_run_len(&pair), want, "{a} then {b}");
                joined += usize::from(want == 2 && !Arc::ptr_eq(a.query(), b.query()));
            }
        }
        assert!(joined > 0, "runs that cross queries and catalogs");
        let want = items
            .chunk_by(same_bucket_by_name)
            .next()
            .map_or(0, <[_]>::len);
        assert_eq!(target_run_len(&items), want);
        assert_eq!(target_run_len(&[]), 0);
    }
}
