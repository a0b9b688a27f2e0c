//! Query rewriting — the heart of the two-phase evaluation scheme
//! (Sections 4.3.2, 4.3.3 and 4.5).
//!
//! When a tuple `t` triggers a join query `q` at the attribute level, the
//! rewriter produces a *rewritten query* `q'`: a simple select-project query
//! in which every attribute of the triggering side has been replaced by its
//! value in `t` (generalized projection). `q'` is reindexed at the value
//! level, where it either matches already-stored tuples or waits for future
//! ones.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::error::{RelationalError, Result};
use crate::query::{BoundPlan, JoinQuery, QueryKey, QueryRef, Side};
use crate::tuple::Tuple;
use crate::value::{Timestamp, Value, ValueRef};

/// How the rewritten query identifies matching tuples at the value level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchTarget {
    /// T1 algorithms (SAI, DAI-Q, DAI-T): tuples of `DisR(q)` whose
    /// attribute `DisA(q)` equals `valDA(q, t)`.
    Attribute {
        /// `DisA(q)` — the load-distributing attribute. Shared with the
        /// query when it is the query's own join attribute (the only case
        /// the algorithms produce), so a rewriting owns no copy of it.
        attr: Arc<str>,
        /// `valDA(q, t)` — the value it must take.
        value: Value,
    },
    /// DAI-V: tuples of the other relation for which the other side of the
    /// join condition evaluates to `valJC`.
    ConditionValue {
        /// `valJC` — the value the other side's expression must produce.
        value: Value,
    },
}

impl MatchTarget {
    /// The value carried by the target (used for value-level hashing).
    pub fn value(&self) -> &Value {
        match self {
            MatchTarget::Attribute { value, .. } => value,
            MatchTarget::ConditionValue { value } => value,
        }
    }

    /// The target borrowed.
    #[inline]
    pub fn view(&self) -> TargetRef<'_> {
        match self {
            MatchTarget::Attribute { attr, value } => TargetRef::Attribute {
                attr,
                value: value.into(),
            },
            MatchTarget::ConditionValue { value } => TargetRef::ConditionValue {
                value: value.into(),
            },
        }
    }
}

/// A [`MatchTarget`] borrowed: a rewriting's own, or one read back from the
/// keys a table files rewritings under — the attribute's name and the
/// value's canonical form ([`ValueRef::parse_canonical`]). Two targets are
/// equal when their attribute names are (one pointer, else equal bytes) and
/// their values are.
#[derive(Clone, Copy, Debug, Eq)]
pub enum TargetRef<'a> {
    /// See [`MatchTarget::Attribute`].
    Attribute {
        /// `DisA(q)`.
        attr: &'a str,
        /// `valDA(q, t)`.
        value: ValueRef<'a>,
    },
    /// See [`MatchTarget::ConditionValue`].
    ConditionValue {
        /// `valJC`.
        value: ValueRef<'a>,
    },
}

impl PartialEq for TargetRef<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (
                TargetRef::Attribute { attr, value },
                TargetRef::Attribute {
                    attr: other_attr,
                    value: other_value,
                },
            ) => value == other_value && (std::ptr::eq(attr, other_attr) || attr == other_attr),
            (TargetRef::ConditionValue { value }, TargetRef::ConditionValue { value: other }) => {
                value == other
            }
            _ => false,
        }
    }
}

impl<'a> TargetRef<'a> {
    /// The value carried by the target.
    #[inline]
    pub fn value(self) -> ValueRef<'a> {
        match self {
            TargetRef::Attribute { value, .. } | TargetRef::ConditionValue { value } => value,
        }
    }
}

/// The select-clause values a rewriting has bound from the consumed tuple,
/// in select-list order. One value — what every query of the benchmark and
/// of the workload generators binds — lives inline; a longer list takes
/// one heap block. 24 bytes, the size of the one value.
#[derive(Clone, Debug)]
pub struct BoundValues(Bound);

#[derive(Clone, Debug)]
enum Bound {
    Zero,
    One(Value),
    Many(Box<[Value]>),
}

impl BoundValues {
    /// The values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Bound::Zero => &[],
            Bound::One(v) => std::slice::from_ref(v),
            Bound::Many(vs) => vs,
        }
    }
}

impl FromIterator<Value> for BoundValues {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let Some(a) = it.next() else {
            return BoundValues(Bound::Zero);
        };
        let Some(b) = it.next() else {
            return BoundValues(Bound::One(a));
        };
        // Two values take one exact block, where collecting would allocate
        // four slots and then shrink them.
        let Some(c) = it.next() else {
            return BoundValues(Bound::Many(Box::new([a, b])));
        };
        BoundValues(Bound::Many([a, b, c].into_iter().chain(it).collect()))
    }
}

/// What makes two rewritings the same rewriting (Section 4.3.3), besides
/// the value their target must take: the query they come from, the side
/// whose tuple was consumed and the select values bound from it — compared
/// exactly.
///
/// The bound side is part of it: a `q_L` and a `q_R` rewriting of one query
/// can bind the same select values and join value, and deduplication must
/// not drop one of them.
#[derive(Clone, Copy)]
struct Binding<'a> {
    query: &'a QueryRef,
    bound_side: Side,
    bound_values: &'a [Value],
}

impl PartialEq for Binding<'_> {
    fn eq(&self, other: &Self) -> bool {
        (Arc::ptr_eq(self.query, other.query) || self.query.key() == other.query.key())
            && self.bound_side == other.bound_side
            && self.bound_values == other.bound_values
    }
}

impl Binding<'_> {
    /// A 64-bit digest of the identity: this binding and `target_value`. It
    /// only routes a dedup probe to where an equal identity would sit;
    /// equality is decided by comparing.
    fn fingerprint(&self, target_value: ValueRef<'_>) -> u64 {
        let mut h = Mix(self.query.key_seed());
        self.bound_side.hash(&mut h);
        self.bound_values.hash(&mut h);
        target_value.hash(&mut h);
        h.finish()
    }
}

/// Where every fingerprint of a rewriting of the query keyed `key` starts:
/// the state after hashing `Key(q)`, which [`JoinQuery::new`] keeps. The
/// hasher carries nothing between writes but its state, so continuing from
/// it digests what hashing the key first would.
pub(crate) fn key_seed(key: &QueryKey) -> u64 {
    let mut h = Mix(0);
    key.hash(&mut h);
    h.finish()
}

/// The hash a subscriber's name is found by where matches are delivered.
/// A query computes it once, when it is built
/// ([`JoinQuery::subscriber_hash`]); a name that comes without a query
/// (a notification's, a rejoining node's own) is hashed here.
pub fn subscriber_hash(name: &str) -> u64 {
    let mut h = Mix(0);
    name.hash(&mut h);
    h.finish()
}

/// The fingerprint's mixing function: Fx-style rotate-xor-multiply over
/// 8-byte words. (`cq-fasthash` has the same function; depending on it
/// would change this crate's dependency list, which the lock file of the
/// frozen benchmark package records.)
struct Mix(u64);

impl Hasher for Mix {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
}

/// The identity of a rewritten query on its own — what a DAI-T rewriter
/// remembers of a rewriting it has already reindexed (Section 4.4.3),
/// without the rewriting's target attribute, column or trigger time.
#[derive(Clone, Debug)]
pub struct RewriteIdentity {
    query: QueryRef,
    bound_side: Side,
    bound_values: BoundValues,
    target_value: Value,
}

impl RewriteIdentity {
    fn binding(&self) -> Binding<'_> {
        Binding {
            query: &self.query,
            bound_side: self.bound_side,
            bound_values: self.bound_values.as_slice(),
        }
    }

    /// Whether `rq` is the rewriting this identity was taken from, or one
    /// with the same identity.
    pub fn is_of(&self, rq: &RewrittenQuery) -> bool {
        self.binding() == rq.binding() && self.target_value == *rq.target.value()
    }

    /// [`RewriteBody::fingerprint`] of the rewritings this identifies.
    pub fn fingerprint(&self) -> u64 {
        self.binding().fingerprint((&self.target_value).into())
    }
}

/// Something that is, or remembers, one rewritten query's identity
/// ([`RewrittenRef::same_identity`]): what a dedup set holds.
pub trait Rewriting {
    /// [`RewriteBody::fingerprint`] of the identity.
    fn fingerprint(&self) -> u64;
    /// Whether the item has `rq`'s identity.
    fn is_of(&self, rq: &RewrittenQuery) -> bool;
}

impl Rewriting for RewriteIdentity {
    fn fingerprint(&self) -> u64 {
        RewriteIdentity::fingerprint(self)
    }

    fn is_of(&self, rq: &RewrittenQuery) -> bool {
        RewriteIdentity::is_of(self, rq)
    }
}

/// A body is the rewriting `rq` when it binds what `rq` binds — in a set
/// that holds the bodies of one target, as a VLQT bucket does.
impl Rewriting for RewriteBody {
    #[inline]
    fn fingerprint(&self) -> u64 {
        RewriteBody::fingerprint(self)
    }

    #[inline]
    fn is_of(&self, rq: &RewrittenQuery) -> bool {
        self.same_binding(rq)
    }
}

/// A rewritten query without its target: what differs from one rewriting
/// to the next among those filed under one target, as a VLQT bucket files
/// them (Section 4.3.5). A [`RewrittenQuery`] is a body and its
/// [`MatchTarget`]; a [`RewrittenRef`] is one borrowed, with its target
/// borrowed from wherever it is kept. Both dereference to the body.
///
/// A flat value: a body with at most one bound select value, of type
/// `Int`, owns no heap memory. Two or more bound values take one heap
/// block.
#[derive(Clone, Debug)]
pub struct RewriteBody {
    query: QueryRef,
    bound_values: BoundValues,
    /// [`Binding::fingerprint`] with the target's value, computed once when
    /// the rewriting is built or decoded.
    fingerprint: u64,
    trigger_time: Timestamp,
    /// Schema position, in the free relation, of the value the target
    /// constrains — when that is the free side's bare join attribute
    /// (resolved once, see [`JoinQuery::join_column`]): the named attribute
    /// of an attribute target, the condition side of a value target. `None`
    /// sends [`RewrittenRef::shape_matches`] through the lookup by name, or
    /// through the condition expression.
    target_col: Option<u16>,
    bound_side: Side,
}

impl RewriteBody {
    fn binding(&self) -> Binding<'_> {
        Binding {
            query: &self.query,
            bound_side: self.bound_side,
            bound_values: self.bound_values.as_slice(),
        }
    }

    /// Whether the two are one rewriting when their targets take one value:
    /// the same query, bound side and bound values. What deduplicates the
    /// bodies filed under one target.
    #[inline]
    pub fn same_binding(&self, other: &RewriteBody) -> bool {
        self.binding() == other.binding()
    }

    /// A 64-bit digest of the identity, equal for rewritings with
    /// [`RewrittenRef::same_identity`]. Containers use it to find where an
    /// equal rewriting would sit and then compare; two different
    /// rewritings may share it.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The original query.
    #[inline]
    pub fn query(&self) -> &QueryRef {
        &self.query
    }

    /// The side whose tuple was consumed by the rewrite.
    #[inline]
    pub fn bound_side(&self) -> Side {
        self.bound_side
    }

    /// The side the rewritten query still has to match.
    #[inline]
    pub fn free_side(&self) -> Side {
        self.bound_side.other()
    }

    /// The relation the rewritten query waits for (`DisR(q)`).
    #[inline]
    pub fn free_relation(&self) -> &str {
        self.query.relation(self.free_side())
    }

    /// Whether the two wait for tuples of one relation: their free sides'
    /// schemas ([`JoinQuery::same_relation`]).
    #[inline]
    pub fn same_free_relation(&self, other: &RewriteBody) -> bool {
        self.query
            .same_relation(self.free_side(), &other.query, other.free_side())
    }

    /// Publication time of the tuple that produced this rewriting.
    #[inline]
    pub fn trigger_time(&self) -> Timestamp {
        self.trigger_time
    }

    /// Select-clause values already bound from the consumed tuple
    /// (in select-list order, only the bound side's positions).
    #[inline]
    pub fn bound_values(&self) -> &[Value] {
        self.bound_values.as_slice()
    }

    /// The time half of [`RewrittenRef::matches`]: `pubT(t) >= insT(q)`. It
    /// is decided first, so a tuple it rejects never reaches the shape test
    /// (nor any error the shape test would raise).
    #[inline]
    pub fn admits_time(&self, t: &Tuple) -> bool {
        t.pub_time() >= self.query.ins_time()
    }

    /// Whether the two wait for the same tuples of their free side: the
    /// same resolved target column, free relation, free-side filters in the
    /// same order and free-side condition. For two rewritings of one target
    /// — the bodies of one VLQT bucket — that is
    /// [`RewrittenRef::same_shape`]. Two rewritings of one query with the
    /// same free side compare without looking at the query; queries of one
    /// catalog compare schema pointers, not names
    /// ([`JoinQuery::same_relation`]), filters only when either side has
    /// one, and bare-attribute conditions by the schema's shared name.
    pub fn same_free_side(&self, other: &RewriteBody) -> bool {
        if self.target_col != other.target_col {
            return false;
        }
        let (free, other_free) = (self.free_side(), other.free_side());
        if Arc::ptr_eq(&self.query, &other.query) && free == other_free {
            return true;
        }
        fn free_filters(q: &JoinQuery, side: Side) -> impl Iterator<Item = (&str, &Value)> {
            q.filters()
                .iter()
                .filter(move |f| f.side == side)
                .map(|f| (f.attr.as_str(), &f.value))
        }
        let (q, other_q) = (&*self.query, &*other.query);
        let filtered = q.rewrite_plan(free).filtered || other_q.rewrite_plan(other_free).filtered;
        self.same_free_relation(other)
            && (!filtered || free_filters(q, free).eq(free_filters(other_q, other_free)))
            && match (q.join_column(free), other_q.join_column(other_free)) {
                (Some((a, _)), Some((b, _))) if Arc::ptr_eq(a, b) => true,
                _ => q.condition(free) == other_q.condition(other_free),
            }
    }

    /// Builds the notification for a tuple already known to match.
    ///
    /// Fails when the rewriting does not bind one value per select item of
    /// its bound side. A rewriting built here always does; one reassembled
    /// from the wire ([`RewrittenQuery::from_parts`]) carries whatever count
    /// its sender wrote.
    pub fn notification_with(&self, t: &Tuple) -> Result<Notification> {
        let free = self.free_side();
        let mut values = Vec::with_capacity(self.query.select().len());
        let mut bound_iter = self.bound_values().iter();
        for (item, &col) in self.query.select().iter().zip(self.query.select_columns()) {
            if item.side == self.bound_side {
                let Some(v) = bound_iter.next() else {
                    return Err(self.miscounted());
                };
                values.push(v.clone());
            } else {
                debug_assert_eq!(item.side, free);
                values.push(value_at(t, Some(col), &item.attr)?.clone());
            }
        }
        if bound_iter.next().is_some() {
            return Err(self.miscounted());
        }
        Ok(Notification {
            query_key: self.query.key().clone(),
            subscriber: self.query.subscriber().to_string(),
            values,
        })
    }

    #[cold]
    fn miscounted(&self) -> RelationalError {
        RelationalError::SchemaMismatch {
            relation: self.query.relation(self.bound_side).to_string(),
            detail: format!(
                "a rewriting of query {} binds {} values where its select \
                 list has {} on this side",
                self.query.key(),
                self.bound_values().len(),
                self.query.select_positions(self.bound_side).count()
            ),
        }
    }
}

/// A rewritten (select-project) query produced by a rewriter node: its
/// [`RewriteBody`], to which it dereferences, and its [`MatchTarget`].
/// What it answers beyond its parts, [`RewrittenRef`] answers for it.
#[derive(Clone, Debug)]
pub struct RewrittenQuery {
    body: RewriteBody,
    target: MatchTarget,
}

impl Deref for RewrittenQuery {
    type Target = RewriteBody;

    #[inline]
    fn deref(&self) -> &RewriteBody {
        &self.body
    }
}

/// `side`'s join attribute as `(shared name, column)` when `attr` names it.
fn join_target<'q>(query: &'q JoinQuery, side: Side, attr: &str) -> Option<(&'q Arc<str>, u16)> {
    let (name, col) = query.join_column(side)?;
    if !std::ptr::eq(&**name, attr) && **name != *attr {
        return None;
    }
    Some((name, u16::try_from(col).ok()?))
}

/// An attribute target's `DisA` on the `free` side — shared with the query
/// when it names the side's join attribute, a copy otherwise — and the
/// schema position it is then read at.
fn attr_target(query: &JoinQuery, free: Side, attr: &str) -> (Arc<str>, Option<u16>) {
    match join_target(query, free, attr) {
        Some((shared, col)) => (Arc::clone(shared), Some(col)),
        None => (Arc::from(attr), None),
    }
}

impl RewrittenQuery {
    /// Rewrites `query` for the T1 algorithms after tuple `t` (of relation
    /// `IndexR(q)`, playing `index_side`) triggered it. Returns `None` when
    /// the tuple does not trigger the query (time or filters).
    ///
    /// `index_attr` is the attribute of `t`'s relation chosen as `IndexA(q)`
    /// and `dis_attr` the load-distributing attribute `DisA(q)` on the other
    /// side.
    pub fn rewrite_attribute(
        query: &QueryRef,
        index_side: Side,
        index_attr: &str,
        dis_attr: &str,
        t: &Tuple,
    ) -> Result<Option<RewrittenQuery>> {
        if !query.triggered_by(index_side, t)? {
            return Ok(None);
        }
        let index_col = join_target(query, index_side, index_attr).map(|(_, col)| col.into());
        let val_da = value_at(t, index_col, index_attr)?.clone();
        let (attr, target_col) = attr_target(query, index_side.other(), dis_attr);
        let target = MatchTarget::Attribute {
            attr,
            value: val_da,
        };
        let bound_values = bound_select_values(query, index_side, t)?;
        Ok(Some(Self::assemble(
            Arc::clone(query),
            index_side,
            bound_values,
            target,
            target_col,
            t.pub_time(),
        )))
    }

    /// Rewrites `query` for DAI-V: the match target is the *value of the
    /// join-condition side* computed from `t` (`valJC(q, t)`, Section 4.5).
    ///
    /// A condition side that is a bare attribute (both sides of a T1 query)
    /// is read at its resolved schema position; a compound one, or a tuple
    /// too short for that position, is evaluated as an expression.
    pub fn rewrite_value(
        query: &QueryRef,
        side: Side,
        t: &Tuple,
    ) -> Result<Option<RewrittenQuery>> {
        if !query.triggered_by(side, t)? {
            return Ok(None);
        }
        let val_jc = match query
            .join_column(side)
            .and_then(|(_, col)| t.values().get(col))
        {
            Some(v) => v.clone(),
            None => query.condition(side).eval(t)?,
        };
        let bound_values = bound_select_values(query, side, t)?;
        Ok(Some(Self::assemble(
            Arc::clone(query),
            side,
            bound_values,
            MatchTarget::ConditionValue { value: val_jc },
            condition_col(query, side.other()),
            t.pub_time(),
        )))
    }

    /// Reassembles a rewritten query from its already-computed parts — the
    /// wire-decoding path. `target_attr` is `Some(DisA)` for an attribute
    /// target and `None` for a condition-value target. Identity is taken
    /// from these parts, never from a key the sender wrote, and the target
    /// is resolved against `query` exactly as [`Self::rewrite_attribute`]
    /// and [`Self::rewrite_value`] do, so a decoded rewriting deduplicates
    /// and matches like the one the sender held.
    pub fn from_parts(
        query: QueryRef,
        bound_side: Side,
        bound_values: BoundValues,
        target_attr: Option<&str>,
        target_value: Value,
        trigger_time: Timestamp,
    ) -> RewrittenQuery {
        let free = bound_side.other();
        let (target, target_col) = match target_attr {
            Some(attr) => {
                let (attr, col) = attr_target(&query, free, attr);
                let value = target_value;
                (MatchTarget::Attribute { attr, value }, col)
            }
            None => (
                MatchTarget::ConditionValue {
                    value: target_value,
                },
                condition_col(&query, free),
            ),
        };
        Self::assemble(
            query,
            bound_side,
            bound_values,
            target,
            target_col,
            trigger_time,
        )
    }

    fn assemble(
        query: QueryRef,
        bound_side: Side,
        bound_values: BoundValues,
        target: MatchTarget,
        target_col: Option<u16>,
        trigger_time: Timestamp,
    ) -> RewrittenQuery {
        let fingerprint = Binding {
            query: &query,
            bound_side,
            bound_values: bound_values.as_slice(),
        }
        .fingerprint(target.value().into());
        let body = RewriteBody {
            query,
            bound_values,
            fingerprint,
            trigger_time,
            target_col,
            bound_side,
        };
        RewrittenQuery { body, target }
    }

    /// Puts a body back together with the target it was built with, read
    /// back from where it was filed. An attribute target's `DisA` is
    /// resolved against the query as [`Self::from_parts`] resolves it.
    pub fn from_body(body: RewriteBody, target: TargetRef<'_>) -> RewrittenQuery {
        let target = match target {
            TargetRef::Attribute { attr, value } => MatchTarget::Attribute {
                attr: attr_target(&body.query, body.free_side(), attr).0,
                value: value.into(),
            },
            TargetRef::ConditionValue { value } => MatchTarget::ConditionValue {
                value: value.into(),
            },
        };
        RewrittenQuery { body, target }
    }

    /// The two parts, for a table that files the body under its target.
    #[inline]
    pub fn into_parts(self) -> (RewriteBody, MatchTarget) {
        (self.body, self.target)
    }

    /// The rewriting borrowed.
    #[inline]
    pub fn view(&self) -> RewrittenRef<'_> {
        RewrittenRef::new(&self.body, self.target.view())
    }

    /// The match target.
    #[inline]
    pub fn target(&self) -> &MatchTarget {
        &self.target
    }

    /// See [`RewrittenRef::same_identity`].
    pub fn same_identity(&self, other: &RewrittenQuery) -> bool {
        self.view().same_identity(&other.view())
    }

    /// The identity alone, to be remembered after the rewriting is gone.
    pub fn to_identity(&self) -> RewriteIdentity {
        RewriteIdentity {
            query: Arc::clone(&self.query),
            bound_side: self.bound_side,
            bound_values: self.bound_values.clone(),
            target_value: self.target.value().clone(),
        }
    }

    /// See [`RewrittenRef::write_key`].
    pub fn write_key<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.view().write_key(out)
    }

    /// See [`RewrittenRef::key_len`].
    pub fn key_len(&self) -> usize {
        self.view().key_len()
    }

    /// See [`RewrittenRef::matches`].
    #[inline]
    pub fn matches(&self, t: &Tuple) -> Result<bool> {
        self.view().matches(t)
    }

    /// See [`RewrittenRef::shape_matches`].
    #[inline]
    pub fn shape_matches(&self, t: &Tuple) -> Result<bool> {
        self.view().shape_matches(t)
    }

    /// See [`RewrittenRef::same_shape`].
    pub fn same_shape(&self, other: &RewrittenQuery) -> bool {
        self.view().same_shape(&other.view())
    }

    /// Whether the two are filed under one evaluator bucket: the same
    /// target and [`RewriteBody::same_free_relation`].
    #[inline]
    pub fn same_bucket(&self, other: &RewrittenQuery) -> bool {
        self.target == other.target && self.same_free_relation(other)
    }

    /// Tries to match a tuple of the free relation; on success produces the
    /// notification content.
    pub fn match_tuple(&self, t: &Tuple) -> Result<Option<Notification>> {
        if !self.matches(t)? {
            return Ok(None);
        }
        Ok(Some(self.notification_with(t)?))
    }
}

impl fmt::Display for RewrittenQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// A rewritten query borrowed where its two parts are kept: a body, and a
/// target — a [`RewrittenQuery`]'s own, or one a table reads back from the
/// keys it files bodies under. It dereferences to the body.
#[derive(Clone, Copy, Debug)]
pub struct RewrittenRef<'a> {
    body: &'a RewriteBody,
    target: TargetRef<'a>,
}

impl Deref for RewrittenRef<'_> {
    type Target = RewriteBody;

    #[inline]
    fn deref(&self) -> &RewriteBody {
        self.body
    }
}

impl<'a> RewrittenRef<'a> {
    /// `body` with `target`, the target it was built with.
    #[inline]
    pub fn new(body: &'a RewriteBody, target: TargetRef<'a>) -> Self {
        RewrittenRef { body, target }
    }

    /// The match target.
    #[inline]
    pub fn target(&self) -> TargetRef<'a> {
        self.target
    }

    /// An owned copy ([`RewrittenQuery::from_body`]).
    pub fn into_owned(self) -> RewrittenQuery {
        RewrittenQuery::from_body(self.body.clone(), self.target)
    }

    /// Whether the two are the same rewriting in the sense of `Key(q')`
    /// (Section 4.3.3): "created from the same query q but by different
    /// tuples that have the same value for IndexA(q)" *and* the same
    /// projected values — decided on the parts themselves, so values that
    /// merely print alike stay apart.
    pub fn same_identity(&self, other: &RewrittenRef<'_>) -> bool {
        self.same_binding(other) && self.target.value() == other.target.value()
    }

    /// Writes the legacy `Key(q')` text: the query key, the bound side, and
    /// the canonical form of every bound value and of the target value,
    /// joined by `+`. It is a rendering for the wire field, the
    /// anti-entropy digest and diagnostics — **not** the identity: a `Str`
    /// value containing `+` can make two different rewritings print alike.
    pub fn write_key<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str(&self.query.key().0)?;
        out.write_str(match self.bound_side {
            Side::Left => "/L",
            Side::Right => "/R",
        })?;
        for v in self.bound_values() {
            out.write_char('+')?;
            v.write_canonical(out)?;
        }
        out.write_char('+')?;
        self.target.value().write_canonical(out)
    }

    /// Length in bytes of what [`Self::write_key`] writes.
    pub fn key_len(&self) -> usize {
        let bound = self.bound_values().iter().map(|v| 1 + v.canonical_len());
        let target = 1 + self.target.value().canonical_len();
        self.query.key().0.len() + 2 + bound.sum::<usize>() + target
    }

    /// Whether a tuple of the free relation completes the join — the time
    /// test [`RewriteBody::admits_time`], then the shape test
    /// [`Self::shape_matches`] — without building the notification.
    #[inline]
    pub fn matches(&self, t: &Tuple) -> Result<bool> {
        Ok(self.admits_time(t) && self.shape_matches(t)?)
    }

    /// The shape half of [`Self::matches`]: the tuple is of the free
    /// relation, passes the free side's filters in order, and carries the
    /// match target. Rewritings of [`Self::same_shape`] answer it alike for
    /// every tuple, errors included — which is what lets an evaluator decide
    /// it once per candidate for a whole run of them.
    ///
    /// A target on the free side's bare join attribute — an attribute
    /// target naming it, or a value target whose condition side is that
    /// attribute — is read by its resolved schema position (the relation
    /// test has established that `t` is of the free relation). Any other
    /// target attribute is looked up by name, a compound condition is
    /// evaluated, and so is either when the tuple is too short for the
    /// position.
    #[inline]
    pub fn shape_matches(&self, t: &Tuple) -> Result<bool> {
        let free = self.free_side();
        if !self.query.is_relation_of(free, t) || !self.query.filters_pass(free, t)? {
            return Ok(false);
        }
        let at_col = self.target_col.and_then(|c| t.values().get(usize::from(c)));
        Ok(match (self.target, at_col) {
            (target, Some(v)) => ValueRef::from(v) == target.value(),
            (TargetRef::Attribute { attr, value }, None) => ValueRef::from(t.get(attr)?) == value,
            (TargetRef::ConditionValue { value }, None) => {
                ValueRef::from(&self.query.condition(free).eval(t)?) == value
            }
        })
    }

    /// Whether the two rewritings have the same shape: the same target
    /// (attribute name and value) and [`RewriteBody::same_free_side`].
    /// Everything [`Self::shape_matches`] reads is then equal, so it returns
    /// the same for both on every tuple.
    pub fn same_shape(&self, other: &RewrittenRef<'_>) -> bool {
        self.target == other.target && self.same_free_side(other)
    }
}

impl fmt::Display for RewrittenRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT <bound> FROM {} WHERE ", self.free_relation())?;
        match self.target {
            TargetRef::Attribute { attr, value } => write!(f, "{attr} = {value} [")?,
            TargetRef::ConditionValue { value } => {
                write!(f, "{} = {value} [", self.query.condition(self.free_side()))?
            }
        }
        self.write_key(f)?;
        f.write_str("]")
    }
}

/// The schema position a value target on `free` compares at: the side's
/// bare join attribute, when its condition is one.
fn condition_col(query: &JoinQuery, free: Side) -> Option<u16> {
    let (_, col) = query.join_column(free)?;
    u16::try_from(col).ok()
}

/// The value of attribute `attr` in `t`, read at the schema position `col`
/// it was resolved to; by name when there is none or the tuple is too short
/// for it.
#[inline]
fn value_at<'t>(t: &'t Tuple, col: Option<usize>, attr: &str) -> Result<&'t Value> {
    match col.and_then(|c| t.values().get(c)) {
        Some(v) => Ok(v),
        None => t.get(attr),
    }
}

/// `side`'s select values in `t`, read by the side's plan: none, or the one
/// at its schema position, or — for two or more, or a tuple too short for
/// the position — the select list walked, by position and then by name.
#[inline]
fn bound_select_values(query: &JoinQuery, side: Side, t: &Tuple) -> Result<BoundValues> {
    match query.rewrite_plan(side).bound {
        BoundPlan::Zero => return Ok(BoundValues(Bound::Zero)),
        BoundPlan::One(col) => {
            if let Some(v) = t.values().get(usize::from(col)) {
                return Ok(BoundValues(Bound::One(v.clone())));
            }
        }
        BoundPlan::Many => {}
    }
    query
        .select()
        .iter()
        .zip(query.select_columns())
        .filter(|(it, _)| it.side == side)
        .map(|(it, &col)| value_at(t, Some(col), &it.attr).cloned())
        .collect()
}

/// The answer sent to a query's subscriber when its `WHERE` clause is
/// satisfied (Section 3.2 / 4.6).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Notification {
    /// Key of the satisfied query.
    pub query_key: QueryKey,
    /// Key of the node that posed the query.
    pub subscriber: String,
    /// The select-list values, in select order.
    pub values: Vec<Value>,
}

impl fmt::Display for Notification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> (", self.query_key)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::query::{Filter, QueryKey, QuerySpec, SelectItem};
    use crate::schema::{Catalog, RelationSchema};
    use crate::value::DataType;

    fn setup() -> (Catalog, QueryRef) {
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &[("A", DataType::Int), ("C", DataType::Int)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("S", &[("B", DataType::Int), ("C", DataType::Int)]).unwrap())
            .unwrap();
        // The paper's Section 4.3.2 example:
        //   SELECT R.A, S.B FROM R, S WHERE R.C = S.C
        let q = Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("n", 0),
                    subscriber: "n".into(),
                    ins_time: Timestamp(0),
                    relations: ["R".into(), "S".into()],
                    select: vec![
                        SelectItem {
                            side: Side::Left,
                            attr: "A".into(),
                        },
                        SelectItem {
                            side: Side::Right,
                            attr: "B".into(),
                        },
                    ],
                    conditions: [Expr::attr("C"), Expr::attr("C")],
                    filters: vec![],
                },
                &c,
            )
            .unwrap(),
        );
        (c, q)
    }

    fn s_tuple(c: &Catalog, b: i64, cc: i64, t: u64) -> Tuple {
        Tuple::new(
            c.get("S").unwrap().clone(),
            vec![Value::Int(b), Value::Int(cc)],
            Timestamp(t),
            0,
        )
        .unwrap()
    }

    fn r_tuple(c: &Catalog, a: i64, cc: i64, t: u64) -> Tuple {
        Tuple::new(
            c.get("R").unwrap().clone(),
            vec![Value::Int(a), Value::Int(cc)],
            Timestamp(t),
            0,
        )
        .unwrap()
    }

    #[test]
    fn paper_section_432_example() {
        // "triggered at the attribute level by a tuple S(3,4,7)… wait, our S
        // has arity 2 — use S(B=4, C=7): the rewritten query must be
        // SELECT R.A, 4 FROM R WHERE R.C = 7."
        let (c, q) = setup();
        let t = s_tuple(&c, 4, 7, 5);
        let rq = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &t)
            .unwrap()
            .unwrap();
        assert_eq!(rq.free_relation(), "R");
        assert_eq!(
            rq.target(),
            &MatchTarget::Attribute {
                attr: "C".into(),
                value: Value::Int(7)
            }
        );
        assert_eq!(rq.bound_values(), &[Value::Int(4)]);

        // A matching R tuple completes the join.
        let r = r_tuple(&c, 9, 7, 6);
        let n = rq.match_tuple(&r).unwrap().unwrap();
        assert_eq!(n.values, vec![Value::Int(9), Value::Int(4)]);

        // A non-matching value produces nothing.
        let r2 = r_tuple(&c, 9, 8, 6);
        assert!(rq.match_tuple(&r2).unwrap().is_none());
    }

    #[test]
    fn rewrite_respects_time_semantics() {
        let (c, _) = setup();
        let q = Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("n", 1),
                    subscriber: "n".into(),
                    ins_time: Timestamp(100),
                    relations: ["R".into(), "S".into()],
                    select: vec![SelectItem {
                        side: Side::Left,
                        attr: "A".into(),
                    }],
                    conditions: [Expr::attr("C"), Expr::attr("C")],
                    filters: vec![],
                },
                &c,
            )
            .unwrap(),
        );
        let old = s_tuple(&c, 1, 2, 50);
        assert!(
            RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &old)
                .unwrap()
                .is_none()
        );
        // And a stored old tuple cannot complete a match either.
        let fresh = s_tuple(&c, 1, 2, 150);
        let rq = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &fresh)
            .unwrap()
            .unwrap();
        let old_r = r_tuple(&c, 1, 2, 50);
        assert!(rq.match_tuple(&old_r).unwrap().is_none());
    }

    fn key_text(rq: &RewrittenQuery) -> String {
        let mut s = String::new();
        rq.write_key(&mut s).unwrap();
        assert_eq!(s.len(), rq.key_len());
        s
    }

    #[test]
    fn keys_deduplicate_same_content() {
        // Two S tuples with the same B and C values produce the same
        // rewritten query (set semantics of Section 4.3.3) …
        let (c, q) = setup();
        let t1 = s_tuple(&c, 4, 7, 5);
        let t2 = s_tuple(&c, 4, 7, 9);
        let rq1 = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &t1)
            .unwrap()
            .unwrap();
        let rq2 = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &t2)
            .unwrap()
            .unwrap();
        assert!(rq1.same_identity(&rq2));
        assert_eq!(rq1.fingerprint(), rq2.fingerprint());
        assert!(rq1.to_identity().is_of(&rq2));
        assert_eq!(rq1.to_identity().fingerprint(), rq2.fingerprint());
        assert_eq!(key_text(&rq1), "n#0/R+i:4+i:7");
        assert_eq!(key_text(&rq1), key_text(&rq2));
        // … while different select values yield different ones.
        let t3 = s_tuple(&c, 5, 7, 9);
        let rq3 = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &t3)
            .unwrap()
            .unwrap();
        assert!(!rq1.same_identity(&rq3));
        assert!(!rq1.to_identity().is_of(&rq3));
        assert_ne!(key_text(&rq1), key_text(&rq3));
    }

    #[test]
    fn left_and_right_rewritings_never_share_keys() {
        // Regression: SELECT R.A, S.B over R.C = S.C with tuples R(3,4) and
        // S(3,4) binds the same select value (3) and the same join value (4)
        // on both sides — the identities must still differ, or DAI
        // deduplication drops one side's rewriting and loses notifications.
        let (c, q) = setup();
        let r = r_tuple(&c, 3, 4, 1);
        let s = s_tuple(&c, 3, 4, 1);
        let left = RewrittenQuery::rewrite_attribute(&q, Side::Left, "C", "C", &r)
            .unwrap()
            .unwrap();
        let right = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &s)
            .unwrap()
            .unwrap();
        assert_eq!(left.bound_values(), right.bound_values());
        assert_eq!(left.target().value(), right.target().value());
        assert!(
            !left.same_identity(&right),
            "bound side must be part of the identity"
        );
        assert_ne!(key_text(&left), key_text(&right));
    }

    #[test]
    fn str_values_that_print_alike_are_different_rewritings() {
        // SELECT R.A, R.B … WHERE R.C = S.C: R("a+s:b", "c", 7) and
        // R("a", "b+s:c", 7) render to one key text. Identity compares the
        // values, so neither deduplicates the other.
        let mut c = Catalog::new();
        c.register(
            RelationSchema::of(
                "R",
                &[
                    ("A", DataType::Str),
                    ("B", DataType::Str),
                    ("C", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(RelationSchema::of("S", &[("B", DataType::Int), ("C", DataType::Int)]).unwrap())
            .unwrap();
        let q = Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("n", 0),
                    subscriber: "n".into(),
                    ins_time: Timestamp(0),
                    relations: ["R".into(), "S".into()],
                    select: ["A", "B"]
                        .map(|a| SelectItem {
                            side: Side::Left,
                            attr: a.into(),
                        })
                        .into(),
                    conditions: [Expr::attr("C"), Expr::attr("C")],
                    filters: vec![],
                },
                &c,
            )
            .unwrap(),
        );
        let rewrite = |a: &str, b: &str| {
            let t = Tuple::new(
                c.get("R").unwrap().clone(),
                vec![a.into(), b.into(), Value::Int(7)],
                Timestamp(1),
                0,
            )
            .unwrap();
            RewrittenQuery::rewrite_attribute(&q, Side::Left, "C", "C", &t)
                .unwrap()
                .unwrap()
        };
        let (one, other) = (rewrite("a+s:b", "c"), rewrite("a", "b+s:c"));
        assert_eq!(key_text(&one), "n#0/L+s:a+s:b+s:c+i:7");
        assert_eq!(key_text(&one), key_text(&other));
        assert!(!one.same_identity(&other));
        assert!(!one.to_identity().is_of(&other));
    }

    #[test]
    fn a_rewriting_is_a_flat_value() {
        use std::mem::size_of;
        // A body is 8 query + 24 bound values (one inline) + 8 fingerprint
        // + 8 trigger time + 4 column + 1 side, padded to 8; a rewriting is
        // a body and a 40-byte target.
        assert_eq!(size_of::<Value>(), 24);
        assert_eq!(size_of::<BoundValues>(), 24);
        assert_eq!(size_of::<RewriteBody>(), 56);
        assert_eq!(size_of::<MatchTarget>(), 40);
        assert_eq!(size_of::<RewrittenQuery>(), 96);
        // 8 query + 24 bound values + 24 target value + 1 side, padded.
        assert_eq!(size_of::<RewriteIdentity>(), 64);
        // A query's two 6-byte rewrite plans and its 8-byte fingerprint
        // seed cost it 24 bytes over the 336 it took without them; holding
        // its two schemas (16 bytes) in place of two relation-name copies
        // (48) takes 32 back.
        assert!(size_of::<JoinQuery>() <= 336 + 24 - 48 + 16);
        // No heap for one bound value, one allocation from two on.
        let ints = |n: i64| (0..n).map(Value::Int).collect::<BoundValues>();
        assert!(matches!(ints(0).0, Bound::Zero));
        assert!(matches!(ints(1).0, Bound::One(_)));
        assert!(matches!(ints(2).0, Bound::Many(_)));
        assert!(matches!(ints(3).0, Bound::Many(_)));
        for n in 0..5 {
            let want: Vec<Value> = (0..n).map(Value::Int).collect();
            assert_eq!(ints(n).as_slice(), want);
        }
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Attribute and value targets binding 0, 1 and 2 values, `Int` and
        // `Str` values, one `Str` longer than an inline key (22 bytes). The
        // expected digests were written by the build before rewrite plans
        // existed; never regenerate them from the current build.
        let mut c = Catalog::new();
        let long = "a string longer than twenty-two bytes";
        c.register(
            RelationSchema::of(
                "R",
                &[
                    ("A", DataType::Int),
                    ("B", DataType::Str),
                    ("C", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(
            RelationSchema::of(
                "S",
                &[
                    ("D", DataType::Str),
                    ("C", DataType::Int),
                    ("E", DataType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let query = |n: u64, select: &[(Side, &str)], cond: &str, other: &str| {
            let select = select
                .iter()
                .map(|&(side, attr)| SelectItem {
                    side,
                    attr: attr.into(),
                })
                .collect();
            Arc::new(
                JoinQuery::new(
                    QuerySpec {
                        key: QueryKey::derive("node-7", n),
                        subscriber: "node-7".into(),
                        ins_time: Timestamp(0),
                        relations: ["R".into(), "S".into()],
                        select,
                        conditions: [Expr::attr(cond), Expr::attr(other)],
                        filters: vec![],
                    },
                    &c,
                )
                .unwrap(),
            )
        };
        let tuple = |rel: &str, values: Vec<Value>| {
            Tuple::new(c.get(rel).unwrap().clone(), values, Timestamp(3), 0).unwrap()
        };
        let one = query(1, &[(Side::Left, "A"), (Side::Right, "D")], "C", "C");
        let none = query(2, &[(Side::Right, "D")], "B", "E");
        let two = query(
            3,
            &[(Side::Left, "A"), (Side::Left, "B"), (Side::Right, "D")],
            "C",
            "C",
        );
        let r = tuple("R", vec![Value::Int(5), long.into(), Value::Int(7)]);
        let r2 = tuple("R", vec![Value::Int(-3), "b+s:c".into(), Value::Int(9)]);
        let s = tuple("S", vec!["dee".into(), Value::Int(7), "e".into()]);
        let attr = |q: &QueryRef, side, a, d, t| {
            RewrittenQuery::rewrite_attribute(q, side, a, d, t)
                .unwrap()
                .unwrap()
        };
        let value =
            |q: &QueryRef, side, t| RewrittenQuery::rewrite_value(q, side, t).unwrap().unwrap();
        let rewritings = [
            attr(&one, Side::Left, "C", "C", &r),
            value(&one, Side::Right, &s),
            attr(&none, Side::Left, "B", "E", &r),
            value(&none, Side::Left, &r2),
            attr(&two, Side::Left, "C", "C", &r),
            value(&two, Side::Left, &r2),
        ];
        let want: [(u64, usize); 6] = [
            (16739651771377637638, 1),
            (9572108501946025105, 1),
            (913832329209096303, 0),
            (8464673760863485729, 0),
            (15995546275471471345, 2),
            (4899819240097960867, 2),
        ];
        for (rq, (fingerprint, bound)) in rewritings.iter().zip(want) {
            assert_eq!(rq.bound_values().len(), bound, "{rq}");
            assert_eq!(rq.fingerprint(), fingerprint, "{rq}");
            assert_eq!(rq.to_identity().fingerprint(), fingerprint, "{rq}");
        }
    }

    #[test]
    fn a_body_filed_under_its_target_reads_back_as_the_rewriting() {
        // What a table does: keep the body, key its bucket by the target's
        // attribute name and canonical value, and put the two back together.
        let (c, q) = setup();
        let rq =
            RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &s_tuple(&c, 4, 7, 5))
                .unwrap()
                .unwrap();
        let text = key_text(&rq);
        let (body, target) = rq.clone().into_parts();
        let MatchTarget::Attribute { attr, value } = &target else {
            unreachable!("an attribute target")
        };
        let (name, form) = (String::from(&**attr), value.canonical());
        let read_back = TargetRef::Attribute {
            attr: &name,
            value: ValueRef::parse_canonical(&form).unwrap(),
        };
        assert_eq!(read_back, target.view());
        let view = RewrittenRef::new(&body, read_back);
        let mut view_text = String::new();
        view.write_key(&mut view_text).unwrap();
        assert_eq!((view_text, view.key_len()), (text.clone(), text.len()));
        assert_eq!(view.to_string(), rq.to_string());
        assert!(view.same_identity(&rq.view()) && view.same_shape(&rq.view()));
        let back = view.into_owned();
        assert!(back.same_identity(&rq) && back.same_shape(&rq));
        assert_eq!(
            (back.fingerprint(), key_text(&back)),
            (rq.fingerprint(), text)
        );
        // `DisA` is shared with the query again, not copied.
        let MatchTarget::Attribute { attr, .. } = back.target() else {
            unreachable!("an attribute target")
        };
        assert!(Arc::ptr_eq(attr, q.join_column(Side::Left).unwrap().0));
        let r = r_tuple(&c, 9, 7, 6);
        assert_eq!(view.matches(&r).unwrap(), rq.matches(&r).unwrap());
    }

    #[test]
    fn dai_v_rewrite_uses_condition_value() {
        let mut c = Catalog::new();
        c.register(
            RelationSchema::of(
                "R",
                &[
                    ("A", DataType::Int),
                    ("B", DataType::Int),
                    ("C", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(
            RelationSchema::of(
                "S",
                &[
                    ("D", DataType::Int),
                    ("E", DataType::Int),
                    ("F", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // The paper's T2 example: 4*R.B + R.C + 8 = 5*S.E + S.D - S.F
        let left = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::int(4), Expr::attr("B")),
                Expr::attr("C"),
            ),
            Expr::int(8),
        );
        let right = Expr::bin(
            BinOp::Sub,
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::int(5), Expr::attr("E")),
                Expr::attr("D"),
            ),
            Expr::attr("F"),
        );
        let q = Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("n", 0),
                    subscriber: "n".into(),
                    ins_time: Timestamp(0),
                    relations: ["R".into(), "S".into()],
                    select: vec![
                        SelectItem {
                            side: Side::Left,
                            attr: "A".into(),
                        },
                        SelectItem {
                            side: Side::Right,
                            attr: "D".into(),
                        },
                    ],
                    conditions: [left, right],
                    filters: vec![],
                },
                &c,
            )
            .unwrap(),
        );
        // R tuple with B = 4, C = 9: valJC = 4*4 + 9 + 8 = 33.
        let r = Tuple::new(
            c.get("R").unwrap().clone(),
            vec![Value::Int(1), Value::Int(4), Value::Int(9)],
            Timestamp(1),
            0,
        )
        .unwrap();
        let rq = RewrittenQuery::rewrite_value(&q, Side::Left, &r)
            .unwrap()
            .unwrap();
        assert_eq!(rq.target().value(), &Value::Int(33));

        // S tuple with 5*E + D - F = 33 completes the join: E=6, D=5, F=2.
        let s = Tuple::new(
            c.get("S").unwrap().clone(),
            vec![Value::Int(5), Value::Int(6), Value::Int(2)],
            Timestamp(2),
            0,
        )
        .unwrap();
        let n = rq.match_tuple(&s).unwrap().unwrap();
        assert_eq!(n.values, vec![Value::Int(1), Value::Int(5)]);

        // An S tuple evaluating to a different value does not match.
        let s2 = Tuple::new(
            c.get("S").unwrap().clone(),
            vec![Value::Int(5), Value::Int(6), Value::Int(3)],
            Timestamp(2),
            0,
        )
        .unwrap();
        assert!(rq.match_tuple(&s2).unwrap().is_none());
    }

    #[test]
    fn filters_on_free_side_are_enforced_at_match_time() {
        let (c, _) = setup();
        let q = Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("n", 2),
                    subscriber: "n".into(),
                    ins_time: Timestamp(0),
                    relations: ["R".into(), "S".into()],
                    select: vec![SelectItem {
                        side: Side::Right,
                        attr: "B".into(),
                    }],
                    conditions: [Expr::attr("C"), Expr::attr("C")],
                    filters: vec![Filter {
                        side: Side::Left,
                        attr: "A".into(),
                        value: Value::Int(9),
                    }],
                },
                &c,
            )
            .unwrap(),
        );
        let s = s_tuple(&c, 4, 7, 5);
        let rq = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &s)
            .unwrap()
            .unwrap();
        assert!(rq.match_tuple(&r_tuple(&c, 9, 7, 6)).unwrap().is_some());
        assert!(rq.match_tuple(&r_tuple(&c, 8, 7, 6)).unwrap().is_none());
    }

    /// The relation, filter, condition and target tests as they read before
    /// they compared the catalog's pointers: every name byte by byte. The
    /// pointer-first definitions must answer exactly as these do.
    mod by_name {
        use super::*;

        pub(super) fn triggered_by(q: &JoinQuery, side: Side, t: &Tuple) -> Result<bool> {
            if t.pub_time() < q.ins_time() || t.relation() != q.relation(side) {
                return Ok(false);
            }
            q.filters_pass(side, t)
        }

        pub(super) fn same_free_side(a: &RewriteBody, b: &RewriteBody) -> bool {
            if a.target_col != b.target_col {
                return false;
            }
            let (free, other_free) = (a.free_side(), b.free_side());
            if Arc::ptr_eq(&a.query, &b.query) && free == other_free {
                return true;
            }
            fn free_filters(q: &JoinQuery, side: Side) -> impl Iterator<Item = (&str, &Value)> {
                q.filters()
                    .iter()
                    .filter(move |f| f.side == side)
                    .map(|f| (f.attr.as_str(), &f.value))
            }
            a.query.relation(free) == b.query.relation(other_free)
                && free_filters(&a.query, free).eq(free_filters(&b.query, other_free))
                && a.query.condition(free) == b.query.condition(other_free)
        }

        pub(super) fn same_shape(a: &RewrittenRef<'_>, b: &RewrittenRef<'_>) -> bool {
            let same_target = match (a.target(), b.target()) {
                (
                    TargetRef::Attribute { attr, value },
                    TargetRef::Attribute {
                        attr: other_attr,
                        value: other_value,
                    },
                ) => attr.as_bytes() == other_attr.as_bytes() && value == other_value,
                (
                    TargetRef::ConditionValue { value },
                    TargetRef::ConditionValue { value: other },
                ) => value == other,
                _ => false,
            };
            same_target && same_free_side(a, b)
        }

        pub(super) fn shape_matches(rq: &RewrittenRef<'_>, t: &Tuple) -> Result<bool> {
            let free = rq.free_side();
            if t.relation() != rq.query.relation(free) || !rq.query.filters_pass(free, t)? {
                return Ok(false);
            }
            let at_col = rq.target_col.and_then(|c| t.values().get(usize::from(c)));
            Ok(match (rq.target(), at_col) {
                (target, Some(v)) => ValueRef::from(v) == target.value(),
                (TargetRef::Attribute { attr, value }, None) => {
                    ValueRef::from(t.get(attr)?) == value
                }
                (TargetRef::ConditionValue { value }, None) => {
                    ValueRef::from(&rq.query.condition(free).eval(t)?) == value
                }
            })
        }
    }

    /// `R(A, B, C)` and `S(C, D, E)`, or with `R`'s attributes in the order
    /// `C, B, A`.
    fn shape_catalog(reordered: bool) -> Catalog {
        let r = if reordered {
            ["C", "B", "A"]
        } else {
            ["A", "B", "C"]
        };
        let int = |n| (n, DataType::Int);
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &r.map(int)).unwrap())
            .unwrap();
        let s = [int("C"), int("D"), ("E", DataType::Str)];
        c.register(RelationSchema::of("S", &s).unwrap()).unwrap();
        c
    }

    /// Every rewriting test that compares names, on queries and tuples of
    /// one catalog, of two catalogs with equal content (their schemas in
    /// different `Arc`s) and of a catalog whose `R` lists its attributes in
    /// another order: T1 and T2 queries, with and without filters on either
    /// side, rewritten to attribute targets (shared with the query, or a
    /// name of their own) and to value targets.
    #[test]
    fn pointer_first_shape_tests_answer_as_names_do() {
        const SQL: [&str; 8] = [
            "WHERE R.B = S.C",
            "WHERE R.B = S.C AND R.A = 1",
            "WHERE R.B = S.C AND S.D = 2",
            "WHERE R.A = S.C",
            "WHERE R.C = S.C",
            "WHERE R.A + R.B = S.C",
            "WHERE R.A = S.C + S.D",
            "WHERE R.A + R.B = S.C AND S.D = 1",
        ];
        let catalogs = [
            shape_catalog(false),
            shape_catalog(false),
            shape_catalog(true),
        ];
        let mut queries: Vec<(usize, QueryRef)> = Vec::new();
        for (ci, c) in catalogs.iter().enumerate() {
            for (n, sql) in SQL.iter().enumerate() {
                // Two queries of each text, so one catalog's queries also
                // compare as distinct `Arc`s.
                for copy in 0..2u64 {
                    let sql = format!("SELECT R.A, S.D FROM R, S {sql}");
                    let key = QueryKey::derive(&format!("c{ci}"), 2 * n as u64 + copy);
                    let ins = Timestamp(3 * copy);
                    let q = crate::parse_query(&sql, c)
                        .unwrap()
                        .into_query(key, "n", ins, c)
                        .unwrap();
                    queries.push((ci, Arc::new(q)));
                }
            }
        }
        let tuple = |c: &Catalog, rel: &str, v: [i64; 3], at: u64| {
            let schema = Arc::clone(c.get(rel).unwrap());
            let values = schema
                .attributes()
                .iter()
                .zip(v)
                .map(|(a, v)| match a.ty {
                    DataType::Int => Value::Int(v),
                    DataType::Str => Value::from("x"),
                })
                .collect();
            Tuple::new(schema, values, Timestamp(at), 0).unwrap()
        };
        let mut tuples = Vec::new();
        for c in &catalogs {
            for rel in ["R", "S"] {
                for (v, at) in [
                    ([1, 2, 1], 0),
                    ([2, 1, 2], 5),
                    ([1, 1, 2], 5),
                    ([2, 2, 1], 1),
                ] {
                    tuples.push(tuple(c, rel, v, at));
                }
            }
        }
        let mut rewritings = Vec::new();
        for (ci, q) in &queries {
            let c = &catalogs[*ci];
            for side in Side::BOTH {
                for v in [[1, 2, 1], [2, 2, 2]] {
                    let t = tuple(c, q.relation(side), v, 9);
                    rewritings.extend(RewrittenQuery::rewrite_value(q, side, &t).unwrap());
                    let Some((index, dis)) = q.join_attr(side).zip(q.join_attr(side.other()))
                    else {
                        continue;
                    };
                    let rq = RewrittenQuery::rewrite_attribute(q, side, index, dis, &t).unwrap();
                    let Some(rq) = rq else { continue };
                    // A target attribute of its own: the join attribute's
                    // name in another allocation, and one that is not the
                    // join attribute.
                    for attr in [dis, "C"] {
                        let own = RewrittenQuery::from_parts(
                            Arc::clone(q),
                            side,
                            rq.bound_values().iter().cloned().collect(),
                            Some(&String::from(attr)),
                            rq.target().value().clone(),
                            rq.trigger_time(),
                        );
                        rewritings.push(own);
                    }
                    rewritings.push(rq);
                }
            }
        }
        let (mut shapes, mut free_sides) = (0, 0);
        for a in &rewritings {
            for b in &rewritings {
                let want = by_name::same_shape(&a.view(), &b.view());
                assert_eq!(a.same_shape(b), want, "same_shape({a}, {b})");
                let want_free = by_name::same_free_side(a, b);
                assert_eq!(a.same_free_side(b), want_free, "same_free_side({a}, {b})");
                shapes += usize::from(want && !Arc::ptr_eq(&a.query, &b.query));
                free_sides += usize::from(want_free);
            }
            for t in &tuples {
                let want = by_name::shape_matches(&a.view(), t).map_err(|e| e.to_string());
                let got = a.shape_matches(t).map_err(|e| e.to_string());
                assert_eq!(got, want, "{a} against {t}");
            }
        }
        for (_, q) in &queries {
            for side in Side::BOTH {
                for t in &tuples {
                    let want = by_name::triggered_by(q, side, t).map_err(|e| e.to_string());
                    let got = q.triggered_by(side, t).map_err(|e| e.to_string());
                    assert_eq!(got, want, "{q} on {side} by {t}");
                }
            }
        }
        // The fixture reaches both answers across queries, not only within
        // one.
        assert!(shapes > 0 && free_sides < rewritings.len() * rewritings.len());
    }
}
