//! Continuous two-way equi-join queries (Section 3.2).
//!
//! ```sql
//! SELECT R.A1, ..., S.B1, ...
//! FROM   R, S
//! WHERE  α = β  [AND attr = const ...]
//! ```
//!
//! where `α` involves only attributes of `R` (plus constants) and `β` only
//! attributes of `S`. If both sides are bare attributes the query is of
//! **type T1**; otherwise **type T2** (handled only by DAI-V).

use std::fmt;
use std::sync::Arc;

use crate::error::{RelationalError, Result};
use crate::expr::Expr;
use crate::schema::{Catalog, RelationSchema};
use crate::tuple::Tuple;
use crate::value::{Timestamp, Value};

/// One of the two sides of a join: `Left` is the first `FROM` relation
/// (`R`), `Right` the second (`S`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The `R` side.
    Left,
    /// The `S` side.
    Right,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Both sides, left first.
    pub const BOTH: [Side; 2] = [Side::Left, Side::Right];

    /// The side's slot in a `[T; 2]` indexed by side: left 0, right 1.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "L"),
            Side::Right => write!(f, "R"),
        }
    }
}

/// One item of the `SELECT` clause: an attribute of one of the two relations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SelectItem {
    /// Which relation the attribute belongs to.
    pub side: Side,
    /// Attribute name.
    pub attr: String,
}

/// An extra conjunct of the `WHERE` clause of the form `attr = const`
/// ("a join condition conjoined with a highly selective predicate",
/// Section 4.3.6).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Filter {
    /// Which relation the predicate constrains.
    pub side: Side,
    /// Attribute name.
    pub attr: String,
    /// Constant the attribute must equal.
    pub value: Value,
}

/// The unique key of a query: `Key(q) = Key(n) + "#" + counter`
/// (Section 3.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryKey(pub String);

impl QueryKey {
    /// Builds a query key from the posing node's key and a local counter.
    pub fn derive(node_key: &str, counter: u64) -> QueryKey {
        QueryKey(format!("{node_key}#{counter}"))
    }
}

impl fmt::Display for QueryKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The class of a query (Section 3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryType {
    /// Both join-condition sides are single attributes with a unique
    /// solution (bare attribute references).
    T1,
    /// At least one side is a compound expression.
    T2,
}

/// The unvalidated components of a [`JoinQuery`], in clause order.
///
/// Passed to [`JoinQuery::new`], which validates them against the catalog.
/// `relations` and `conditions` are `[left, right]` arrays, mirroring the
/// query's internal per-[`Side`] representation.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The query's unique key `Key(q)`.
    pub key: QueryKey,
    /// Key of the posing node (notification destination).
    pub subscriber: String,
    /// Insertion time `insT(q)`.
    pub ins_time: Timestamp,
    /// The two `FROM` relations, left first.
    pub relations: [String; 2],
    /// The `SELECT` list.
    pub select: Vec<SelectItem>,
    /// The two join-condition sides (`α`, `β`), left first.
    pub conditions: [Expr; 2],
    /// Extra `attr = const` conjuncts.
    pub filters: Vec<Filter>,
}

/// What rewriting a tuple of one side reads (Section 4.3.2), resolved once
/// at validation: where the side's bound select values sit, and whether it
/// has filters to check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RewritePlan {
    /// Where the side's bound select values sit.
    pub(crate) bound: BoundPlan,
    /// Whether the query has a filter on the side.
    pub(crate) filtered: bool,
}

/// Where a side's bound select values sit in its relation's schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BoundPlan {
    /// The side has no select item.
    Zero,
    /// One select item, at this schema position.
    One(u16),
    /// Two or more (or a position past `u16`): the select list is walked.
    Many,
}

/// A validated continuous two-way equi-join query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinQuery {
    key: QueryKey,
    subscriber: Box<str>,
    /// [`crate::subscriber_hash`] of `subscriber`, computed once here so
    /// that delivery finds the subscriber's slot without hashing its name.
    subscriber_hash: u64,
    ins_time: Timestamp,
    /// The two relations' schemas as the catalog holds them, left first: a
    /// relation test compares these pointers before it compares names.
    schemas: [Arc<RelationSchema>; 2],
    select: Vec<SelectItem>,
    /// Schema position of each select item in its side's relation, parallel
    /// to `select` and resolved once at validation time: rewriting and
    /// notification building read `t.values()[position]` instead of looking
    /// each attribute up by name.
    select_cols: Vec<usize>,
    conditions: [Expr; 2],
    /// Attributes referenced by each condition side, sorted and deduplicated.
    /// Precomputed at validation time so per-arrival index-attribute choices
    /// (T2 picks pseudo-randomly among these) don't re-walk the expression.
    cond_attrs: [Vec<String>; 2],
    /// For a side whose condition is a bare attribute (both sides of a T1
    /// query): that attribute's name and its position in the relation's
    /// schema, resolved once at validation time. Rewritten queries share
    /// the name and compare `t.values()[position]` instead of looking the
    /// attribute up by name per candidate.
    join_cols: [Option<(Arc<str>, usize)>; 2],
    filters: Vec<Filter>,
    /// Each side's [`RewritePlan`], left first.
    plans: [RewritePlan; 2],
    /// The fingerprint state after `Key(q)`, where the fingerprint of every
    /// rewriting of this query starts (see [`crate::RewriteBody::fingerprint`]).
    key_seed: u64,
}

impl JoinQuery {
    /// Builds and validates a query against the catalog.
    ///
    /// Validation enforces the supported class: two *distinct* relations,
    /// every referenced attribute exists, each condition side references at
    /// least one attribute of its own relation, and the select list is
    /// non-empty.
    pub fn new(spec: QuerySpec, catalog: &Catalog) -> Result<Self> {
        let QuerySpec {
            key,
            subscriber,
            ins_time,
            relations,
            select,
            conditions,
            filters,
        } = spec;
        if relations[0] == relations[1] {
            return Err(RelationalError::UnsupportedQuery {
                detail: format!(
                    "self-joins are not supported (relation {:?} on both sides)",
                    relations[0]
                ),
            });
        }
        let schemas = [catalog.get(&relations[0])?, catalog.get(&relations[1])?].map(Arc::clone);
        if select.is_empty() {
            return Err(RelationalError::UnsupportedQuery {
                detail: "empty select list".to_string(),
            });
        }
        let select_cols = select
            .iter()
            .map(|item| schemas[item.side.idx()].index_of(&item.attr))
            .collect::<Result<Vec<usize>>>()?;
        let mut cond_attrs: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        let mut join_cols = [None, None];
        for side in Side::BOTH {
            let expr = &conditions[side.idx()];
            let attrs = expr.attributes();
            if attrs.is_empty() {
                return Err(RelationalError::UnsupportedQuery {
                    detail: format!("join-condition side {side} references no attribute"),
                });
            }
            for a in &attrs {
                schemas[side.idx()].index_of(a)?;
            }
            if let Some(a) = expr.as_single_attr() {
                let schema = &schemas[side.idx()];
                let col = schema.index_of(a)?;
                join_cols[side.idx()] = Some((Arc::clone(schema.shared_name(col)), col));
            }
            // `Expr::attributes` yields a BTreeSet, so this preserves the
            // sorted, deduplicated order callers historically observed.
            cond_attrs[side.idx()] = attrs.into_iter().map(str::to_string).collect();
        }
        for flt in &filters {
            let ty = schemas[flt.side.idx()].type_of(&flt.attr)?;
            if ty != flt.value.data_type() {
                return Err(RelationalError::UnsupportedQuery {
                    detail: format!(
                        "filter {}={} has type {} but attribute is {}",
                        flt.attr,
                        flt.value,
                        flt.value.data_type(),
                        ty
                    ),
                });
            }
        }
        let plans = Side::BOTH.map(|side| {
            let mut bound = select_cols
                .iter()
                .zip(&select)
                .filter(|(_, item)| item.side == side)
                .map(|(&col, _)| col);
            RewritePlan {
                bound: match (bound.next(), bound.next()) {
                    (None, _) => BoundPlan::Zero,
                    (Some(col), None) => u16::try_from(col).map_or(BoundPlan::Many, BoundPlan::One),
                    (Some(_), Some(_)) => BoundPlan::Many,
                },
                filtered: filters.iter().any(|f| f.side == side),
            }
        });
        Ok(JoinQuery {
            key_seed: crate::rewrite::key_seed(&key),
            key,
            subscriber_hash: crate::subscriber_hash(&subscriber),
            subscriber: subscriber.into_boxed_str(),
            ins_time,
            schemas,
            select,
            select_cols,
            conditions,
            cond_attrs,
            join_cols,
            filters,
            plans,
        })
    }

    /// The query's unique key `Key(q)`.
    #[inline]
    pub fn key(&self) -> &QueryKey {
        &self.key
    }

    /// Key of the node that posed the query (used to deliver notifications).
    #[inline]
    pub fn subscriber(&self) -> &str {
        &self.subscriber
    }

    /// [`crate::subscriber_hash`] of [`Self::subscriber`].
    #[inline]
    pub fn subscriber_hash(&self) -> u64 {
        self.subscriber_hash
    }

    /// Insertion time `insT(q)`.
    #[inline]
    pub fn ins_time(&self) -> Timestamp {
        self.ins_time
    }

    /// Relation name of one side.
    #[inline]
    pub fn relation(&self, side: Side) -> &str {
        self.schemas[side.idx()].name()
    }

    /// Whether `side` of this query and `other_side` of `other` name the
    /// same relation: one schema pointer when both were validated against
    /// one catalog, else equal names.
    #[inline]
    pub fn same_relation(&self, side: Side, other: &JoinQuery, other_side: Side) -> bool {
        same_schema(&self.schemas[side.idx()], &other.schemas[other_side.idx()])
    }

    /// Whether `tuple` is of `side`'s relation: the catalog's schema
    /// pointer, else the name.
    #[inline]
    pub fn is_relation_of(&self, side: Side, tuple: &Tuple) -> bool {
        same_schema(&self.schemas[side.idx()], tuple.schema())
    }

    /// The side a given relation plays in this query, if any.
    pub fn side_of(&self, relation: &str) -> Option<Side> {
        Side::BOTH
            .into_iter()
            .find(|s| self.relation(*s) == relation)
    }

    /// The join-condition expression of one side (`α` or `β`).
    #[inline]
    pub fn condition(&self, side: Side) -> &Expr {
        &self.conditions[side.idx()]
    }

    /// The select list.
    #[inline]
    pub fn select(&self) -> &[SelectItem] {
        &self.select
    }

    /// Schema position of each [`JoinQuery::select`] item in its side's
    /// relation (the catalog the query was validated against), in select
    /// order.
    #[inline]
    pub fn select_columns(&self) -> &[usize] {
        &self.select_cols
    }

    /// The extra equality filters.
    #[inline]
    pub fn filters(&self) -> &[Filter] {
        &self.filters
    }

    /// Query type classification (Section 3.2).
    pub fn query_type(&self) -> QueryType {
        if self.join_attr(Side::Left).is_some() && self.join_attr(Side::Right).is_some() {
            QueryType::T1
        } else {
            QueryType::T2
        }
    }

    /// If the condition side is a bare attribute, its name — the candidate
    /// index/load-distributing attribute of the T1 algorithms.
    pub fn join_attr(&self, side: Side) -> Option<&str> {
        self.join_column(side).map(|(name, _)| &**name)
    }

    /// [`JoinQuery::join_attr`] as a shareable name plus its position in
    /// `side`'s relation schema (the catalog the query was validated
    /// against).
    #[inline]
    pub fn join_column(&self, side: Side) -> Option<(&Arc<str>, usize)> {
        self.join_cols[side.idx()].as_ref().map(|(a, c)| (a, *c))
    }

    /// Attributes referenced by `side`'s condition expression, sorted and
    /// deduplicated (precomputed at validation time; never empty).
    #[inline]
    pub fn condition_attrs(&self, side: Side) -> &[String] {
        &self.cond_attrs[side.idx()]
    }

    /// Attributes of `side` appearing in the select list, with their select
    /// positions.
    pub fn select_positions(&self, side: Side) -> impl Iterator<Item = (usize, &str)> {
        self.select
            .iter()
            .enumerate()
            .filter(move |(_, it)| it.side == side)
            .map(|(i, it)| (i, it.attr.as_str()))
    }

    /// `side`'s [`RewritePlan`].
    #[inline]
    pub(crate) fn rewrite_plan(&self, side: Side) -> RewritePlan {
        self.plans[side.idx()]
    }

    /// The fingerprint state after `Key(q)`, computed at validation.
    #[inline]
    pub(crate) fn key_seed(&self) -> u64 {
        self.key_seed
    }

    /// Whether a tuple of `side`'s relation satisfies every filter on that
    /// side. (Filters on the other side are checked when the other tuple is
    /// examined.)
    #[inline]
    pub fn filters_pass(&self, side: Side, tuple: &Tuple) -> Result<bool> {
        if !self.plans[side.idx()].filtered {
            return Ok(true);
        }
        for flt in self.filters.iter().filter(|f| f.side == side) {
            if tuple.get(&flt.attr)? != &flt.value {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether a tuple of `side`'s relation can trigger this query:
    /// `pubT(t) >= insT(q)` and the side's filters pass.
    #[inline]
    pub fn triggered_by(&self, side: Side, tuple: &Tuple) -> Result<bool> {
        if tuple.pub_time() < self.ins_time {
            return Ok(false);
        }
        if !self.is_relation_of(side, tuple) {
            return Ok(false);
        }
        self.filters_pass(side, tuple)
    }

    /// The grouping key for "queries with equivalent join condition"
    /// (Section 4.3.5): relations, condition expressions and filters —
    /// everything that determines *where* rewritten forms are reindexed and
    /// *which* tuples trigger them. Select lists may differ within a group.
    pub fn group_key(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str(self.relation(Side::Left));
        s.push('|');
        s.push_str(self.relation(Side::Right));
        s.push('|');
        s.push_str(&self.conditions[0].canonical());
        s.push('=');
        s.push_str(&self.conditions[1].canonical());
        let mut filters: Vec<String> = self
            .filters
            .iter()
            .map(|f| format!("{}{}.{}={}", '|', f.side, f.attr, f.value.canonical()))
            .collect();
        filters.sort();
        for f in filters {
            s.push_str(&f);
        }
        s
    }
}

impl fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, it) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let rel = self.relation(it.side);
            write!(f, "{rel}.{}", it.attr)?;
        }
        write!(
            f,
            " FROM {}, {} WHERE {} = {}",
            self.relation(Side::Left),
            self.relation(Side::Right),
            self.conditions[0],
            self.conditions[1]
        )?;
        for flt in &self.filters {
            write!(
                f,
                " AND {}.{} = {}",
                self.relation(flt.side),
                flt.attr,
                flt.value
            )?;
        }
        Ok(())
    }
}

/// Whether two schemas are of one relation: one pointer when both come from
/// one catalog, else — across catalogs — equal relation names.
#[inline]
fn same_schema(a: &Arc<RelationSchema>, b: &Arc<RelationSchema>) -> bool {
    Arc::ptr_eq(a, b) || a.name() == b.name()
}

/// Shared handle to a query, as stored in node-local tables.
pub type QueryRef = Arc<JoinQuery>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::value::DataType;

    fn catalog() -> Catalog {
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
                    ("B", DataType::Str),
                    ("E", DataType::Int),
                    ("D", DataType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn spec(counter: u64, node: &str) -> QuerySpec {
        QuerySpec {
            key: QueryKey::derive(node, counter),
            subscriber: node.into(),
            ins_time: Timestamp(0),
            relations: ["R".into(), "S".into()],
            select: vec![SelectItem {
                side: Side::Left,
                attr: "A".into(),
            }],
            conditions: [Expr::attr("C"), Expr::attr("E")],
            filters: vec![],
        }
    }

    fn t1_query(c: &Catalog) -> JoinQuery {
        JoinQuery::new(
            QuerySpec {
                ins_time: Timestamp(10),
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
                ..spec(0, "n1")
            },
            c,
        )
        .unwrap()
    }

    #[test]
    fn t1_classification() {
        let c = catalog();
        let q = t1_query(&c);
        assert_eq!(q.query_type(), QueryType::T1);
        assert_eq!(q.join_attr(Side::Left), Some("C"));
        assert_eq!(q.join_attr(Side::Right), Some("E"));
    }

    #[test]
    fn t2_classification() {
        let c = catalog();
        let q = JoinQuery::new(
            QuerySpec {
                conditions: [
                    Expr::bin(crate::expr::BinOp::Add, Expr::attr("B"), Expr::attr("C")),
                    Expr::attr("E"),
                ],
                ..spec(1, "n1")
            },
            &c,
        )
        .unwrap();
        assert_eq!(q.query_type(), QueryType::T2);
        assert_eq!(q.join_attr(Side::Left), None);
    }

    #[test]
    fn self_join_rejected() {
        let c = catalog();
        let err = JoinQuery::new(
            QuerySpec {
                relations: ["R".into(), "R".into()],
                conditions: [Expr::attr("B"), Expr::attr("C")],
                ..spec(2, "n1")
            },
            &c,
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::UnsupportedQuery { .. }));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let c = catalog();
        let err = JoinQuery::new(
            QuerySpec {
                select: vec![SelectItem {
                    side: Side::Left,
                    attr: "Zzz".into(),
                }],
                ..spec(3, "n1")
            },
            &c,
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::UnknownAttribute { .. }));
    }

    #[test]
    fn filter_type_mismatch_rejected() {
        let c = catalog();
        let err = JoinQuery::new(
            QuerySpec {
                filters: vec![Filter {
                    side: Side::Left,
                    attr: "A".into(),
                    value: Value::Str("x".into()),
                }],
                ..spec(4, "n1")
            },
            &c,
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::UnsupportedQuery { .. }));
    }

    #[test]
    fn triggering_respects_time_and_filters() {
        let c = catalog();
        let q = JoinQuery::new(
            QuerySpec {
                ins_time: Timestamp(10),
                filters: vec![Filter {
                    side: Side::Left,
                    attr: "B".into(),
                    value: Value::Int(7),
                }],
                ..spec(5, "n1")
            },
            &c,
        )
        .unwrap();
        let schema = c.get("R").unwrap().clone();
        let mk = |b: i64, t: u64| {
            Tuple::new(
                schema.clone(),
                vec![Value::Int(1), Value::Int(b), Value::Int(3)],
                Timestamp(t),
                0,
            )
            .unwrap()
        };
        assert!(q.triggered_by(Side::Left, &mk(7, 10)).unwrap());
        assert!(!q.triggered_by(Side::Left, &mk(7, 9)).unwrap(), "too old");
        assert!(
            !q.triggered_by(Side::Left, &mk(8, 10)).unwrap(),
            "filter fails"
        );
    }

    #[test]
    fn group_key_ignores_select_list() {
        let c = catalog();
        let q1 = t1_query(&c);
        let q2 = JoinQuery::new(
            QuerySpec {
                ins_time: Timestamp(99),
                select: vec![SelectItem {
                    side: Side::Right,
                    attr: "B".into(),
                }],
                ..spec(0, "n2")
            },
            &c,
        )
        .unwrap();
        assert_eq!(q1.group_key(), q2.group_key());
    }

    #[test]
    fn group_key_distinguishes_conditions() {
        let c = catalog();
        let q1 = t1_query(&c);
        let q3 = JoinQuery::new(
            QuerySpec {
                conditions: [Expr::attr("B"), Expr::attr("E")],
                ..spec(0, "n3")
            },
            &c,
        )
        .unwrap();
        assert_ne!(q1.group_key(), q3.group_key());
    }

    #[test]
    fn display_roundtrips_structure() {
        let c = catalog();
        let q = t1_query(&c);
        assert_eq!(q.to_string(), "SELECT R.A, S.D FROM R, S WHERE C = E");
    }
}
