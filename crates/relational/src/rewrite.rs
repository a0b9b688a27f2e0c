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
use std::sync::Arc;

use crate::error::Result;
use crate::query::{JoinQuery, QueryKey, QueryRef, Side};
use crate::tuple::Tuple;
use crate::value::{Timestamp, Value};

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
}

/// A rewritten (select-project) query produced by a rewriter node.
#[derive(Clone, Debug)]
pub struct RewrittenQuery {
    key: String,
    query: QueryRef,
    bound_side: Side,
    bound_values: Vec<Value>,
    target: MatchTarget,
    /// Schema position of an attribute target in the free relation, when
    /// the target is the query's own join attribute there (resolved once,
    /// see [`JoinQuery::join_column`]); `None` sends [`Self::matches`]
    /// through the lookup by name.
    target_col: Option<u32>,
    trigger_time: Timestamp,
}

/// The free side's join attribute as `(shared name, column)` when `attr`
/// names it.
fn join_target(query: &JoinQuery, free: Side, attr: &str) -> Option<(Arc<str>, u32)> {
    let (name, col) = query.join_column(free)?;
    if **name != *attr {
        return None;
    }
    Some((Arc::clone(name), u32::try_from(col).ok()?))
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
        let val_da = t.get(index_attr)?.clone();
        let bound_values = bound_select_values(query, index_side, t)?;
        let key = rewritten_key(query.key(), index_side, &bound_values, &val_da);
        let (attr, target_col) = match join_target(query, index_side.other(), dis_attr) {
            Some((attr, col)) => (attr, Some(col)),
            None => (Arc::from(dis_attr), None),
        };
        Ok(Some(RewrittenQuery {
            key,
            query: Arc::clone(query),
            bound_side: index_side,
            bound_values,
            target: MatchTarget::Attribute {
                attr,
                value: val_da,
            },
            target_col,
            trigger_time: t.pub_time(),
        }))
    }

    /// Rewrites `query` for DAI-V: the match target is the *value of the
    /// join-condition side* computed from `t` (`valJC(q, t)`, Section 4.5).
    pub fn rewrite_value(
        query: &QueryRef,
        side: Side,
        t: &Tuple,
    ) -> Result<Option<RewrittenQuery>> {
        if !query.triggered_by(side, t)? {
            return Ok(None);
        }
        let val_jc = query.condition(side).eval(t)?;
        let bound_values = bound_select_values(query, side, t)?;
        let key = rewritten_key(query.key(), side, &bound_values, &val_jc);
        Ok(Some(RewrittenQuery {
            key,
            query: Arc::clone(query),
            bound_side: side,
            bound_values,
            target: MatchTarget::ConditionValue { value: val_jc },
            target_col: None,
            trigger_time: t.pub_time(),
        }))
    }

    /// Reassembles a rewritten query from its already-computed parts — the
    /// wire-decoding path. The key is carried on the wire rather than
    /// recomputed, so a decoded rewriting keeps the exact identity (and
    /// dedup behavior) of the one the sender held. An attribute target is
    /// resolved against `query` exactly as [`Self::rewrite_attribute`]
    /// does, so a decoded rewriting matches by column too.
    pub fn from_parts(
        key: String,
        query: QueryRef,
        bound_side: Side,
        bound_values: Vec<Value>,
        mut target: MatchTarget,
        trigger_time: Timestamp,
    ) -> RewrittenQuery {
        let mut target_col = None;
        if let MatchTarget::Attribute { attr, .. } = &mut target {
            if let Some((shared, col)) = join_target(&query, bound_side.other(), attr) {
                *attr = shared;
                target_col = Some(col);
            }
        }
        RewrittenQuery {
            key,
            query,
            bound_side,
            bound_values,
            target,
            target_col,
            trigger_time,
        }
    }

    /// `Key(q')` — unique per (query, bound select values, target value), so
    /// that "two rewritten queries have the same key if they are created
    /// from the same query q but by different tuples that have the same
    /// value for IndexA(q)" *and* the same projected values (Section 4.3.3).
    #[inline]
    pub fn key(&self) -> &str {
        &self.key
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

    /// The match target.
    #[inline]
    pub fn target(&self) -> &MatchTarget {
        &self.target
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
        &self.bound_values
    }

    /// Whether a tuple of the free relation completes the join: checks
    /// relation, the free side's filters, the match target, and the time
    /// semantics (`pubT(t) >= insT(q)`) — without building the notification.
    ///
    /// An attribute target that is the query's own join attribute is read
    /// by its resolved schema position (`triggered_by` has established that
    /// `t` is of the free relation); any other target attribute, or a tuple
    /// too short for that position, is looked up by name.
    pub fn matches(&self, t: &Tuple) -> Result<bool> {
        let free = self.free_side();
        if !self.query.triggered_by(free, t)? {
            return Ok(false);
        }
        Ok(match &self.target {
            MatchTarget::Attribute { attr, value } => {
                match self.target_col.and_then(|c| t.values().get(c as usize)) {
                    Some(v) => v == value,
                    None => t.get(attr)? == value,
                }
            }
            MatchTarget::ConditionValue { value } => &self.query.condition(free).eval(t)? == value,
        })
    }

    /// Tries to match a tuple of the free relation; on success produces the
    /// notification content.
    pub fn match_tuple(&self, t: &Tuple) -> Result<Option<Notification>> {
        if !self.matches(t)? {
            return Ok(None);
        }
        Ok(Some(self.notification_with(t)?))
    }

    /// Builds the notification for a tuple already known to match.
    pub fn notification_with(&self, t: &Tuple) -> Result<Notification> {
        let free = self.free_side();
        let mut values = Vec::with_capacity(self.query.select().len());
        let mut bound_iter = self.bound_values.iter();
        for item in self.query.select() {
            if item.side == self.bound_side {
                values.push(
                    bound_iter
                        .next()
                        .expect("bound values cover every bound-side select item")
                        .clone(),
                );
            } else {
                debug_assert_eq!(item.side, free);
                values.push(t.get(&item.attr)?.clone());
            }
        }
        Ok(Notification {
            query_key: self.query.key().clone(),
            subscriber: self.query.subscriber().to_string(),
            values,
        })
    }
}

impl fmt::Display for RewrittenQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.target {
            MatchTarget::Attribute { attr, value } => write!(
                f,
                "SELECT <bound> FROM {} WHERE {attr} = {value} [{}]",
                self.free_relation(),
                self.key
            ),
            MatchTarget::ConditionValue { value } => write!(
                f,
                "SELECT <bound> FROM {} WHERE {} = {value} [{}]",
                self.free_relation(),
                self.query.condition(self.free_side()),
                self.key
            ),
        }
    }
}

fn bound_select_values(query: &JoinQuery, side: Side, t: &Tuple) -> Result<Vec<Value>> {
    query
        .select()
        .iter()
        .filter(|it| it.side == side)
        .map(|it| t.get(&it.attr).cloned())
        .collect()
}

fn rewritten_key(base: &QueryKey, side: Side, bound: &[Value], target_value: &Value) -> String {
    // The bound side is part of the key: a q_L and a q_R rewriting of the
    // same query can otherwise collide when their bound select values and
    // join values coincide, and the DAI deduplication would drop one of
    // them (losing notifications).
    let mut s = String::with_capacity(base.0.len() + 16 * (bound.len() + 1));
    s.push_str(&base.0);
    s.push('/');
    s.push_str(match side {
        Side::Left => "L",
        Side::Right => "R",
    });
    for v in bound {
        s.push('+');
        v.canonical_into(&mut s);
    }
    s.push('+');
    target_value.canonical_into(&mut s);
    s
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

    #[test]
    fn keys_deduplicate_same_content() {
        // Two S tuples with the same B and C values produce rewritten queries
        // with the same key (set semantics of Section 4.3.3) …
        let (c, q) = setup();
        let t1 = s_tuple(&c, 4, 7, 5);
        let t2 = s_tuple(&c, 4, 7, 9);
        let rq1 = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &t1)
            .unwrap()
            .unwrap();
        let rq2 = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &t2)
            .unwrap()
            .unwrap();
        assert_eq!(rq1.key(), rq2.key());
        // … while different select values yield different keys.
        let t3 = s_tuple(&c, 5, 7, 9);
        let rq3 = RewrittenQuery::rewrite_attribute(&q, Side::Right, "C", "C", &t3)
            .unwrap()
            .unwrap();
        assert_ne!(rq1.key(), rq3.key());
    }

    #[test]
    fn left_and_right_rewritings_never_share_keys() {
        // Regression: SELECT R.A, S.B over R.C = S.C with tuples R(3,4) and
        // S(3,4) binds the same select value (3) and the same join value (4)
        // on both sides — the keys must still differ, or DAI deduplication
        // drops one side's rewriting and loses notifications.
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
        assert_ne!(
            left.key(),
            right.key(),
            "bound side must be part of the key"
        );
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
}
