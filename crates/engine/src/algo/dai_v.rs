//! DAI-V — double-attribute indexing at the value of the join condition
//! (Section 4.5). The only algorithm that evaluates type-T2 queries.
//!
//! Tuples are indexed at the attribute level only; on arrival at a
//! rewriter, each triggered query is rewritten to a *value* target and
//! shipped — together with the triggering tuple — in a combined `JoinV`
//! message to `Hash(valJC)`, where the evaluator matches against stored
//! tuples of the other side and then stores the tuple.

use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{JoinQuery, QueryRef, RewrittenQuery, Side, Tuple};

use super::common;
use crate::config::Algorithm;
use crate::error::Result;
use crate::indexing;
use crate::messages::{Message, ValueJoin};
use crate::protocol::{Effect, NodeCtx, Protocol};
use crate::replication::ReplicaItem;
use crate::tables::StoredValueTuple;
use crate::trace::TraceEvent;

/// The DAI-V protocol (Section 4.5).
#[derive(Clone, Copy, Debug, Default)]
pub struct DaiVProtocol;

impl Protocol for DaiVProtocol {
    fn algorithm(&self) -> Algorithm {
        Algorithm::DaiV
    }

    fn validate_query(&self, _query: &JoinQuery) -> Result<()> {
        // DAI-V evaluates both T1 and T2 queries.
        Ok(())
    }

    fn on_pose_query(&self, ctx: &mut NodeCtx<'_>, query: &QueryRef) -> Result<()> {
        common::pose_at_sides(ctx, query, &Side::BOTH)
    }

    fn on_publish_tuple(&self, ctx: &mut NodeCtx<'_>, tuple: &Arc<Tuple>) -> Result<()> {
        // Attribute level only — the value-level identifier of a tuple is
        // not knowable without the query's join condition.
        common::publish_tuple(ctx, tuple, false);
        Ok(())
    }

    fn on_tuple_arrival(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()> {
        // In-place rewriter scan: record arrival statistics, then walk the
        // ALQT groups directly — entries scoped to other replica
        // identifiers are skipped during iteration and the group key is
        // borrowed, only turned into an owned `String` when a message is
        // actually emitted for the group.
        let rel = tuple.relation();
        let value_key = tuple.canonical_of(&attr)?;
        let (st, fx) = ctx.split();
        st.record_arrival(rel, &attr, value_key);
        let space = fx.space();
        let keyed = fx.config().dai_v_keyed;
        let mut text = fx.take_scratch();
        let mut checks = 0u64;
        for (group, stored) in st.tables.alqt.groups(rel, &attr) {
            if keyed {
                // Section 4.5's keyed extension: one evaluator — and one
                // message — per (query, valJC); no grouping possible.
                for sq in stored {
                    if sq.index_id != index_id {
                        continue;
                    }
                    checks += 1;
                    debug_assert_eq!(sq.index_attr, attr, "ALQT buckets by index attribute");
                    let Some(rq) = RewrittenQuery::rewrite_value(&sq.query, sq.index_side, &tuple)?
                    else {
                        continue;
                    };
                    text.clear();
                    rq.target().value().canonical_into(&mut text);
                    let qkey = sq.query.key().0.clone();
                    let id = indexing::vindex_value_keyed(space, &qkey, &text);
                    let msg = Message::JoinV(Box::new(ValueJoin {
                        // matching is scoped per query under this variant
                        group: format!("K|{qkey}"),
                        items: vec![rq],
                        tuple: Arc::clone(&tuple),
                        side: sq.index_side,
                        value_key: text.as_str().into(),
                        index_id: id,
                    }));
                    fx.push(Effect::Send { id, msg });
                }
            } else {
                // One message per (group, valJC): rewritten queries + tuple.
                let mut items: Vec<RewrittenQuery> = Vec::new();
                let mut side = None;
                for (i, sq) in stored.iter().enumerate() {
                    if sq.index_id != index_id {
                        continue;
                    }
                    checks += 1;
                    debug_assert_eq!(sq.index_attr, attr, "ALQT buckets by index attribute");
                    if let Some(rq) =
                        RewrittenQuery::rewrite_value(&sq.query, sq.index_side, &tuple)?
                    {
                        side = Some(sq.index_side);
                        if items.is_empty() {
                            items.reserve(stored.len() - i);
                        }
                        items.push(rq);
                    }
                }
                // A group shares its join condition, hence one valJC.
                if let (Some(side), Some(last)) = (side, items.last()) {
                    text.clear();
                    last.target().value().canonical_into(&mut text);
                    let id = indexing::vindex_value_canonical(space, &text);
                    let msg = Message::JoinV(Box::new(ValueJoin {
                        group: group.to_string(),
                        items,
                        tuple: Arc::clone(&tuple),
                        side,
                        value_key: text.as_str().into(),
                        index_id: id,
                    }));
                    fx.push(Effect::Send { id, msg });
                }
            }
        }
        fx.restore_scratch(text);
        if checks > 0 {
            let node = fx.node().index();
            fx.metrics().add_rewriter_filtering(node, checks);
        }
        Ok(())
    }

    fn on_join_message(&self, ctx: &mut NodeCtx<'_>, join: ValueJoin) -> Result<()> {
        let ValueJoin {
            group,
            items,
            tuple,
            side,
            value_key,
            index_id,
        } = join;
        // Match the rewritten queries against stored tuples of the other
        // side, then store the triggering tuple. Rewritten queries are not
        // stored.
        let other = side.other();
        let (st, fx) = ctx.split();
        let node = fx.node().index();
        let mut matches = fx.new_matches();
        let mut matcher = fx.take_matcher();
        let mut checked = 0u64;
        // The candidate list is the same for every item: look it up once and
        // match the whole run against it — still charging every rewritten
        // query the whole list, as the paper counts filtering work.
        let key = value_key.as_str();
        let stored = st.tables.vstore.candidates(&group, key, other);
        let candidates = stored.as_slice();
        let count = candidates.len() as u64;
        matcher.match_run(&items, candidates, &mut matches, |_| {
            fx.metrics().add_evaluator_filtering(node, count);
            checked += count;
        })?;
        fx.restore_matcher(matcher);
        let (tick, produced) = (fx.tick(), matches.len());
        fx.trace(|| TraceEvent::JoinEval {
            tick,
            node: node as u32,
            candidates: checked,
            matches: produced,
        });
        fx.trace(|| TraceEvent::IndexInsert {
            tick,
            node: node as u32,
            table: "vstore",
            fresh: true, // the value store keeps every arrival
        });
        let entry = StoredValueTuple {
            index_id,
            side,
            tuple,
        };
        let item = ReplicaItem::ValueTuple {
            group,
            value_key,
            entry,
        };
        st.store(fx, item)?;
        fx.push(Effect::Deliver { matches });
        Ok(())
    }
}
