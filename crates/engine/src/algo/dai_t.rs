//! DAI-T — double-attribute indexing, tuple side (Section 4.4.3).
//!
//! Queries are indexed on *both* sides; evaluators store rewritten queries
//! only. Matching happens when value-level tuples arrive, and a rewriter
//! remembers which rewritten queries it has already reindexed so each is
//! sent at most once.

use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{QueryRef, RewrittenQuery, Side, Tuple};

use super::common;
use crate::config::Algorithm;
use crate::error::Result;
use crate::protocol::{Effect, NodeCtx, Protocol};
use crate::replication::ReplicaItem;
use crate::tables::StoredRewritten;
use crate::trace::TraceEvent;

/// The DAI-T protocol (Section 4.4.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct DaiTProtocol;

impl Protocol for DaiTProtocol {
    fn algorithm(&self) -> Algorithm {
        Algorithm::DaiT
    }

    fn on_pose_query(&self, ctx: &mut NodeCtx<'_>, query: &QueryRef) -> Result<()> {
        common::pose_at_sides(ctx, query, &Side::BOTH)
    }

    fn on_publish_tuple(&self, ctx: &mut NodeCtx<'_>, tuple: &Arc<Tuple>) -> Result<()> {
        common::publish_tuple(ctx, tuple, true);
        Ok(())
    }

    fn on_tuple_arrival(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()> {
        // DAI-T's rewriter memory: reindex each rewritten query at most once.
        common::t1_tuple_arrival(ctx, &tuple, &attr, index_id, true)
    }

    fn on_value_tuple(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()> {
        let _ = index_id; // match only — tuples are never stored
        let (st, fx) = ctx.split();
        let matches = common::match_vlqt_candidates(fx, &mut st.tables.vlqt, &tuple, &attr)?;
        fx.push(Effect::Deliver { matches });
        Ok(())
    }

    fn on_rewritten_query(
        &self,
        ctx: &mut NodeCtx<'_>,
        items: Vec<RewrittenQuery>,
        index_id: Id,
    ) -> Result<()> {
        // Store, never evaluate (tuples will come to us).
        let (st, fx) = ctx.split();
        let repl = fx.repl_k() > 0;
        let mut value_key = fx.take_scratch();
        let mut items = items.into_iter();
        while let Some(head) = items.as_slice().first() {
            let run = common::target_run_len(items.as_slice());
            let (rel, attr) = common::attribute_target(fx, head, &mut value_key)?;
            let mut bucket = st.tables.vlqt.bucket_mut(rel, attr, &value_key);
            bucket.reserve(run);
            for rq in items.by_ref().take(run) {
                let stored = bucket.insert_fresh(StoredRewritten { index_id, rq })?;
                let fresh = stored.is_some();
                if let (Some(entry), true) = (stored, repl) {
                    fx.push(Effect::Replicate {
                        item: ReplicaItem::Rewritten(entry.to_stored()),
                    });
                }
                let (tick, node) = (fx.tick(), fx.node().index() as u32);
                fx.trace(|| TraceEvent::IndexInsert {
                    tick,
                    node,
                    table: "vlqt",
                    fresh,
                });
            }
        }
        fx.restore_scratch(value_key);
        Ok(())
    }
}
