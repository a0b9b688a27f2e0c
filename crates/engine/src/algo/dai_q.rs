//! DAI-Q — double-attribute indexing, query side (Section 4.4.2).
//!
//! Queries are indexed on *both* sides; evaluators store tuples only.
//! Rewritten queries are evaluated on arrival and discarded, so every
//! match is produced by the tuple that was already stored.

use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{QueryRef, RewrittenQuery, Side, Tuple};

use super::common;
use crate::config::Algorithm;
use crate::error::Result;
use crate::protocol::{Effect, NodeCtx, Protocol};
use crate::tables::StoredTuple;

/// The DAI-Q protocol (Section 4.4.2).
#[derive(Clone, Copy, Debug, Default)]
pub struct DaiQProtocol;

impl Protocol for DaiQProtocol {
    fn algorithm(&self) -> Algorithm {
        Algorithm::DaiQ
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
        common::t1_tuple_arrival(ctx, &tuple, &attr, index_id, false)
    }

    fn on_value_tuple(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()> {
        // Store only — matching happens when rewritten queries arrive.
        let _ = tuple.canonical_of(&attr)?;
        let (st, fx) = ctx.split();
        common::store_value_tuple(
            st,
            fx,
            StoredTuple {
                index_id,
                attr,
                tuple,
            },
        )?;
        Ok(())
    }

    fn on_rewritten_query(
        &self,
        ctx: &mut NodeCtx<'_>,
        items: Vec<RewrittenQuery>,
        index_id: Id,
    ) -> Result<()> {
        let _ = index_id; // evaluate, never store
        let (st, fx) = ctx.split();
        let mut matches = fx.new_matches();
        let mut matcher = fx.take_matcher();
        let mut value_key = fx.take_scratch();
        let mut items = items.as_slice();
        while let Some(head) = items.first() {
            let (run, rest) = items.split_at(common::target_run_len(items));
            let (rel, attr) = common::attribute_target(fx, head, &mut value_key)?;
            let tuples = st.tables.vltt.bucket(rel, attr, &value_key);
            let candidates = tuples.len() as u64;
            matcher.match_run(run, tuples, &mut matches, |produced| {
                common::note_join_eval(fx, candidates, produced)
            })?;
            items = rest;
        }
        fx.restore_matcher(matcher);
        fx.restore_scratch(value_key);
        fx.push(Effect::Deliver { matches });
        Ok(())
    }
}
