//! SAI — the single-attribute-index algorithm (Section 4.3).
//!
//! A query is indexed on *one* side (chosen by the configured
//! [`IndexStrategy`]); evaluators store both rewritten queries and tuples,
//! so either arrival order produces the match.

use std::cmp::Ordering;
use std::sync::Arc;

use cq_overlay::Id;
use cq_relational::{JoinQuery, QueryRef, RewrittenQuery, Side, Tuple};
use rand::Rng;

use super::common;
use crate::config::{Algorithm, IndexStrategy};
use crate::error::Result;
use crate::protocol::{Effect, NodeCtx, Protocol};
use crate::replication::ReplicaItem;
use crate::tables::{StoredRewritten, StoredTuple, Tables};
use crate::trace::TraceEvent;

/// The SAI protocol (Section 4.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct SaiProtocol;

impl SaiProtocol {
    /// Picks the side to index the query by (Section 4.3.6): random, or by
    /// probing the two candidate rewriters' arrival statistics.
    fn choose_index_side(&self, ctx: &mut NodeCtx<'_>, query: &JoinQuery) -> Result<Side> {
        match ctx.config().strategy {
            IndexStrategy::Random => Ok(if ctx.rng().gen::<bool>() {
                Side::Left
            } else {
                Side::Right
            }),
            IndexStrategy::LowestRate => {
                let (l, r) = common::probe_rewriters(ctx, query)?;
                Ok(match l.0.cmp(&r.0) {
                    Ordering::Less => Side::Left,
                    Ordering::Greater => Side::Right,
                    Ordering::Equal => {
                        if ctx.rng().gen::<bool>() {
                            Side::Left
                        } else {
                            Side::Right
                        }
                    }
                })
            }
            IndexStrategy::MostDistinctValues => {
                let (l, r) = common::probe_rewriters(ctx, query)?;
                Ok(match l.1.cmp(&r.1) {
                    Ordering::Greater => Side::Left,
                    Ordering::Less => Side::Right,
                    Ordering::Equal => {
                        if ctx.rng().gen::<bool>() {
                            Side::Left
                        } else {
                            Side::Right
                        }
                    }
                })
            }
        }
    }
}

impl Protocol for SaiProtocol {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sai
    }

    fn on_pose_query(&self, ctx: &mut NodeCtx<'_>, query: &QueryRef) -> Result<()> {
        let side = self.choose_index_side(ctx, query)?;
        common::pose_at_sides(ctx, query, &[side])
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
        // Match stored rewritten queries against the tuple (4.3.4) ...
        let (st, fx) = ctx.split();
        let matches = common::match_vlqt_candidates(fx, &mut st.tables.vlqt, &tuple, &attr)?;
        fx.push(Effect::Deliver { matches });
        // ... then store it for rewritten queries still to come.
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
        let (st, fx) = ctx.split();
        let Tables { vlqt, vltt, .. } = &mut st.tables;
        let repl = fx.repl_k() > 0;
        let mut matches = fx.new_matches();
        let mut matcher = fx.take_matcher();
        let mut value_key = fx.take_scratch();
        let mut items = items.into_iter();
        while let Some(head) = items.as_slice().first() {
            // A run of one shape shares its buckets and the matcher's
            // verdicts, decided at its first fresh rewriting.
            let run = common::shape_run_len(items.as_slice());
            let (rel, attr) = common::attribute_target(fx, head, &mut value_key)?;
            let tuples = vltt.bucket(rel, attr, &value_key);
            let mut bucket = vlqt.bucket_mut(rel, attr, &value_key);
            bucket.reserve(run);
            matcher.reset();
            for rq in items.by_ref().take(run) {
                // Store first (dedup by identity); only a *new* rewritten query
                // is evaluated against stored tuples — a duplicate "need
                // only store the information related to tuple t".
                // `insert_fresh` lends the stored entry so the fresh path
                // borrows it instead of cloning the rewritten query.
                let stored = bucket.insert_fresh(StoredRewritten { index_id, rq })?;
                let fresh = stored.is_some();
                let (tick, node) = (fx.tick(), fx.node().index() as u32);
                fx.trace(|| TraceEvent::IndexInsert {
                    tick,
                    node,
                    table: "vlqt",
                    fresh,
                });
                if let Some(entry) = stored {
                    if repl {
                        fx.push(Effect::Replicate {
                            item: ReplicaItem::Rewritten(entry.to_stored()),
                        });
                    }
                    let produced = matcher.match_rewriting(entry.rq, tuples, &mut matches)?;
                    common::note_join_eval(fx, tuples.len() as u64, produced);
                }
            }
        }
        fx.restore_matcher(matcher);
        fx.restore_scratch(value_key);
        fx.push(Effect::Deliver { matches });
        Ok(())
    }
}
