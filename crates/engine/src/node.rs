//! Per-node protocol state: the local tables, the JFRT, observed arrival
//! statistics and the subscriber inbox.

use cq_fasthash::{FxHashMap, FxHashSet};
use cq_relational::{Notification, RewriteIdentity};

use crate::error::Result;
use crate::jfrt::Jfrt;
use crate::protocol::{Effect, EffectCtx};
use crate::replication::{DigestIndex, ReplicaItem, ReplicaStore};
use crate::tables::keys::{get_or_default, key_view, lookup_key, FirstSeen, StrPair, ValueKey};
use crate::tables::Tables;

/// Arrival statistics a rewriter keeps per `(relation, attribute)` — "each
/// node can keep track of the total number of tuples that have arrived … in
/// the last time window" and of the values seen (Section 4.3.6).
///
/// The time window is the whole run: nothing ends it, so a probe reads
/// every arrival the node has recorded.
#[derive(Clone, Debug, Default)]
pub struct ArrivalStats {
    /// Tuples seen.
    pub count: u64,
    /// Distinct values observed (canonical forms).
    pub distinct: FxHashSet<ValueKey>,
}

/// The protocol state of one network node.
#[derive(Clone, Debug, Default)]
pub struct NodeState {
    /// The primary state the node holds on behalf of the network: its
    /// query, rewritten-query and tuple tables, the DAI-V store, and the
    /// notifications held for offline subscribers whose key identifier it
    /// is responsible for (Section 4.6).
    pub tables: Tables,
    /// Join Fingers Routing Table (rewriter role, Section 4.7).
    pub(crate) jfrt: Jfrt,
    /// DAI-T rewriter memory of already-reindexed rewritten queries — "a
    /// rewriter does not need to reindex the same rewritten query more
    /// than once" (Section 4.4.3). It keeps each one's identity only.
    pub reindexed: FirstSeen<RewriteIdentity>,
    /// Notifications this node has received as a subscriber.
    pub inbox: Vec<Notification>,
    /// Per-(relation, attribute) arrival statistics.
    pub arrivals: FxHashMap<StrPair, ArrivalStats>,
    /// Counter for deriving this node's query keys.
    pub query_counter: u64,
    /// Mirrored copies of predecessors' primary state (k-successor
    /// replication); dormant until promoted after a failure. Excluded from
    /// [`NodeState::storage_load`] — replicas are redundancy, not load.
    pub replicas: ReplicaStore,
    /// Digest keys of the primary `tables`, for anti-entropy: fed item by
    /// item as each is mirrored (`Network::replicate`, so only while
    /// replication is on), invalidated by the bulk churn paths and rebuilt
    /// by [`NodeState::primary_digests`].
    pub(crate) mirrored: DigestIndex,
}

impl NodeState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        NodeState::default()
    }

    /// Records an attribute-level tuple arrival for strategy statistics.
    ///
    /// `value_key` is the tuple value's canonical form; it is only copied
    /// into the distinct-value set the first time it is seen.
    pub fn record_arrival(&mut self, relation: &str, attr: &str, value_key: &str) {
        let stats = get_or_default(&mut self.arrivals, lookup_key(&(relation, attr)), || {
            StrPair::new(relation, attr)
        });
        stats.count += 1;
        if !stats.distinct.contains(key_view(&value_key)) {
            stats.distinct.insert(ValueKey::from(value_key));
        }
    }

    /// Arrival statistics for `(relation, attr)`: `(count, distinct values)`.
    pub fn arrival_stats(&self, relation: &str, attr: &str) -> (u64, usize) {
        self.arrivals
            .get(lookup_key(&(relation, attr)))
            .map_or((0, 0), |s| (s.count, s.distinct.len()))
    }

    /// The node's storage load: every item it holds on behalf of the
    /// network (queries, rewritten queries, tuples, offline notifications).
    pub fn storage_load(&self) -> usize {
        self.tables.len()
    }

    /// Storage held in the evaluator role only (value-level items), used by
    /// the E8/E9 experiments.
    pub fn evaluator_storage(&self) -> usize {
        let t = &self.tables;
        t.vlqt.len() + t.vltt.len() + t.vstore.len()
    }

    /// Stores `item` as primary state and, when it is fresh and k-successor
    /// replication is on, asks for it to be mirrored — the one insert path
    /// for every kind outside the evaluators' per-bucket VLQT runs. Returns
    /// whether the item was fresh.
    pub(crate) fn store(&mut self, fx: &mut EffectCtx<'_>, item: ReplicaItem) -> Result<bool> {
        if fx.repl_k() == 0 {
            return self.tables.insert(item);
        }
        let fresh = self.tables.insert(item.clone())?;
        if fresh {
            fx.push(Effect::Replicate { item });
        }
        Ok(fresh)
    }

    /// The digest index over this node's primary state, rebuilt from the
    /// tables first if a bulk path (state loss, key transfer) invalidated it.
    pub(crate) fn primary_digests(&mut self) -> &mut DigestIndex {
        if self.mirrored.is_stale() {
            let keys = self.tables.walk().map(|h| (h.index_id(), h.digest_hash()));
            self.mirrored.rebuild(keys);
        }
        &mut self.mirrored
    }

    /// Number of mirrored replica items held for other nodes (the
    /// robustness layer's redundancy overhead; not part of
    /// [`NodeState::storage_load`]).
    pub fn replica_load(&self) -> usize {
        self.replicas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_stats_accumulate() {
        let mut n = NodeState::new();
        n.record_arrival("R", "B", "i:1");
        n.record_arrival("R", "B", "i:1");
        n.record_arrival("R", "B", "i:2");
        assert_eq!(n.arrival_stats("R", "B"), (3, 2));
        assert_eq!(n.arrival_stats("R", "C"), (0, 0));
    }

    #[test]
    fn storage_load_sums_tables() {
        let n = NodeState::new();
        assert_eq!(n.storage_load(), 0);
        assert_eq!(n.evaluator_storage(), 0);
    }
}
