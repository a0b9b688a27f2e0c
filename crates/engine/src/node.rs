//! Per-node protocol state: the local tables, the JFRT, observed arrival
//! statistics and the subscriber inbox.

use cq_fasthash::{FxHashMap, FxHashSet};
use cq_relational::{Notification, RewriteIdentity};

use crate::error::Result;
use crate::jfrt::Jfrt;
use crate::protocol::{Effect, EffectCtx};
use crate::replication::{DigestIndex, ReplicaItem, ReplicaStore};
use crate::tables::keys::{bucket_mut, key_view, lookup_key, FirstSeen, StrPair, ValueKey};
use crate::tables::Tables;

/// Arrival statistics a rewriter keeps per `(relation, attribute)` — "each
/// node can keep track of the total number of tuples that have arrived … in
/// the last time window" and of the values seen (Section 4.3.6).
///
/// Counts are kept for the current and the previous window; probes read
/// their sum, so a burst older than two windows no longer biases the
/// index-attribute choice.
#[derive(Clone, Debug, Default)]
pub struct ArrivalStats {
    /// Tuples seen in the current window.
    pub count: u64,
    /// Tuples seen in the previous window.
    pub prev_count: u64,
    /// Distinct values observed (canonical forms; kept across windows — the
    /// domain estimate only grows more accurate).
    pub distinct: FxHashSet<ValueKey>,
}

impl ArrivalStats {
    /// The rate estimate a probe reads: current + previous window.
    pub fn windowed_count(&self) -> u64 {
        self.count + self.prev_count
    }

    /// Rolls the window: current becomes previous, current resets.
    pub fn roll(&mut self) {
        self.prev_count = self.count;
        self.count = 0;
    }
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
    pub jfrt: Jfrt,
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
        let stats = bucket_mut(&mut self.arrivals, relation, attr);
        stats.count += 1;
        if !stats.distinct.contains(key_view(&value_key)) {
            stats.distinct.insert(ValueKey::from(value_key));
        }
    }

    /// Arrival statistics for `(relation, attr)`:
    /// `(windowed count, distinct values)`.
    pub fn arrival_stats(&self, relation: &str, attr: &str) -> (u64, usize) {
        self.arrivals
            .get(lookup_key(&(relation, attr)))
            .map_or((0, 0), |s| (s.windowed_count(), s.distinct.len()))
    }

    /// Rolls every arrival-statistics window (run by the simulator when a
    /// measurement window ends).
    pub fn roll_statistics_window(&mut self) {
        for s in self.arrivals.values_mut() {
            s.roll();
        }
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
    fn arrival_window_forgets_old_bursts() {
        let mut n = NodeState::new();
        for _ in 0..10 {
            n.record_arrival("R", "B", "i:1");
        }
        n.roll_statistics_window();
        assert_eq!(
            n.arrival_stats("R", "B").0,
            10,
            "previous window still counted"
        );
        n.record_arrival("R", "B", "i:2");
        assert_eq!(n.arrival_stats("R", "B").0, 11);
        n.roll_statistics_window();
        assert_eq!(
            n.arrival_stats("R", "B").0,
            1,
            "burst two windows back forgotten"
        );
        n.roll_statistics_window();
        assert_eq!(n.arrival_stats("R", "B").0, 0);
        // distinct-value knowledge is retained
        assert_eq!(n.arrival_stats("R", "B").1, 2);
    }

    #[test]
    fn storage_load_sums_tables() {
        let n = NodeState::new();
        assert_eq!(n.storage_load(), 0);
        assert_eq!(n.evaluator_storage(), 0);
    }
}
