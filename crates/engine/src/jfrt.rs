//! The Join Fingers Routing Table (JFRT, Section 4.7).
//!
//! A rewriter repeatedly reindexes rewritten queries toward value-level
//! identifiers. The JFRT caches, per value-level identifier, the evaluator
//! node discovered by the first O(log N) lookup; subsequent reindex messages
//! for the same identifier reach the evaluator in a single hop. Under churn
//! a cached entry can go stale; a stale hit costs one wasted hop and falls
//! back to ordinary routing.

use cq_fasthash::FxHashMap;
use cq_overlay::{Id, NodeHandle};

/// Outcome of consulting the JFRT for one reindex message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JfrtLookup {
    /// Cache hit: deliver directly to the node in one hop.
    Hit(NodeHandle),
    /// Cache miss: route normally, then insert the discovered evaluator.
    Miss,
    /// Stale entry: the cached node no longer owns the identifier; one hop
    /// was wasted reaching it, then route normally.
    Stale,
}

/// Per-rewriter cache of `value-level identifier → evaluator`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Jfrt {
    entries: FxHashMap<Id, NodeHandle>,
}

impl Jfrt {
    /// Consults the cache; `still_owner` must report whether a node is alive
    /// and currently responsible for the identifier (a node can verify this
    /// with one direct probe).
    pub fn lookup(&mut self, id: Id, still_owner: impl Fn(NodeHandle, Id) -> bool) -> JfrtLookup {
        match self.entries.get(&id) {
            Some(&node) if still_owner(node, id) => JfrtLookup::Hit(node),
            Some(_) => {
                self.entries.remove(&id);
                JfrtLookup::Stale
            }
            None => JfrtLookup::Miss,
        }
    }

    /// Records the evaluator discovered by a routed lookup.
    pub fn record(&mut self, id: Id, node: NodeHandle) {
        self.entries.insert(id, node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut j = Jfrt::default();
        let id = Id(42);
        let n = NodeHandle::from_index(3);
        assert_eq!(j.lookup(id, |_, _| true), JfrtLookup::Miss);
        j.record(id, n);
        assert_eq!(j.lookup(id, |_, _| true), JfrtLookup::Hit(n));
        assert_eq!(j.lookup(id, |_, _| true), JfrtLookup::Hit(n));
    }

    #[test]
    fn stale_entry_is_evicted() {
        let mut j = Jfrt::default();
        let id = Id(42);
        j.record(id, NodeHandle::from_index(3));
        assert_eq!(j.lookup(id, |_, _| false), JfrtLookup::Stale);
        // entry evicted: the next lookup is a miss even for a live owner
        assert_eq!(j.lookup(id, |_, _| true), JfrtLookup::Miss);
    }

    #[test]
    fn record_overwrites() {
        let mut j = Jfrt::default();
        j.record(Id(1), NodeHandle::from_index(1));
        j.record(Id(1), NodeHandle::from_index(2));
        assert_eq!(
            j.lookup(Id(1), |_, _| true),
            JfrtLookup::Hit(NodeHandle::from_index(2))
        );
        // other identifiers are untouched by the overwrite
        assert_eq!(j.lookup(Id(2), |_, _| true), JfrtLookup::Miss);
    }
}
