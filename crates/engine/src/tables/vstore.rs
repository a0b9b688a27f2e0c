//! DAI-V's evaluator-side tuple store (Section 4.5).
//!
//! A DAI-V evaluator receives `join(q', t')` messages, matches `q'` against
//! tuples of the *other* relation previously stored for the same query group
//! and join-condition value, and then stores `t'` for future matches.
//!
//! The paper ships `t'` as the projection of the triggering tuple on "the
//! attributes needed for the evaluation of the join"; we store the full
//! tuple — a pure bandwidth optimization in the paper that does not change
//! hop counts, load distribution or match results, which are what the
//! experiments measure.

use std::sync::Arc;

use cq_fasthash::FxHashMap;
use cq_overlay::Id;
use cq_relational::{Side, Tuple};

use super::keys::{get_or_default, lookup_key, StrPair, ValueKey};

/// A tuple stored at a DAI-V evaluator.
#[derive(Clone, Debug)]
pub struct StoredValueTuple {
    /// The value-level identifier (`Hash(valJC)`).
    pub index_id: Id,
    /// Which side of the query group the tuple belongs to.
    pub side: Side,
    /// The tuple.
    pub tuple: Arc<Tuple>,
}

impl AsRef<Tuple> for StoredValueTuple {
    fn as_ref(&self) -> &Tuple {
        &self.tuple
    }
}

/// DAI-V evaluator store.
///
/// Keyed by `(query group, join-condition value)` — matching is scoped to a
/// group so that unrelated conditions that happen to produce the same value
/// at the same node neither collide nor duplicate. The key is an owned
/// [`StrPair`] so lookups borrow instead of allocating (see
/// [`super::keys`]).
#[derive(Clone, Debug, Default)]
pub struct VStore {
    buckets: FxHashMap<StrPair, [Vec<StoredValueTuple>; 2]>,
    len: usize,
}

impl VStore {
    /// An empty store.
    pub fn new() -> Self {
        VStore::default()
    }

    /// Stores a tuple for `(group, value)` on its side.
    pub fn insert(&mut self, group: &str, value_key: &str, entry: StoredValueTuple) {
        let slots = get_or_default(&mut self.buckets, lookup_key(&(group, value_key)), || {
            StrPair::new(group, value_key)
        });
        slots[entry.side.idx()].push(entry);
        self.len += 1;
    }

    /// Stored tuples of `side` for `(group, value)` — what a rewritten query
    /// bound on the *other* side is matched against. The items of one join
    /// message share the list: resolve it once and clone the iterator.
    pub fn candidates(
        &self,
        group: &str,
        value_key: &str,
        side: Side,
    ) -> std::slice::Iter<'_, StoredValueTuple> {
        self.buckets
            .get(lookup_key(&(group, value_key)))
            .map(|slots| slots[side.idx()].as_slice())
            .unwrap_or(&[])
            .iter()
    }

    /// Iterates every stored entry with its `(group, value)` key, in
    /// arbitrary order (anti-entropy digests; the digest combination is
    /// order-independent).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str, &StoredValueTuple)> {
        self.buckets
            .iter()
            .flat_map(|(key, slots)| slots.iter().flatten().map(move |e| (&*key.a, &*key.b, e)))
    }

    /// Total stored tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes entries whose index identifier satisfies the predicate,
    /// returning them with their `(group, value)` keys.
    pub fn extract_where(
        &mut self,
        mut pred: impl FnMut(Id) -> bool,
    ) -> Vec<(String, ValueKey, StoredValueTuple)> {
        let mut out = Vec::new();
        for (key, slots) in self.buckets.iter_mut() {
            for side_entries in slots.iter_mut() {
                let mut i = 0;
                while i < side_entries.len() {
                    if pred(side_entries[i].index_id) {
                        out.push((
                            key.a.to_string(),
                            ValueKey::from(&*key.b),
                            side_entries.swap_remove(i),
                        ));
                    } else {
                        i += 1;
                    }
                }
            }
        }
        self.buckets
            .retain(|_, slots| slots.iter().any(|v| !v.is_empty()));
        self.len -= out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::{DataType, RelationSchema, Timestamp, Value};

    fn tuple() -> Arc<Tuple> {
        let schema = Arc::new(RelationSchema::of("R", &[("A", DataType::Int)]).unwrap());
        Arc::new(Tuple::new(schema, vec![Value::Int(1)], Timestamp(0), 0).unwrap())
    }

    #[test]
    fn matching_is_group_and_side_scoped() {
        let mut s = VStore::new();
        s.insert(
            "g1",
            "v25",
            StoredValueTuple {
                index_id: Id(0),
                side: Side::Left,
                tuple: tuple(),
            },
        );
        assert_eq!(s.candidates("g1", "v25", Side::Left).count(), 1);
        assert_eq!(s.candidates("g1", "v25", Side::Right).count(), 0);
        assert_eq!(
            s.candidates("g2", "v25", Side::Left).count(),
            0,
            "other group"
        );
        assert_eq!(
            s.candidates("g1", "v26", Side::Left).count(),
            0,
            "other value"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn extract_and_drain() {
        let mut s = VStore::new();
        s.insert(
            "g",
            "v",
            StoredValueTuple {
                index_id: Id(1),
                side: Side::Left,
                tuple: tuple(),
            },
        );
        s.insert(
            "g",
            "v",
            StoredValueTuple {
                index_id: Id(2),
                side: Side::Right,
                tuple: tuple(),
            },
        );
        let moved = s.extract_where(|id| id == Id(1));
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].0, "g");
        assert_eq!(s.len(), 1);
        assert_eq!(s.extract_where(|_| true).len(), 1);
        assert!(s.is_empty());
    }
}
