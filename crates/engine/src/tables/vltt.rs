//! The value-level tuple table (VLTT, Section 4.3.5).
//!
//! "A two level hash table where tuples are indexed at the first level
//! according to their index attribute and at the second level according to
//! the value of this attribute in the tuple." Storing tuples at the value
//! level is what makes SAI (and DAI-Q) complete when a rewritten query
//! arrives after matching tuples were inserted.

use std::sync::Arc;

use cq_fasthash::FxHashMap;
use cq_overlay::Id;
use cq_relational::Tuple;

use super::keys::{get_or_default, key_view, lookup_key, StrPair, ValueKey};
use crate::error::Result;

/// A tuple stored at the value level together with the attribute it was
/// indexed by (`IndexA(t)`) and the identifier it was indexed under.
#[derive(Clone, Debug)]
pub struct StoredTuple {
    /// The value-level identifier (`Hash(R + A_i + v_i)`).
    pub index_id: Id,
    /// `IndexA(t)` — the attribute that routed the tuple here.
    pub attr: String,
    /// The tuple.
    pub tuple: Arc<Tuple>,
}

impl AsRef<Tuple> for StoredTuple {
    fn as_ref(&self) -> &Tuple {
        &self.tuple
    }
}

/// The two-level value-level tuple table.
///
/// Buckets are keyed by an owned `(relation, attr)` [`StrPair`] at the first
/// level and by the value's canonical form, an inline [`ValueKey`], at the
/// second; lookups borrow the caller's `&str`s instead of allocating key
/// strings (see [`super::keys`]).
#[derive(Clone, Debug, Default)]
pub struct Vltt {
    buckets: FxHashMap<StrPair, FxHashMap<ValueKey, Vec<StoredTuple>>>,
    len: usize,
}

impl Vltt {
    /// An empty table.
    pub fn new() -> Self {
        Vltt::default()
    }

    /// Stores a tuple under `(relation, attr, value-of-attr)`. Errors when
    /// the tuple's schema lacks the index attribute (a corrupted entry —
    /// e.g. a malformed replica payload — rather than a caller bug).
    pub fn insert(&mut self, entry: StoredTuple) -> Result<()> {
        let value_key = entry.tuple.canonical_of(&entry.attr)?;
        let (rel, attr) = (entry.tuple.relation(), &*entry.attr);
        let by_value = get_or_default(&mut self.buckets, lookup_key(&(rel, attr)), || {
            StrPair::new(rel, attr)
        });
        let bucket = get_or_default(by_value, key_view(&value_key), || value_key.into());
        bucket.push(entry);
        self.len += 1;
        Ok(())
    }

    /// The stored tuples a rewritten query targeting
    /// `(relation, attr = value)` must be matched against, as one slice:
    /// the items of a `Join` message share their target, so the evaluator
    /// resolves it once for all of them.
    pub fn bucket(&self, relation: &str, attr: &str, value_key: &str) -> &[StoredTuple] {
        self.buckets
            .get(lookup_key(&(relation, attr)))
            .and_then(|m| m.get(key_view(&value_key)))
            .map_or(&[], Vec::as_slice)
    }

    /// [`Vltt::bucket`] as an iterator.
    pub fn candidates(
        &self,
        relation: &str,
        attr: &str,
        value_key: &str,
    ) -> impl Iterator<Item = &StoredTuple> {
        self.bucket(relation, attr, value_key).iter()
    }

    /// Iterates every stored entry, in arbitrary order (anti-entropy
    /// digests; the digest combination is order-independent).
    pub fn entries(&self) -> impl Iterator<Item = &StoredTuple> {
        self.buckets
            .values()
            .flat_map(|by_value| by_value.values())
            .flatten()
    }

    /// Total stored tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes entries whose index identifier satisfies the predicate.
    pub fn extract_where(&mut self, mut pred: impl FnMut(Id) -> bool) -> Vec<StoredTuple> {
        let mut out = Vec::new();
        for by_value in self.buckets.values_mut() {
            for entries in by_value.values_mut() {
                let mut i = 0;
                while i < entries.len() {
                    if pred(entries[i].index_id) {
                        out.push(entries.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            by_value.retain(|_, v| !v.is_empty());
        }
        self.buckets.retain(|_, m| !m.is_empty());
        self.len -= out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::{DataType, RelationSchema, Timestamp, Value};

    fn tuple(a: i64, b: i64) -> Arc<Tuple> {
        let schema = Arc::new(
            RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap(),
        );
        Arc::new(Tuple::new(schema, vec![Value::Int(a), Value::Int(b)], Timestamp(0), 0).unwrap())
    }

    #[test]
    fn insert_and_lookup_by_attr_and_value() {
        let mut t = Vltt::new();
        t.insert(StoredTuple {
            index_id: Id(0),
            attr: "A".into(),
            tuple: tuple(7, 1),
        })
        .unwrap();
        t.insert(StoredTuple {
            index_id: Id(0),
            attr: "A".into(),
            tuple: tuple(7, 2),
        })
        .unwrap();
        t.insert(StoredTuple {
            index_id: Id(0),
            attr: "B".into(),
            tuple: tuple(7, 1),
        })
        .unwrap();
        assert_eq!(t.len(), 3);
        let k7 = Value::Int(7).canonical();
        let (k1, k9) = (Value::Int(1).canonical(), Value::Int(9).canonical());
        assert_eq!(t.candidates("R", "A", &k7).count(), 2);
        assert_eq!(t.candidates("R", "B", &k1).count(), 1);
        assert_eq!(t.candidates("R", "A", &k9).count(), 0);
        assert_eq!(t.candidates("S", "A", &k7).count(), 0);
    }

    #[test]
    fn inline_and_heap_keys_find_their_bucket() {
        // `Int(i64::MIN)`'s form is 22 bytes, inline; a 23-byte `Str` form
        // is not.
        let schema = Arc::new(
            RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Str)]).unwrap(),
        );
        let (int, text) = (Value::Int(i64::MIN), Value::from("x".repeat(21).as_str()));
        let values = vec![int.clone(), text.clone()];
        let tuple = Arc::new(Tuple::new(schema, values, Timestamp(0), 0).unwrap());
        let mut t = Vltt::new();
        for (attr, value) in [("A", int), ("B", text)] {
            let entry = StoredTuple {
                index_id: Id(0),
                attr: attr.into(),
                tuple: Arc::clone(&tuple),
            };
            t.insert(entry.clone()).unwrap();
            t.insert(entry).unwrap();
            let vkey = value.canonical();
            assert_eq!(t.candidates("R", attr, &vkey).count(), 2, "{vkey}");
            let shorter = &vkey[..vkey.len() - 1];
            assert_eq!(t.candidates("R", attr, shorter).count(), 0);
        }
    }

    #[test]
    fn extract_where_removes_matching() {
        let mut t = Vltt::new();
        t.insert(StoredTuple {
            index_id: Id(1),
            attr: "A".into(),
            tuple: tuple(1, 1),
        })
        .unwrap();
        t.insert(StoredTuple {
            index_id: Id(2),
            attr: "A".into(),
            tuple: tuple(2, 2),
        })
        .unwrap();
        let moved = t.extract_where(|id| id == Id(1));
        assert_eq!(moved.len(), 1);
        assert_eq!(t.len(), 1);
        let rest = t.extract_where(|_| true);
        assert_eq!(rest.len(), 1);
        assert!(t.is_empty());
    }
}
