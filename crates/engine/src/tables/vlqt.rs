//! The value-level query table (VLQT, Section 4.3.5).
//!
//! "At the first level rewritten queries are indexed according to their load
//! distributing attribute, while at the second level according to the value
//! that this attribute must take" — incoming tuples find the rewritten
//! queries they might match in one step. Entries are deduplicated by the
//! rewritten query's identity (`Key(q')`, Section 4.3.3).
//!
//! A value bucket is what an arriving tuple scans, so it is laid out for
//! the scan: the entries sit contiguously in one `Vec`, in **insertion
//! order** — the order [`Vlqt::candidates`] yields them in, and therefore
//! the order notifications are produced in. The hasher decides nothing a
//! result depends on. Deduplication goes through a fingerprint index that
//! holds no copy of any entry (see [`FirstSeen`]).

use cq_fasthash::FxHashMap;
use cq_overlay::Id;
use cq_relational::{MatchTarget, RewrittenQuery};

use super::keys::{bucket_mut, lookup_key, str_bucket_mut, FirstSeen, Rewriting, StrPair};
use crate::error::{EngineError, Result};

/// A rewritten query stored at an evaluator together with the value-level
/// identifier it was indexed under.
#[derive(Clone, Debug)]
pub struct StoredRewritten {
    /// The value-level identifier (`Hash(DisR + DisA + v)`).
    pub index_id: Id,
    /// The rewritten query.
    pub rq: RewrittenQuery,
}

impl Rewriting for StoredRewritten {
    #[inline]
    fn fingerprint(&self) -> u64 {
        self.rq.fingerprint()
    }

    #[inline]
    fn is_of(&self, rq: &RewrittenQuery) -> bool {
        self.rq.same_identity(rq)
    }
}

/// The rewritten queries waiting for one `(relation, attr, value)`, in
/// insertion order, deduplicated by identity.
type Bucket = FirstSeen<StoredRewritten>;

fn insert_fresh(bucket: &mut Bucket, entry: StoredRewritten) -> Option<&StoredRewritten> {
    let StoredRewritten { index_id, rq } = entry;
    bucket.insert_with(rq, |rq| StoredRewritten { index_id, rq })
}

/// One value bucket resolved for a run of inserts that share
/// `(relation, attr, value)` — see [`Vlqt::bucket_mut`].
pub(crate) struct BucketMut<'a> {
    bucket: &'a mut Bucket,
    len: &'a mut usize,
}

impl BucketMut<'_> {
    /// [`Vlqt::insert_fresh`] without the two-level lookup. The entry must
    /// target the `(relation, attr, value)` this bucket was resolved for.
    pub(crate) fn insert_fresh(&mut self, entry: StoredRewritten) -> Option<&StoredRewritten> {
        let stored = insert_fresh(self.bucket, entry);
        if stored.is_some() {
            *self.len += 1;
        }
        stored
    }
}

/// The two-level value-level query table.
///
/// First-level buckets are keyed by the load-distributing attribute as an
/// owned `(relation, attr)` [`StrPair`], the second level by the value's
/// canonical form; lookups borrow the caller's `&str`s instead of
/// allocating (see [`super::keys`]). Below that sits one [`FirstSeen`] bucket.
#[derive(Clone, Debug, Default)]
pub struct Vlqt {
    buckets: FxHashMap<StrPair, FxHashMap<Box<str>, Bucket>>,
    len: usize,
    /// Reused for the canonical value of an entry inserted on its own.
    value_key: String,
}

impl Vlqt {
    /// An empty table.
    pub fn new() -> Self {
        Vlqt::default()
    }

    /// Stores a rewritten query. Returns `false` (and stores nothing) when a
    /// rewritten query with the same identity is already present — "x need only
    /// store the information related to tuple t". Errors on a rewritten
    /// query without an attribute target (a mis-wired protocol or a
    /// corrupted replica payload — VLQT is attribute-indexed).
    pub fn insert(&mut self, entry: StoredRewritten) -> Result<bool> {
        Ok(self.insert_fresh(entry)?.is_some())
    }

    /// Like [`Vlqt::insert`], but hands back a borrow of the freshly stored
    /// entry (or `None` on a duplicate). Lets the SAI evaluator keep
    /// working with the stored copy instead of cloning the rewritten query.
    pub fn insert_fresh(&mut self, entry: StoredRewritten) -> Result<Option<&StoredRewritten>> {
        let MatchTarget::Attribute { attr, value } = entry.rq.target() else {
            return Err(EngineError::Protocol {
                detail: format!(
                    "VLQT stores attribute-targeted rewritten queries only, \
                     got a value-targeted one: {}",
                    entry.rq
                ),
            });
        };
        let mut value_key = std::mem::take(&mut self.value_key);
        value_key.clear();
        value.canonical_into(&mut value_key);
        let by_value = bucket_mut(&mut self.buckets, entry.rq.free_relation(), attr);
        let bucket = str_bucket_mut(by_value, &value_key);
        self.value_key = value_key;
        let stored = insert_fresh(bucket, entry);
        if stored.is_some() {
            self.len += 1;
        }
        Ok(stored)
    }

    /// Resolves (creating it if need be) the bucket of
    /// `(relation, attr, value)` once, for a run of inserts that all target
    /// it: the items of one `Join` message share their evaluator bucket.
    pub(crate) fn bucket_mut(
        &mut self,
        relation: &str,
        attr: &str,
        value_key: &str,
    ) -> BucketMut<'_> {
        let by_value = bucket_mut(&mut self.buckets, relation, attr);
        BucketMut {
            bucket: str_bucket_mut(by_value, value_key),
            len: &mut self.len,
        }
    }

    fn bucket(&self, relation: &str, attr: &str, value_key: &str) -> &[StoredRewritten] {
        self.buckets
            .get(lookup_key(&(relation, attr)))
            .and_then(|m| m.get(value_key))
            .map_or(&[], |b| b.as_slice())
    }

    /// The rewritten queries an incoming tuple of `(relation, attr = value)`
    /// might trigger — the evaluator's level-1 + level-2 lookup — in the
    /// order they were stored.
    pub fn candidates(
        &self,
        relation: &str,
        attr: &str,
        value_key: &str,
    ) -> impl Iterator<Item = &StoredRewritten> {
        self.bucket(relation, attr, value_key).iter()
    }

    /// Iterates every stored entry: buckets in arbitrary order, each in
    /// insertion order (anti-entropy digests; the digest combination is
    /// order-independent).
    pub fn entries(&self) -> impl Iterator<Item = &StoredRewritten> {
        self.buckets
            .values()
            .flat_map(|by_value| by_value.values())
            .flat_map(|bucket| bucket.as_slice())
    }

    /// Total stored rewritten queries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes entries whose index identifier satisfies the predicate
    /// (key transfer on churn). What stays keeps its order.
    pub fn extract_where(&mut self, mut pred: impl FnMut(Id) -> bool) -> Vec<StoredRewritten> {
        let mut out = Vec::new();
        for by_value in self.buckets.values_mut() {
            for bucket in by_value.values_mut() {
                bucket.extract_if(|e| pred(e.index_id), &mut out);
            }
            by_value.retain(|_, b| !b.as_slice().is_empty());
        }
        self.buckets.retain(|_, m| !m.is_empty());
        self.len -= out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::{
        Catalog, DataType, Expr, JoinQuery, QueryKey, QuerySpec, RelationSchema, SelectItem, Side,
        Timestamp, Tuple, Value,
    };
    use std::sync::Arc;

    fn setup() -> (Catalog, cq_relational::QueryRef) {
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
            .unwrap();
        let q = Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("node", 0),
                    subscriber: "node".into(),
                    ins_time: Timestamp(0),
                    relations: ["R".into(), "S".into()],
                    select: vec![SelectItem {
                        side: Side::Left,
                        attr: "A".into(),
                    }],
                    conditions: [Expr::attr("B"), Expr::attr("C")],
                    filters: vec![],
                },
                &c,
            )
            .unwrap(),
        );
        (c, q)
    }

    fn rewritten(c: &Catalog, q: &cq_relational::QueryRef, a: i64, b: i64) -> RewrittenQuery {
        let t = Tuple::new(
            c.get("R").unwrap().clone(),
            vec![Value::Int(a), Value::Int(b)],
            Timestamp(1),
            0,
        )
        .unwrap();
        RewrittenQuery::rewrite_attribute(q, Side::Left, "B", "C", &t)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn insert_and_candidate_lookup() {
        let (c, q) = setup();
        let mut t = Vlqt::new();
        let rq = rewritten(&c, &q, 1, 7);
        assert!(t
            .insert(StoredRewritten {
                index_id: Id(0),
                rq
            })
            .unwrap());
        assert_eq!(t.len(), 1);
        let vkey = Value::Int(7).canonical();
        assert_eq!(t.candidates("S", "C", &vkey).count(), 1);
        let other = Value::Int(8).canonical();
        assert_eq!(t.candidates("S", "C", &other).count(), 0);
        assert_eq!(t.candidates("S", "D", &vkey).count(), 0);
    }

    #[test]
    fn same_key_is_stored_once() {
        let (c, q) = setup();
        let mut t = Vlqt::new();
        assert!(t
            .insert(StoredRewritten {
                index_id: Id(0),
                rq: rewritten(&c, &q, 1, 7)
            })
            .unwrap());
        // identical select value and join value → same rewriting
        assert!(!t
            .insert(StoredRewritten {
                index_id: Id(0),
                rq: rewritten(&c, &q, 1, 7)
            })
            .unwrap());
        assert_eq!(t.len(), 1);
        // different select value → different rewriting
        assert!(t
            .insert(StoredRewritten {
                index_id: Id(0),
                rq: rewritten(&c, &q, 2, 7)
            })
            .unwrap());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_stored_entry_is_a_flat_value() {
        // 8 index id + a 120-byte rewriting that owns no heap memory for up
        // to two `Int` bound values (`cq_relational::rewrite` pins that and
        // the 88 bytes DAI-T's rewriter memory keeps of it).
        assert_eq!(std::mem::size_of::<StoredRewritten>(), 128);
    }

    #[test]
    fn extract_where_moves_matching_entries() {
        let (c, q) = setup();
        let mut t = Vlqt::new();
        t.insert(StoredRewritten {
            index_id: Id(1),
            rq: rewritten(&c, &q, 1, 7),
        })
        .unwrap();
        t.insert(StoredRewritten {
            index_id: Id(2),
            rq: rewritten(&c, &q, 1, 8),
        })
        .unwrap();
        let moved = t.extract_where(|id| id == Id(2));
        assert_eq!(moved.len(), 1);
        assert_eq!(t.len(), 1);
    }
}
