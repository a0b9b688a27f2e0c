//! The attribute-level query table (ALQT, Section 4.3.5).
//!
//! "A two level hash table. At the first level, queries are indexed according
//! to their index attribute while at the second level the string values of
//! join conditions are used as keys" — so an incoming tuple finds all
//! candidate queries in one step, already grouped by equivalent join
//! condition.

use cq_fasthash::FxHashMap;
use cq_overlay::Id;
use cq_relational::{QueryRef, Side};

use super::keys::{get_or_default, lookup_key, StrPair};

/// A query stored at a rewriter, remembering which side it was indexed by
/// and under which attribute-level identifier (for key transfer on churn).
#[derive(Clone, Debug)]
pub struct StoredQuery {
    /// The attribute-level identifier the query was indexed under
    /// (`Hash(IndexR + IndexA)`, possibly a replica identifier).
    pub index_id: Id,
    /// The query itself.
    pub query: QueryRef,
    /// Which side of the join condition this rewriter represents.
    pub index_side: Side,
    /// `IndexA(q)` — the attribute the query is indexed by here.
    pub index_attr: String,
}

/// The two-level attribute-level query table.
///
/// Level-1 buckets are keyed by the index attribute (relation + attribute)
/// as an owned [`StrPair`], level-2 by the join-condition group key; lookups
/// borrow the caller's `&str`s instead of allocating (see [`super::keys`]).
#[derive(Clone, Debug, Default)]
pub struct Alqt {
    buckets: FxHashMap<StrPair, FxHashMap<Box<str>, Vec<StoredQuery>>>,
    len: usize,
}

impl Alqt {
    /// An empty table.
    pub fn new() -> Self {
        Alqt::default()
    }

    /// Stores a query under its index attribute; idempotent in
    /// `(query key, index side, index identifier)` so re-deliveries don't
    /// duplicate. The identifier is part of the dedup key: with replication,
    /// two replica identifiers can be owned by the same physical node, and
    /// each must keep its own entry so churn-time key transfer can split
    /// them again.
    pub fn insert(&mut self, entry: StoredQuery) -> bool {
        let group = entry.query.group_key();
        let (rel, attr) = (entry.query.relation(entry.index_side), &*entry.index_attr);
        let groups = get_or_default(&mut self.buckets, lookup_key(&(rel, attr)), || {
            StrPair::new(rel, attr)
        });
        let bucket = get_or_default(groups, group.as_str(), || group.as_str().into());
        if bucket.iter().any(|e| {
            e.query.key() == entry.query.key()
                && e.index_side == entry.index_side
                && e.index_id == entry.index_id
        }) {
            return false;
        }
        bucket.push(entry);
        self.len += 1;
        true
    }

    /// All groups of queries indexed under `(relation, attr)` — the level-1
    /// lookup an incoming tuple performs. Each item is
    /// `(group_key, queries)`.
    pub fn groups(
        &self,
        relation: &str,
        attr: &str,
    ) -> impl Iterator<Item = (&str, &[StoredQuery])> {
        self.buckets
            .get(lookup_key(&(relation, attr)))
            .into_iter()
            .flat_map(|m| m.iter().map(|(g, v)| (&**g, v.as_slice())))
    }

    /// Iterates every stored entry, in arbitrary order (anti-entropy
    /// digests; the digest combination is order-independent).
    pub fn entries(&self) -> impl Iterator<Item = &StoredQuery> {
        self.buckets
            .values()
            .flat_map(|groups| groups.values())
            .flatten()
    }

    /// Total stored queries (the rewriter's storage load contribution).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes and returns every entry whose index identifier satisfies the
    /// predicate — used to transfer keys when nodes join or leave.
    pub fn extract_where(&mut self, mut pred: impl FnMut(Id) -> bool) -> Vec<StoredQuery> {
        let mut out = Vec::new();
        for groups in self.buckets.values_mut() {
            for entries in groups.values_mut() {
                let mut i = 0;
                while i < entries.len() {
                    if pred(entries[i].index_id) {
                        out.push(entries.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            groups.retain(|_, v| !v.is_empty());
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
        Catalog, DataType, Expr, JoinQuery, QueryKey, QuerySpec, RelationSchema, SelectItem,
        Timestamp,
    };
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
            .unwrap();
        c
    }

    fn query(c: &Catalog, n: u64) -> QueryRef {
        Arc::new(
            JoinQuery::new(
                QuerySpec {
                    key: QueryKey::derive("node", n),
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
                c,
            )
            .unwrap(),
        )
    }

    /// How many queries an incoming `(relation, attr)` tuple is checked
    /// against.
    fn candidates(t: &Alqt, relation: &str, attr: &str) -> usize {
        t.groups(relation, attr)
            .map(|(_, queries)| queries.len())
            .sum()
    }

    fn entry(q: &QueryRef) -> StoredQuery {
        StoredQuery {
            index_id: Id(1),
            query: Arc::clone(q),
            index_side: Side::Left,
            index_attr: "B".into(),
        }
    }

    #[test]
    fn insert_and_lookup_by_attribute() {
        let c = catalog();
        let mut t = Alqt::new();
        let q = query(&c, 0);
        assert!(t.insert(entry(&q)));
        assert_eq!(t.len(), 1);
        assert_eq!(candidates(&t, "R", "B"), 1);
        assert_eq!(candidates(&t, "R", "A"), 0);
        assert_eq!(candidates(&t, "S", "B"), 0);
        let groups: Vec<_> = t.groups("R", "B").collect();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].1.len(), 1);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let c = catalog();
        let mut t = Alqt::new();
        let q = query(&c, 0);
        assert!(t.insert(entry(&q)));
        assert!(!t.insert(entry(&q)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn equivalent_conditions_share_a_group() {
        let c = catalog();
        let mut t = Alqt::new();
        t.insert(entry(&query(&c, 0)));
        t.insert(entry(&query(&c, 1)));
        let groups: Vec<_> = t.groups("R", "B").collect();
        assert_eq!(groups.len(), 1, "same condition → one group");
        assert_eq!(groups[0].1.len(), 2);
    }

    #[test]
    fn extract_where_partitions_by_identifier() {
        let c = catalog();
        let mut t = Alqt::new();
        let mut e1 = entry(&query(&c, 0));
        e1.index_id = Id(10);
        let mut e2 = entry(&query(&c, 1));
        e2.index_id = Id(20);
        t.insert(e1);
        t.insert(e2);
        let moved = t.extract_where(|id| id == Id(10));
        assert_eq!(moved.len(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(candidates(&t, "R", "B"), 1);
    }

    #[test]
    fn drain_empties_table() {
        let c = catalog();
        let mut t = Alqt::new();
        t.insert(entry(&query(&c, 0)));
        assert_eq!(t.extract_where(|_| true).len(), 1);
        assert!(t.is_empty());
    }
}
