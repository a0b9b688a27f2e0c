//! The value-level query table (VLQT, Section 4.3.5).
//!
//! "At the first level rewritten queries are indexed according to their load
//! distributing attribute, while at the second level according to the value
//! that this attribute must take" — incoming tuples find the rewritten
//! queries they might match in one step. Entries are deduplicated by the
//! rewritten query's identity (`Key(q')`, Section 4.3.3).
//!
//! So a bucket's rewritings share their target and its identifier, and the
//! bucket stores them once: the target is read back from its keys, the
//! identifier is a word that refuses an entry indexed under another, and an
//! entry is a 56-byte [`RewriteBody`]. Owned [`StoredRewritten`]s go in and
//! come out; [`RewrittenEntry`] views are lent.
//!
//! A value bucket is what an arriving tuple scans, so it is laid out for
//! the scan: the entries sit contiguously in one `Vec`, in **insertion
//! order** — the order [`Vlqt::candidates`] yields them in, and therefore
//! the order notifications are produced in. The hasher decides nothing a
//! result depends on. Deduplication compares stored fingerprints, and a
//! bucket of eight or more entries also keeps a position index holding no
//! copy of any entry (see [`FirstSeen`]). An evaluator reserves a bucket
//! for its `Join` run before inserting it, so a bucket filled by one run —
//! nearly all of them — holds exactly that run.
//!
//! An arriving tuple reads a bucket through its ledger: the entries cut
//! into runs of one shape, and per run one tally per query, so the scan
//! costs a shape test per run and a time test per query rather than both
//! per entry.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use cq_fasthash::FxHashMap;
use cq_overlay::Id;
use cq_relational::{
    MatchTarget, QueryRef, RewriteBody, RewrittenQuery, RewrittenRef, TargetRef, ValueRef,
};

use super::keys::{get_or_default, key_view, lookup_key, FirstSeen, StrPair, ValueKey};
use crate::error::{EngineError, Result};

/// A rewritten query together with the value-level identifier it was
/// indexed under: what the table takes in and gives back.
#[derive(Clone, Debug)]
pub struct StoredRewritten {
    /// The value-level identifier (`Hash(DisR + DisA + v)`).
    pub index_id: Id,
    /// The rewritten query.
    pub rq: RewrittenQuery,
}

/// A [`StoredRewritten`] borrowed where the table keeps it.
#[derive(Clone, Copy, Debug)]
pub struct RewrittenEntry<'a> {
    /// The value-level identifier (`Hash(DisR + DisA + v)`).
    pub index_id: Id,
    /// The rewritten query: an entry and its bucket's target.
    pub rq: RewrittenRef<'a>,
}

impl RewrittenEntry<'_> {
    /// An owned copy.
    pub fn to_stored(self) -> StoredRewritten {
        let (index_id, rq) = (self.index_id, self.rq.into_owned());
        StoredRewritten { index_id, rq }
    }
}

/// The target of the bucket of `(_, attr, value_key)`.
fn target_of<'a>(attr: &'a str, value_key: &'a str) -> TargetRef<'a> {
    let value = ValueRef::parse_canonical(value_key).expect("a value bucket's key is canonical");
    TargetRef::Attribute { attr, value }
}

/// The error of `rq`, indexed under `index_id`, offered to a bucket of
/// another identifier.
#[cold]
fn stray(bucket: Id, rq: &RewrittenQuery, index_id: Id) -> EngineError {
    let detail = format!("VLQT bucket {bucket} got {rq} indexed under {index_id}");
    EngineError::Protocol { detail }
}

/// The rewritten queries waiting for one `(relation, attr, value)`, in
/// insertion order, deduplicated by identity; the identifier they are
/// indexed under; and the ledger the last scan left of them.
#[derive(Clone, Debug, Default)]
struct Bucket {
    entries: FirstSeen<RewriteBody>,
    /// Taken from the first entry; every later one must carry it.
    index_id: Id,
    /// Covers a prefix of `entries`; built by the first scan that finds two
    /// or more, extended by every later scan.
    ledger: Option<Box<Ledger>>,
}

impl Bucket {
    /// Stores the entry's body unless the bucket holds its rewriting, and
    /// hands it back (`None` for a duplicate); a stored entry's target goes
    /// to `keep` when that is empty. An entry indexed under another
    /// identifier than the bucket's is a protocol error. Inserts never touch
    /// the ledger: the next scan files what they added.
    fn insert(
        &mut self,
        entry: StoredRewritten,
        keep: &mut Option<MatchTarget>,
    ) -> Result<Option<&RewriteBody>> {
        let StoredRewritten { index_id, rq } = entry;
        if self.entries.as_slice().is_empty() {
            self.index_id = index_id;
        } else if index_id != self.index_id {
            return Err(stray(self.index_id, &rq, index_id));
        }
        Ok(self.entries.insert_with(rq, |rq| {
            let (body, target) = rq.into_parts();
            keep.get_or_insert(target);
            body
        }))
    }

    /// The entries lent with the bucket's identifier and `(attr, value_key)`,
    /// the keys it is stored under.
    fn lend<'a>(
        &'a self,
        attr: &'a str,
        value_key: &'a ValueKey,
    ) -> impl Iterator<Item = RewrittenEntry<'a>> {
        let (index_id, target) = (self.index_id, target_of(attr, value_key.as_str()));
        let entries = self.entries.as_slice().iter();
        entries.map(move |body| RewrittenEntry {
            index_id,
            rq: RewrittenRef::new(body, target),
        })
    }

    /// The entries and their ledger, brought up to date. The first scan
    /// that finds two or more entries files them into `scratch` and keeps
    /// an exact-size copy; a bucket of one entry is only ever filed into
    /// `scratch`, which allocates nothing.
    fn ledger<'a>(&'a mut self, scratch: &'a mut LedgerScratch) -> (&'a [RewriteBody], &'a Ledger) {
        let entries = self.entries.as_slice();
        if self.ledger.is_none() {
            scratch.lone.clear();
            scratch.lone.extend(entries, &mut scratch.open);
            if entries.len() < 2 {
                return (entries, &scratch.lone);
            }
        }
        let ledger = self
            .ledger
            .get_or_insert_with(|| Box::new(scratch.lone.clone()));
        ledger.extend(entries, &mut scratch.open);
        (entries, ledger)
    }
}

/// One query's entries within a run: all of them share the run's shape
/// verdict and the query's `insT`, so they match or miss together.
#[derive(Clone, Debug)]
pub(crate) struct Tally {
    /// The query, whose `Arc` address the tally is keyed by. Holding it
    /// here lets a scan count without reading the entries.
    pub(crate) query: QueryRef,
    /// How many of the run's entries are the query's.
    pub(crate) count: u64,
}

/// A bucket's entries as maximal runs of [`RewriteBody::same_free_side`] —
/// of one shape, as they share their target — each with one [`Tally`] per
/// query `Arc` address in first-entry order. Addresses, not keys: one
/// query decoded into two `Arc`s is two queries here, as it is in
/// [`crate::protocol::QueryCounts`].
///
/// Nearly every bucket is one run — its rewritings share a join condition
/// and, mostly, free-side filters — so only the later runs' starts are
/// stored.
#[derive(Clone, Debug, Default)]
pub(crate) struct Ledger {
    /// How many of the bucket's leading entries are filed.
    filed: usize,
    /// Where each run after the first starts: its first entry's position
    /// and its first tally's index.
    cuts: Vec<(usize, usize)>,
    tallies: Vec<Tally>,
}

/// One run of a [`Ledger`], borrowed with the entries it covers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Run<'a> {
    /// The run's entries, in stored order.
    pub(crate) entries: &'a [RewriteBody],
    /// One per query, in the order of the queries' first entries.
    pub(crate) tallies: &'a [Tally],
    target: TargetRef<'a>,
}

impl<'a> Run<'a> {
    /// The rewriting whose shape every entry of the run has.
    pub(crate) fn head(&self) -> RewrittenRef<'a> {
        RewrittenRef::new(&self.entries[0], self.target)
    }
}

/// What a ledger is keyed by: the query's `Arc` address.
fn address(query: &QueryRef) -> usize {
    Arc::as_ptr(query) as usize
}

impl Ledger {
    fn clear(&mut self) {
        self.filed = 0;
        self.cuts.clear();
        self.tallies.clear();
    }

    /// Files the entries stored since the last call: each extends the last
    /// run when it has the run's shape and starts a new one otherwise.
    /// `open` maps the last run's addresses to their tallies; it is rebuilt
    /// here, so it only has to be a buffer.
    fn extend(&mut self, entries: &[RewriteBody], open: &mut FxHashMap<usize, usize>) {
        debug_assert!(self.filed <= entries.len(), "a bucket's entries only grow");
        if self.filed == entries.len() {
            return;
        }
        let (mut head, first_tally) = self.cuts.last().copied().unwrap_or_default();
        open.clear();
        for (i, tally) in self.tallies.iter().enumerate().skip(first_tally) {
            open.insert(address(&tally.query), i);
        }
        for (pos, e) in entries.iter().enumerate().skip(self.filed) {
            if pos > 0 && !entries[head].same_free_side(e) {
                head = pos;
                self.cuts.push((head, self.tallies.len()));
                open.clear();
            }
            let query = e.query();
            match open.entry(address(query)) {
                Entry::Occupied(i) => self.tallies[*i.get()].count += 1,
                Entry::Vacant(slot) => {
                    slot.insert(self.tallies.len());
                    self.tallies.push(Tally {
                        query: Arc::clone(query),
                        count: 1,
                    });
                }
            }
        }
        self.filed = entries.len();
    }

    /// The runs over `entries`, the bucket of `target` this ledger was
    /// brought up to date for, in stored order.
    pub(crate) fn runs<'a>(
        &'a self,
        entries: &'a [RewriteBody],
        target: TargetRef<'a>,
    ) -> impl Iterator<Item = Run<'a>> {
        let starts = std::iter::once((0, 0)).chain(self.cuts.iter().copied());
        let ends = self.cuts.iter().copied();
        let ends = ends.chain(std::iter::once((self.filed, self.tallies.len())));
        starts
            .zip(ends)
            .filter(|(start, end)| start.0 < end.0)
            .map(move |(start, end)| Run {
                entries: &entries[start.0..end.0],
                tallies: &self.tallies[start.1..end.1],
                target,
            })
    }
}

/// The buffers [`Vlqt::ledger`] files with: the ledger of a one-entry bucket
/// and the last run's address index. One per network, lent like the run
/// matcher that holds it.
#[derive(Debug, Default)]
pub(crate) struct LedgerScratch {
    lone: Ledger,
    open: FxHashMap<usize, usize>,
}

/// One value bucket resolved for a run of inserts that share
/// `(relation, attr, value)` — see [`Vlqt::bucket_mut`].
pub struct BucketMut<'a> {
    bucket: &'a mut Bucket,
    len: &'a mut usize,
    /// The run's target, kept from the first entry stored through this.
    target: Option<MatchTarget>,
}

impl BucketMut<'_> {
    /// Makes room for a run of `run` entries: exactly that in an empty
    /// bucket, by amortised growth otherwise.
    pub fn reserve(&mut self, run: usize) {
        self.bucket.entries.reserve(run);
    }

    /// [`Vlqt::insert`] without the two-level lookup, lending the stored
    /// entry (`None` on a duplicate). The entry must target the
    /// `(relation, attr, value)` this bucket was resolved for.
    pub fn insert_fresh(&mut self, entry: StoredRewritten) -> Result<Option<RewrittenEntry<'_>>> {
        let index_id = entry.index_id;
        let Some(body) = self.bucket.insert(entry, &mut self.target)? else {
            return Ok(None);
        };
        *self.len += 1;
        let target = self.target.as_ref().expect("kept by the insert");
        let rq = RewrittenRef::new(body, target.view());
        Ok(Some(RewrittenEntry { index_id, rq }))
    }
}

/// The two-level value-level query table.
///
/// First-level buckets are keyed by the load-distributing attribute as an
/// owned `(relation, attr)` [`StrPair`], the second level by the value's
/// canonical form as an inline [`ValueKey`]; lookups borrow the caller's
/// `&str`s instead of allocating (see [`super::keys`]). Below that sits one
/// bucket, so a fresh bucket costs one allocation: its entries.
#[derive(Clone, Debug, Default)]
pub struct Vlqt {
    buckets: FxHashMap<StrPair, FxHashMap<ValueKey, Bucket>>,
    len: usize,
    /// Reused for the canonical value of an entry inserted on its own.
    value_key: String,
}

/// The bucket of `(relation, attr, value)`, created if need be.
fn value_bucket<'m>(
    buckets: &'m mut FxHashMap<StrPair, FxHashMap<ValueKey, Bucket>>,
    relation: &str,
    attr: &str,
    value_key: &str,
) -> &'m mut Bucket {
    let by_value = get_or_default(buckets, lookup_key(&(relation, attr)), || {
        StrPair::new(relation, attr)
    });
    get_or_default(by_value, key_view(&value_key), || value_key.into())
}

impl Vlqt {
    /// An empty table.
    pub fn new() -> Self {
        Vlqt::default()
    }

    /// Stores a rewritten query. Returns `false` (and stores nothing) when a
    /// rewritten query with the same identity is already present — "x need only
    /// store the information related to tuple t". Errors, storing nothing,
    /// on a rewritten query without an attribute target (a mis-wired
    /// protocol or a corrupted replica payload — VLQT is attribute-indexed)
    /// and on one indexed under another identifier than its bucket.
    pub fn insert(&mut self, entry: StoredRewritten) -> Result<bool> {
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
        let bucket = value_bucket(
            &mut self.buckets,
            entry.rq.free_relation(),
            attr,
            &value_key,
        );
        self.value_key = value_key;
        let fresh = bucket.insert(entry, &mut None)?.is_some();
        self.len += usize::from(fresh);
        Ok(fresh)
    }

    /// Resolves (creating it if need be) the bucket of
    /// `(relation, attr, value)` once, for a run of inserts that all target
    /// it: the items of one `Join` message share their evaluator bucket.
    pub fn bucket_mut(&mut self, relation: &str, attr: &str, value_key: &str) -> BucketMut<'_> {
        BucketMut {
            bucket: value_bucket(&mut self.buckets, relation, attr, value_key),
            len: &mut self.len,
            target: None,
        }
    }

    /// The rewritten queries an incoming tuple of `(relation, attr = value)`
    /// might trigger — the evaluator's level-1 + level-2 lookup — in the
    /// order they were stored.
    pub fn candidates(
        &self,
        relation: &str,
        attr: &str,
        value_key: &str,
    ) -> impl Iterator<Item = RewrittenEntry<'_>> {
        let found = self.buckets.get_key_value(lookup_key(&(relation, attr)));
        let found = found.and_then(|(pair, by_value)| {
            let (key, bucket) = by_value.get_key_value(key_view(&value_key))?;
            Some(bucket.lend(&pair.b, key))
        });
        found.into_iter().flatten()
    }

    /// The entries of the bucket of `(relation, attr, value)` with its
    /// [`Ledger`], which this call brings up to date: the scan of an
    /// arriving tuple walks [`Ledger::runs`]. `None` when there is no such
    /// bucket.
    pub(crate) fn ledger<'a>(
        &'a mut self,
        relation: &str,
        attr: &str,
        value_key: &str,
        scratch: &'a mut LedgerScratch,
    ) -> Option<(&'a [RewriteBody], &'a Ledger)> {
        let by_value = self.buckets.get_mut(lookup_key(&(relation, attr)))?;
        Some(by_value.get_mut(key_view(&value_key))?.ledger(scratch))
    }

    /// Iterates every stored entry: buckets in arbitrary order, each in
    /// insertion order (anti-entropy digests; the digest combination is
    /// order-independent).
    pub fn entries(&self) -> impl Iterator<Item = RewrittenEntry<'_>> {
        self.buckets.iter().flat_map(|(pair, by_value)| {
            by_value
                .iter()
                .flat_map(|(key, bucket)| bucket.lend(&pair.b, key))
        })
    }

    /// Total stored rewritten queries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes the buckets whose index identifier satisfies the predicate
    /// (key transfer on churn), handing their entries back in bucket order.
    pub fn extract_where(&mut self, mut pred: impl FnMut(Id) -> bool) -> Vec<StoredRewritten> {
        let mut out = Vec::new();
        for (pair, by_value) in &mut self.buckets {
            for (value_key, bucket) in by_value.extract_if(|_, b| pred(b.index_id)) {
                let (index_id, target) = (bucket.index_id, target_of(&pair.b, value_key.as_str()));
                out.extend(bucket.entries.into_vec().into_iter().map(|body| {
                    let rq = RewrittenQuery::from_body(body, target);
                    StoredRewritten { index_id, rq }
                }));
            }
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
        // A stored entry is a 56-byte body, which owns no heap memory for
        // one `Int` bound value (`cq_relational::rewrite` pins that and the
        // 64 bytes DAI-T's rewriter memory keeps). At the table's edge a
        // rewriting is 96 bytes with its target, 104 with its index id.
        use std::mem::size_of;
        assert_eq!(size_of::<RewriteBody>(), 56);
        assert_eq!(size_of::<RewrittenQuery>(), 96);
        assert_eq!(size_of::<StoredRewritten>(), 104);
    }

    #[test]
    fn a_ledger_costs_a_bucket_one_word() {
        // The entries' set is 48 bytes, two `Vec`s; the index id may add one
        // word and the ledger one pointer, and no more. Four inline ledger
        // words instead cost `route_dait` +3.5 % and `churn_dait`
        // +2.4 % `peak_rss_mb`, and a ledger built for every bucket at insert
        // time +15 % `allocs_per_insert` and +8.6 % RSS on `route_dait`: most
        // buckets there are never scanned twice.
        let set = std::mem::size_of::<FirstSeen<RewriteBody>>();
        assert_eq!(set, 48);
        assert_eq!(
            std::mem::size_of::<Bucket>(),
            set + 2 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn an_entry_under_another_id_than_its_bucket_is_refused() {
        let (c, q) = setup();
        let mut t = Vlqt::new();
        let entry = |index_id, a| StoredRewritten {
            index_id,
            rq: rewritten(&c, &q, a, 7),
        };
        assert!(t.insert(entry(Id(3), 1)).unwrap());
        let vkey = Value::Int(7).canonical();
        for stray in [entry(Id(4), 1), entry(Id(4), 2)] {
            let refused = t.insert(stray.clone());
            assert!(matches!(refused, Err(EngineError::Protocol { .. })));
            let mut bucket = t.bucket_mut("S", "C", &vkey);
            let refused = bucket.insert_fresh(stray);
            assert!(matches!(refused, Err(EngineError::Protocol { .. })));
        }
        assert_eq!(t.len(), 1);
        let ids: Vec<Id> = t.entries().map(|e| e.index_id).collect();
        assert_eq!(ids, [Id(3)]);
        // Another value is another bucket, with an identifier of its own.
        let other = StoredRewritten {
            index_id: Id(4),
            rq: rewritten(&c, &q, 1, 8),
        };
        assert!(t.insert(other).unwrap());
        assert_eq!(t.extract_where(|id| id == Id(3)).len(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_bucket_filled_by_one_run_holds_exactly_the_run() {
        let (c, q) = setup();
        for k in [1, 3, 4, 5, 9, 20] {
            let mut t = Vlqt::new();
            let vkey = Value::Int(7).canonical();
            let mut bucket = t.bucket_mut("S", "C", &vkey);
            bucket.reserve(k);
            for a in 0..k as i64 {
                let rq = rewritten(&c, &q, a, 7);
                assert!(bucket
                    .insert_fresh(StoredRewritten {
                        index_id: Id(0),
                        rq
                    })
                    .unwrap()
                    .is_some());
            }
            let b = &t.buckets[lookup_key(&("S", "C"))][key_view(&vkey.as_str())];
            assert_eq!((b.entries.as_slice().len(), b.entries.capacity()), (k, k));
        }
    }

    #[test]
    fn inline_and_heap_keys_find_their_bucket() {
        let (_, q) = setup();
        // `Int(i64::MIN)`'s form is 22 bytes, inline; a 23-byte `Str` form
        // is not. The table reads only the target value, whatever its type.
        for value in [Value::Int(i64::MIN), Value::from("x".repeat(21).as_str())] {
            let bound = std::iter::once(Value::Int(1)).collect();
            let rq = RewrittenQuery::from_parts(
                Arc::clone(&q),
                Side::Left,
                bound,
                Some("C"),
                value.clone(),
                Timestamp(1),
            );
            let vkey = value.canonical();
            let mut t = Vlqt::new();
            assert!(t
                .insert(StoredRewritten {
                    index_id: Id(0),
                    rq: rq.clone()
                })
                .unwrap());
            assert_eq!(t.candidates("S", "C", &vkey).count(), 1, "{vkey}");
            let mut scratch = LedgerScratch::default();
            let (entries, ledger) = t.ledger("S", "C", &vkey, &mut scratch).unwrap();
            let target = target_of("C", &vkey);
            assert_eq!(target.value(), ValueRef::from(&value), "{vkey}");
            assert_eq!(
                (entries.len(), ledger.runs(entries, target).count()),
                (1, 1)
            );
            let mut bucket = t.bucket_mut("S", "C", &vkey);
            let twin = StoredRewritten {
                index_id: Id(0),
                rq: rq.clone(),
            };
            assert!(
                bucket.insert_fresh(twin).unwrap().is_none(),
                "{vkey}: same bucket"
            );
            let stored = t.entries().next().unwrap().to_stored();
            assert!(stored.rq.same_identity(&rq) && stored.rq.same_shape(&rq));
            assert_eq!(stored.rq.target(), rq.target());
            assert_eq!(t.len(), 1);
            let shorter = &vkey[..vkey.len() - 1];
            assert_eq!(t.candidates("S", "C", shorter).count(), 0);
        }
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
