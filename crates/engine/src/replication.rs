//! k-successor state replication (the recovery half of the robustness
//! layer, see [`crate::faults`]).
//!
//! Every index-table entry and offline-store notification a node holds as a
//! *primary* is mirrored — at insert time — onto the node's `k` first alive
//! successors, the same nodes that take over its range when it disappears
//! (Chord's successor-list invariant). Replicas are held in a separate
//! [`ReplicaStore`]: they never answer queries, never count toward storage
//! load, and never appear in [`crate::Network::delivered_set`]. When a node
//! fails abruptly, its successor finds itself the new owner of the failed
//! range during stabilization and *promotes* the matching replicas: it takes
//! them out of its replica store and hands them to its primary
//! [`Tables`] through the same path a leave or a rejoin hands transferred
//! keys over by — each item is stored once and re-mirrored onto the new
//! owner's own successors, restoring redundancy.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::ops::Bound;

use cq_fasthash::FxHashSet;
use cq_overlay::Id;
use cq_relational::{Notification, RewrittenRef};

use crate::error::Result;
use crate::tables::keys::ValueKey;
use crate::tables::{Held, StoredQuery, StoredRewritten, StoredTuple, StoredValueTuple, Tables};
use crate::wire::{wire_enum, wire_struct, Field};

wire_enum! {
    /// One primary state item mirrored onto a successor via
    /// [`crate::Message::Replicate`].
    #[derive(Clone, Debug)]
    pub enum ReplicaItem {
        /// An ALQT entry (rewriter role).
        0, Query, "alqt", (entry: StoredQuery)
        /// A VLQT entry (evaluator role, SAI/DAI-T).
        1, Rewritten, "vlqt", (entry: StoredRewritten)
        /// A VLTT entry (evaluator role, SAI/DAI-Q).
        2, Tuple, "vltt", (entry: StoredTuple)
        /// A DAI-V evaluator-store entry with its `(group, value)` key.
        3, ValueTuple, "vstore", {
            /// The query-group key.
            group: String,
            /// Canonical join-condition value.
            value_key: ValueKey,
            /// The stored tuple.
            [route] entry: StoredValueTuple,
        }
        /// One offline-store notification with the subscriber identifier it is
        /// held under.
        4, Offline, "offline-store", {
            /// Identifier of the subscriber's key (`Hash(Key(n))`).
            [route] id: Id,
            /// The held notification.
            notification: Notification,
        }
    }
}

wire_struct! {
    StoredQuery { [route] index_id, query, index_side, index_attr }
    StoredRewritten { [route] index_id, rq }
    StoredTuple { [route] index_id, attr, tuple }
    StoredValueTuple { [route] index_id, side, tuple }
}

impl ReplicaItem {
    /// The identifier that decides which node's range the item belongs to —
    /// promotion extracts items whose identifier the holder now owns.
    pub fn index_id(&self) -> Id {
        self.route()
            .expect("every ReplicaItem row marks its identifier [route]")
    }

    /// Content hash used by the anti-entropy digests: equal mirrored items
    /// hash equally on the primary and on every successor, independent of
    /// table iteration order (digests combine hashes commutatively).
    pub fn digest_hash(&self) -> u64 {
        match self {
            ReplicaItem::Query(e) => hash_query(e),
            ReplicaItem::Rewritten(e) => hash_rewritten(e.index_id, e.rq.view()),
            ReplicaItem::Tuple(e) => hash_tuple(e),
            ReplicaItem::ValueTuple {
                group,
                value_key,
                entry,
            } => hash_value_tuple(group, value_key.as_str(), entry),
            ReplicaItem::Offline { id, notification } => hash_offline(*id, notification),
        }
    }
}

/// [`std::hash::Hash`] through the engine's deterministic [`FxHasher`] —
/// anti-entropy digests must agree across runs and `--jobs` workers, so the
/// randomly keyed std hasher is out.
///
/// [`FxHasher`]: cq_fasthash::FxHasher
fn fx_hash<T: std::hash::Hash + ?Sized>(tag: u8, v: &T) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = cq_fasthash::FxHasher::default();
    tag.hash(&mut h);
    v.hash(&mut h);
    h.finish()
}

/// Digest hash of an ALQT entry (dedup key: query key + side + index id).
pub(crate) fn hash_query(e: &StoredQuery) -> u64 {
    fx_hash(
        1,
        &(e.index_id.0, &e.query.key().0, e.index_side, &e.index_attr),
    )
}

/// Digest hash of a VLQT entry: its index id and its legacy `Key(q')` text
/// (what this hash has always covered, so digest order — and with it what
/// a repair walks first — stays as it was), formatted into a buffer the
/// thread keeps. A stored entry's text ends with its bucket's value key.
/// Two entries whose `Str` values merely print alike share a hash;
/// anti-entropy then counts them as one item on both sides.
pub(crate) fn hash_rewritten(index_id: Id, rq: RewrittenRef<'_>) -> u64 {
    thread_local! {
        static KEY: RefCell<String> = const { RefCell::new(String::new()) };
    }
    KEY.with_borrow_mut(|key| {
        key.clear();
        let _ = rq.write_key(key); // writing to a `String` cannot fail
        fx_hash(2, &(index_id.0, key.as_str()))
    })
}

/// Digest hash of a VLTT entry (tuple sequence numbers are globally unique).
pub(crate) fn hash_tuple(e: &StoredTuple) -> u64 {
    fx_hash(3, &(e.index_id.0, &e.attr, e.tuple.seq()))
}

/// Digest hash of a DAI-V store entry under its `(group, value)` key.
pub(crate) fn hash_value_tuple(group: &str, value_key: &str, e: &StoredValueTuple) -> u64 {
    fx_hash(4, &(e.index_id.0, group, value_key, e.side, e.tuple.seq()))
}

/// Digest hash of one offline-store notification.
pub(crate) fn hash_offline(id: Id, n: &Notification) -> u64 {
    fx_hash(5, &(id.0, n))
}

/// The incremental side of the anti-entropy digest: the `(index id, digest
/// hash)` key of every mirrorable item a node holds, ordered by index id.
///
/// The digest of an ownership arc `(pred, id]` is `(count, wrapping sum)`
/// over the *distinct* keys inside it — a set digest, because a primary may
/// legitimately hold two equal items (two identical offline notifications)
/// where the replica side dedups. Each side keeps one index — the primary
/// over its tables, every [`ReplicaStore`] over its holdings — current on
/// insert and extract, so a digest round folds an ordered integer range
/// instead of re-hashing every held item, and an arc folded once is then
/// adjusted in place until the membership epoch (and with it the arc) moves.
///
/// A `BTreeSet`, not a hash set: digests must agree across runs and
/// `--jobs` workers, and arcs are ranges of the order.
#[derive(Clone, Debug, Default)]
pub(crate) struct DigestIndex {
    keys: BTreeSet<(u64, u64)>,
    /// Digests of the arcs asked for under `epoch`, kept equal to a fresh
    /// fold by [`DigestIndex::insert`] and [`DigestIndex::remove`].
    arcs: Vec<ArcDigest>,
    /// Membership epoch `arcs` belongs to; a new epoch drops them.
    epoch: u64,
    /// Set by bulk paths that rewrite the indexed tables wholesale; the
    /// owner rebuilds before the next read (see
    /// [`crate::node::NodeState::primary_digests`]).
    stale: bool,
}

/// The digest of one ownership arc `(pred, id]`.
#[derive(Clone, Copy, Debug)]
struct ArcDigest {
    pred: u64,
    id: u64,
    count: u64,
    sum: u64,
}

/// Whether `x` lies in the ring arc `(pred, id]`; `pred == id` is the whole
/// ring (a single node owns everything), as in
/// [`cq_overlay::IdSpace::in_open_closed`].
#[inline]
fn in_arc(x: u64, pred: u64, id: u64) -> bool {
    if pred < id {
        pred < x && x <= id
    } else {
        x > pred || x <= id
    }
}

impl DigestIndex {
    /// Indexes one item key; a key already present is ignored (set
    /// semantics). No-op while stale — the rebuild will pick it up.
    pub(crate) fn insert(&mut self, id: Id, hash: u64) {
        if !self.stale && self.keys.insert((id.0, hash)) {
            for a in self.arcs_over(id.0) {
                a.count += 1;
                a.sum = a.sum.wrapping_add(hash);
            }
        }
    }

    /// Drops one item key (the item left the indexed tables).
    pub(crate) fn remove(&mut self, id: Id, hash: u64) {
        if !self.stale && self.keys.remove(&(id.0, hash)) {
            for a in self.arcs_over(id.0) {
                a.count -= 1;
                a.sum = a.sum.wrapping_sub(hash);
            }
        }
    }

    /// The memoized arcs that contain index id `x`.
    fn arcs_over(&mut self, x: u64) -> impl Iterator<Item = &mut ArcDigest> {
        self.arcs
            .iter_mut()
            .filter(move |a| in_arc(x, a.pred, a.id))
    }

    /// Whether the item key is indexed (the anti-entropy diff side).
    pub(crate) fn contains(&self, id: Id, hash: u64) -> bool {
        debug_assert!(!self.stale, "rebuild before reading");
        self.keys.contains(&(id.0, hash))
    }

    /// Forgets everything (the holder lost its state).
    pub(crate) fn clear(&mut self) {
        *self = DigestIndex::default();
    }

    /// Marks the index out of date: a bulk path moved items in or out of
    /// the indexed tables without reporting each one.
    pub(crate) fn invalidate(&mut self) {
        self.clear();
        self.stale = true;
    }

    /// Whether a bulk path invalidated the index since the last rebuild.
    pub(crate) fn is_stale(&self) -> bool {
        self.stale
    }

    /// Replaces the contents with `keys` and clears the stale mark.
    pub(crate) fn rebuild(&mut self, keys: impl Iterator<Item = (Id, u64)>) {
        self.clear();
        self.keys.extend(keys.map(|(id, hash)| (id.0, hash)));
    }

    /// The keys inside the arc `(pred, id]`: one ordered range, or two when
    /// the arc wraps past zero (`pred >= id`, the whole ring if equal).
    fn arc_keys(&self, pred: u64, id: u64) -> impl Iterator<Item = &(u64, u64)> {
        let after_pred = Bound::Excluded((pred, u64::MAX));
        let upto_id = Bound::Included((id, u64::MAX));
        let (head, tail) = if pred < id {
            ((after_pred, upto_id), None)
        } else {
            (
                (after_pred, Bound::Unbounded),
                Some((Bound::Unbounded, upto_id)),
            )
        };
        self.keys
            .range(head)
            .chain(tail.into_iter().flat_map(|r| self.keys.range(r)))
    }

    /// The index ids inside `(pred, id]` under which this index holds a key
    /// `other` lacks — where the items an anti-entropy repair must re-send
    /// live. Integer comparisons only; sorted and deduplicated.
    pub(crate) fn ids_missing_from(&self, other: &DigestIndex, pred: Id, id: Id) -> Vec<Id> {
        debug_assert!(!self.stale && !other.stale, "rebuild before reading");
        let mut out: Vec<Id> = Vec::new();
        for key in self.arc_keys(pred.0, id.0) {
            // keys come in arc order, so a run of equal ids is adjacent
            if !other.keys.contains(key) && out.last() != Some(&Id(key.0)) {
                out.push(Id(key.0));
            }
        }
        out.sort_unstable(); // arc order wraps past zero
        out
    }

    /// The `(count, wrapping sum)` digest of the arc `(pred, id]` under
    /// membership epoch `epoch`. The first call per arc and epoch folds the
    /// ordered range; later calls read the incrementally maintained value.
    pub(crate) fn digest(&mut self, epoch: u64, pred: Id, id: Id) -> (u64, u64) {
        debug_assert!(!self.stale, "rebuild before reading");
        if self.epoch != epoch {
            self.epoch = epoch;
            self.arcs.clear();
        }
        let (pred, id) = (pred.0, id.0);
        if let Some(a) = self.arcs.iter().find(|a| a.pred == pred && a.id == id) {
            return (a.count, a.sum);
        }
        let (count, sum) = self
            .arc_keys(pred, id)
            .fold((0u64, 0u64), |(n, sum), &(_, h)| {
                (n + 1, sum.wrapping_add(h))
            });
        self.arcs.push(ArcDigest {
            pred,
            id,
            count,
            sum,
        });
        (count, sum)
    }
}

/// Mirrored copies of other nodes' primary state, held by a successor.
///
/// Inserts are idempotent: the ALQT/VLQT tables dedup by their own keys, and
/// the VLTT/VStore/offline parts keep explicit seen-sets (keyed by the
/// globally unique tuple sequence number or the notification itself), so
/// delayed duplicates and post-promotion re-mirroring never inflate the
/// store.
#[derive(Clone, Debug, Default)]
pub struct ReplicaStore {
    mirrors: Tables,
    vltt_seen: FxHashSet<(u64, Box<str>)>,
    vstore_seen: FxHashSet<(u64, Box<str>)>,
    offline_seen: FxHashSet<(Id, Notification)>,
    /// Digest keys of everything held, kept current by `insert` and
    /// `take_owned`.
    index: DigestIndex,
    /// Membership epoch of the last promotion scan (`None`: never scanned).
    scanned_epoch: Option<u64>,
    /// An item arrived under an identifier the holder already owned (its
    /// primary died with the `Replicate` in flight) since the last scan.
    owned_arrival: bool,
}

impl ReplicaStore {
    /// An empty store.
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Mirrors one item; duplicates are ignored. Errors on a malformed
    /// item (e.g. a rewritten query without an attribute target, or a
    /// tuple whose schema lacks its index attribute) so a corrupted
    /// `Replicate` payload fails the run with context instead of aborting.
    pub fn insert(&mut self, item: ReplicaItem) -> Result<()> {
        let (id, hash) = (item.index_id(), item.digest_hash());
        // Only what was actually stored is digested: the dedup decides,
        // exactly as a from-scratch pass over the tables would.
        if self.note_seen(&item, true) && self.mirrors.insert(item)? {
            self.index.insert(id, hash);
        }
        Ok(())
    }

    /// Enters the item into (`seen`) or drops it from its kind's seen-set,
    /// returning whether the set changed. ALQT and VLQT mirrors dedup in
    /// their tables instead, so they always pass.
    fn note_seen(&mut self, item: &ReplicaItem, seen: bool) -> bool {
        fn flip<K: Hash + Eq>(set: &mut FxHashSet<K>, key: K, seen: bool) -> bool {
            if seen {
                set.insert(key)
            } else {
                set.remove(&key)
            }
        }
        match item {
            ReplicaItem::Query(_) | ReplicaItem::Rewritten(_) => true,
            ReplicaItem::Tuple(e) => {
                let key = (e.tuple.seq(), e.attr.as_str().into());
                flip(&mut self.vltt_seen, key, seen)
            }
            ReplicaItem::ValueTuple { group, entry, .. } => {
                let key = (entry.tuple.seq(), group.as_str().into());
                flip(&mut self.vstore_seen, key, seen)
            }
            ReplicaItem::Offline { id, notification } => {
                flip(&mut self.offline_seen, (*id, notification.clone()), seen)
            }
        }
    }

    /// Total mirrored items currently held.
    pub fn len(&self) -> usize {
        self.mirrors.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every mirrored item (the holder itself failed).
    pub fn clear(&mut self) {
        *self = ReplicaStore::default();
    }

    /// Extracts every item whose index identifier satisfies `pred`, in the
    /// table order of [`Tables::take_where`]: the new owner of a failed
    /// range promotes them (`pred = |id| ring.owns(self, id)`), a departing
    /// holder hands them all to its successor.
    pub fn take_owned(&mut self, pred: impl Fn(Id) -> bool) -> Vec<ReplicaItem> {
        let items = self.mirrors.take_where(pred);
        for item in &items {
            self.note_seen(item, false);
            self.index.remove(item.index_id(), item.digest_hash());
        }
        items
    }

    /// Whether a promotion scan at membership epoch `epoch` could find
    /// anything: ownership is a function of the epoch alone, so after a
    /// scan the store holds nothing promotable until the epoch moves or an
    /// item arrives under an identifier the holder already owns.
    pub(crate) fn promotion_scan_due(&self, epoch: u64) -> bool {
        self.scanned_epoch != Some(epoch) || self.owned_arrival
    }

    /// Records a completed promotion scan at membership epoch `epoch`.
    pub(crate) fn note_promotion_scan(&mut self, epoch: u64) {
        self.scanned_epoch = Some(epoch);
        self.owned_arrival = false;
    }

    /// Records that a mirrored item arrived under an identifier the holder
    /// already owns — the next promotion must scan even within the epoch.
    pub(crate) fn note_owned_arrival(&mut self) {
        self.owned_arrival = true;
    }

    /// The `(count, wrapping sum)` set digest of the held items whose index
    /// identifier lies in the arc `(pred, id]` (see [`DigestIndex`]).
    pub(crate) fn digest(&mut self, epoch: u64, pred: Id, id: Id) -> (u64, u64) {
        self.index.digest(epoch, pred, id)
    }

    /// The digest keys of everything held (the anti-entropy diff side).
    pub(crate) fn index(&self) -> &DigestIndex {
        &self.index
    }

    /// Clones out every mirrored item (tests and diagnostics), in table
    /// order.
    pub fn items(&self) -> Vec<ReplicaItem> {
        self.mirrors.walk().map(Held::to_item).collect()
    }

    /// From-scratch oracle for [`ReplicaStore::digest`]: re-hashes every
    /// held item under `pred` into a fresh set and folds it.
    #[cfg(test)]
    pub(crate) fn digest_where(&self, pred: impl Fn(Id) -> bool) -> (u64, u64) {
        let set: FxHashSet<u64> = self
            .items()
            .iter()
            .filter(|item| pred(item.index_id()))
            .map(ReplicaItem::digest_hash)
            .collect();
        digest_of(&set)
    }
}

/// Folds a hash set into the `(count, sum)` digest (from-scratch oracle of
/// [`DigestIndex::digest`]). Wrapping addition keeps the combination
/// commutative without the cancellation a plain XOR would allow.
#[cfg(test)]
pub(crate) fn digest_of(hashes: &FxHashSet<u64>) -> (u64, u64) {
    let mut sum = 0u64;
    for h in hashes {
        sum = sum.wrapping_add(*h);
    }
    (hashes.len() as u64, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_relational::{DataType, QueryKey, RelationSchema, Timestamp, Tuple, Value};
    use std::sync::Arc;

    fn tuple(seq: u64) -> Arc<Tuple> {
        let schema = Arc::new(
            RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap(),
        );
        Arc::new(
            Tuple::new(
                schema,
                vec![Value::Int(1), Value::Int(7)],
                Timestamp(0),
                seq,
            )
            .unwrap(),
        )
    }

    fn notification(v: i64) -> Notification {
        Notification {
            query_key: QueryKey::derive("n", 0),
            subscriber: "n".into(),
            values: vec![Value::Int(v)],
        }
    }

    /// `(count, sum)` of the keys of `keys` inside `(pred, id]`, the slow way.
    fn fold(keys: &[(u64, u64)], pred: u64, id: u64) -> (u64, u64) {
        let set: FxHashSet<u64> = keys
            .iter()
            .filter(|(x, _)| in_arc(*x, pred, id))
            .map(|(_, h)| *h)
            .collect();
        digest_of(&set)
    }

    #[test]
    fn digest_index_arcs_stay_equal_to_a_fresh_fold() {
        // ids 0..40 step 3, hash = a mix of the id, so sums are telling
        let mut keys: Vec<(u64, u64)> = (0..14).map(|i| (i * 3, (i * 3 + 1) << 40)).collect();
        let mut index = DigestIndex::default();
        for &(id, h) in &keys[..7] {
            index.insert(Id(id), h);
        }
        // plain, wrapping, whole-ring and empty arcs, first folded …
        let arcs = [(5, 20), (30, 8), (12, 12), (1, 2)];
        for (pred, id) in arcs {
            let got = index.digest(1, Id(pred), Id(id));
            assert_eq!(got, fold(&keys[..7], pred, id), "({pred}, {id}]");
        }
        // … then kept current through inserts, a duplicate, and removals
        for &(id, h) in &keys[7..] {
            index.insert(Id(id), h);
        }
        index.insert(Id(keys[0].0), keys[0].1);
        let (gone_id, gone_hash) = keys.remove(4);
        index.remove(Id(gone_id), gone_hash);
        index.remove(Id(gone_id), gone_hash);
        assert!(!index.contains(Id(gone_id), gone_hash));
        for (pred, id) in arcs {
            let got = index.digest(1, Id(pred), Id(id));
            assert_eq!(got, fold(&keys, pred, id), "({pred}, {id}]");
        }
        // a new membership epoch re-folds
        assert_eq!(index.digest(2, Id(5), Id(20)), fold(&keys, 5, 20));
        assert_eq!(index.arcs.len(), 1);
        // a bulk invalidation ignores trickle updates until the rebuild
        index.invalidate();
        index.insert(Id(1), 1);
        assert!(index.is_stale());
        index.rebuild(keys.iter().map(|&(id, h)| (Id(id), h)));
        assert!(!index.is_stale());
        assert_eq!(index.digest(2, Id(30), Id(8)), fold(&keys, 30, 8));
    }

    #[test]
    fn store_digest_follows_insert_and_extract() {
        let mut s = ReplicaStore::new();
        let item = |id: u64, seq: u64| {
            ReplicaItem::Tuple(StoredTuple {
                index_id: Id(id),
                attr: "A".into(),
                tuple: tuple(seq),
            })
        };
        for (id, seq) in [(10, 1), (20, 2), (30, 3)] {
            s.insert(item(id, seq)).unwrap();
        }
        s.insert(item(20, 2)).unwrap(); // duplicate: stored and digested once
        let in_arc = |id: Id| id.0 > 5 && id.0 <= 25;
        assert_eq!(s.digest(1, Id(5), Id(25)), s.digest_where(in_arc));
        assert_eq!(s.digest(1, Id(5), Id(25)).0, 2);
        assert!(s.index().contains(Id(20), item(20, 2).digest_hash()));
        let promoted = s.take_owned(|id| id == Id(20));
        assert_eq!(promoted.len(), 1);
        assert_eq!(s.digest(1, Id(5), Id(25)), s.digest_where(in_arc));
        assert_eq!(s.digest(1, Id(5), Id(25)).0, 1);
        assert!(!s.index().contains(Id(20), item(20, 2).digest_hash()));
    }

    #[test]
    fn duplicate_tuple_replicas_are_ignored() {
        let mut s = ReplicaStore::new();
        let mk = || {
            ReplicaItem::Tuple(StoredTuple {
                index_id: Id(5),
                attr: "A".into(),
                tuple: tuple(3),
            })
        };
        s.insert(mk()).unwrap();
        s.insert(mk()).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicate_offline_replicas_are_ignored() {
        let mut s = ReplicaStore::new();
        s.insert(ReplicaItem::Offline {
            id: Id(9),
            notification: notification(1),
        })
        .unwrap();
        s.insert(ReplicaItem::Offline {
            id: Id(9),
            notification: notification(1),
        })
        .unwrap();
        s.insert(ReplicaItem::Offline {
            id: Id(9),
            notification: notification(2),
        })
        .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn take_owned_partitions_by_identifier() {
        let mut s = ReplicaStore::new();
        s.insert(ReplicaItem::Tuple(StoredTuple {
            index_id: Id(10),
            attr: "A".into(),
            tuple: tuple(1),
        }))
        .unwrap();
        s.insert(ReplicaItem::Tuple(StoredTuple {
            index_id: Id(20),
            attr: "A".into(),
            tuple: tuple(2),
        }))
        .unwrap();
        s.insert(ReplicaItem::Offline {
            id: Id(10),
            notification: notification(1),
        })
        .unwrap();
        let promoted = s.take_owned(|id| id == Id(10));
        assert!(matches!(
            promoted.as_slice(),
            [ReplicaItem::Tuple(_), ReplicaItem::Offline { .. }]
        ));
        assert_eq!(s.len(), 1, "unowned replica stays dormant");
        // a promoted item can be mirrored back in later
        s.insert(ReplicaItem::Tuple(StoredTuple {
            index_id: Id(10),
            attr: "A".into(),
            tuple: tuple(1),
        }))
        .unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn value_tuple_replicas_dedup_by_seq_and_group() {
        let mut s = ReplicaStore::new();
        let mk = |seq| ReplicaItem::ValueTuple {
            group: "g".into(),
            value_key: "v".into(),
            entry: StoredValueTuple {
                index_id: Id(3),
                side: cq_relational::Side::Left,
                tuple: tuple(seq),
            },
        };
        s.insert(mk(1)).unwrap();
        s.insert(mk(1)).unwrap();
        s.insert(mk(2)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.take_owned(|_| true).len(), 2);
        assert!(s.is_empty());
    }
}
