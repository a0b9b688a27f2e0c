//! A holder's state as one value: the ALQT, the VLQT, the VLTT, the DAI-V
//! value store and the offline store of Section 4.6.
//!
//! A node keeps its primary state in one [`Tables`] and the copies it
//! mirrors for its predecessors in another (inside
//! [`crate::replication::ReplicaStore`]). Storing, handing over, wiping and
//! digesting are written once, here, for all five kinds: a
//! [`ReplicaItem`] is one item of any kind, owned, and a [`Held`] is one
//! borrowed where it is stored.

use cq_overlay::Id;
use cq_relational::Notification;

use super::keys::ValueKey;
use super::{Alqt, RewrittenEntry, StoredQuery, StoredTuple, StoredValueTuple, VStore, Vlqt, Vltt};
use crate::error::Result;
use crate::replication::{
    hash_offline, hash_query, hash_rewritten, hash_tuple, hash_value_tuple, ReplicaItem,
};

/// The five tables of one holder.
#[derive(Clone, Debug, Default)]
pub struct Tables {
    /// Attribute-level query table (rewriter role).
    pub alqt: Alqt,
    /// Value-level query table (evaluator role, SAI/DAI-T).
    pub vlqt: Vlqt,
    /// Value-level tuple table (evaluator role, SAI/DAI-Q).
    pub vltt: Vltt,
    /// DAI-V evaluator store.
    pub vstore: VStore,
    /// Notifications held for offline subscribers, each under the
    /// identifier of its subscriber's key (`Hash(Key(n))`).
    pub offline: Vec<(Id, Notification)>,
}

/// One item of a [`Tables`], borrowed in place: its digest hash is
/// computed, and the item cloned, only when asked for.
#[derive(Clone, Copy, Debug)]
pub enum Held<'a> {
    /// An ALQT entry.
    Query(&'a StoredQuery),
    /// A VLQT entry, with its bucket's identifier and target.
    Rewritten(RewrittenEntry<'a>),
    /// A VLTT entry.
    Tuple(&'a StoredTuple),
    /// A value-store entry under its `(group, value)` key.
    ValueTuple(&'a str, &'a str, &'a StoredValueTuple),
    /// An offline notification under its subscriber's identifier.
    Offline(Id, &'a Notification),
}

impl Held<'_> {
    /// The identifier that decides which node's range the item belongs to.
    pub fn index_id(self) -> Id {
        match self {
            Held::Query(e) => e.index_id,
            Held::Rewritten(e) => e.index_id,
            Held::Tuple(e) => e.index_id,
            Held::ValueTuple(_, _, e) => e.index_id,
            Held::Offline(id, _) => id,
        }
    }

    /// The item's [`ReplicaItem::digest_hash`], without cloning it.
    pub fn digest_hash(self) -> u64 {
        match self {
            Held::Query(e) => hash_query(e),
            Held::Rewritten(e) => hash_rewritten(e.index_id, e.rq),
            Held::Tuple(e) => hash_tuple(e),
            Held::ValueTuple(group, value_key, e) => hash_value_tuple(group, value_key, e),
            Held::Offline(id, n) => hash_offline(id, n),
        }
    }

    /// Clones the item out.
    pub fn to_item(self) -> ReplicaItem {
        match self {
            Held::Query(e) => ReplicaItem::Query(e.clone()),
            Held::Rewritten(e) => ReplicaItem::Rewritten(e.to_stored()),
            Held::Tuple(e) => ReplicaItem::Tuple(e.clone()),
            Held::ValueTuple(group, value_key, e) => ReplicaItem::ValueTuple {
                group: group.to_string(),
                value_key: ValueKey::from(value_key),
                entry: e.clone(),
            },
            Held::Offline(id, n) => ReplicaItem::Offline {
                id,
                notification: n.clone(),
            },
        }
    }
}

impl Tables {
    /// Stores one item, returning whether it was fresh: the ALQT and VLQT
    /// dedup by their own keys, the other three keep every arrival. Errors
    /// on a malformed item (a rewritten query without an attribute target,
    /// a tuple whose schema lacks its index attribute).
    pub fn insert(&mut self, item: ReplicaItem) -> Result<bool> {
        match item {
            ReplicaItem::Query(e) => return Ok(self.alqt.insert(e)),
            ReplicaItem::Rewritten(e) => return self.vlqt.insert(e),
            ReplicaItem::Tuple(e) => self.vltt.insert(e)?,
            ReplicaItem::ValueTuple {
                group,
                value_key,
                entry,
            } => self.vstore.insert(&group, value_key.as_str(), entry),
            ReplicaItem::Offline { id, notification } => self.offline.push((id, notification)),
        }
        Ok(true)
    }

    /// Removes and returns every item whose index identifier satisfies
    /// `pred` — what a hand-over moves — table by table in the order ALQT,
    /// VLQT, VLTT, value store, offline store.
    pub fn take_where(&mut self, pred: impl Fn(Id) -> bool) -> Vec<ReplicaItem> {
        let queries = self.alqt.extract_where(&pred);
        let rewritten = self.vlqt.extract_where(&pred);
        let tuples = self.vltt.extract_where(&pred);
        let values = self.vstore.extract_where(&pred);
        let offline: Vec<_> = self.offline.extract_if(.., |(id, _)| pred(*id)).collect();
        let mut out = Vec::with_capacity(
            queries.len() + rewritten.len() + tuples.len() + values.len() + offline.len(),
        );
        out.extend(queries.into_iter().map(ReplicaItem::Query));
        out.extend(rewritten.into_iter().map(ReplicaItem::Rewritten));
        out.extend(tuples.into_iter().map(ReplicaItem::Tuple));
        out.extend(
            values
                .into_iter()
                .map(|(group, value_key, entry)| ReplicaItem::ValueTuple {
                    group,
                    value_key,
                    entry,
                }),
        );
        out.extend(
            offline
                .into_iter()
                .map(|(id, notification)| ReplicaItem::Offline { id, notification }),
        );
        out
    }

    /// Every item, borrowed, in the table order of [`Tables::take_where`].
    pub fn walk(&self) -> impl Iterator<Item = Held<'_>> {
        let values = self.vstore.entries();
        self.alqt
            .entries()
            .map(Held::Query)
            .chain(self.vlqt.entries().map(Held::Rewritten))
            .chain(self.vltt.entries().map(Held::Tuple))
            .chain(values.map(|(group, value_key, e)| Held::ValueTuple(group, value_key, e)))
            .chain(self.offline.iter().map(|(id, n)| Held::Offline(*id, n)))
    }

    /// Total items held.
    pub fn len(&self) -> usize {
        self.alqt.len() + self.vlqt.len() + self.vltt.len() + self.vstore.len() + self.offline.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops everything (the holder failed), returning how many items each
    /// table held, under the table's trace name: the label of its
    /// [`ReplicaItem`] kind.
    pub fn wipe(&mut self) -> [(&'static str, u64); 5] {
        let held = [
            self.alqt.len(),
            self.vlqt.len(),
            self.vltt.len(),
            self.vstore.len(),
            self.offline.len(),
        ];
        *self = Tables::default();
        std::array::from_fn(|i| (ReplicaItem::KINDS[i], held[i] as u64))
    }
}
