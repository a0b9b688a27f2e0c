//! The paper's API extension (Section 2.3): `multisend(msg, L)` delivers one
//! message to the successors of a whole list of identifiers, either
//! iteratively (k independent lookups from the sender) or recursively (the
//! message snakes clockwise through the responsible nodes, each stripping the
//! identifiers it owns).
//!
//! Both variants cost `O(k log N)` hops, but the recursive one performs
//! significantly better in practice — reproduced by experiment E1.

use crate::error::Result;
use crate::id::Id;
use crate::node::NodeHandle;
use crate::ring::Ring;

/// The outcome of a multisend: which node received which identifiers, plus
/// the traffic consumed.
#[derive(Clone, Debug)]
pub struct MultisendOutcome {
    /// `(recipient, identifiers the recipient is responsible for)` in
    /// delivery order.
    pub deliveries: Vec<(NodeHandle, Vec<Id>)>,
    /// Total overlay hops consumed by all messages.
    pub total_hops: usize,
    /// Completion time in hops: for the recursive variant the chain is
    /// sequential so this equals `total_hops`; for the iterative variant the
    /// k lookups proceed in parallel so it is the longest single lookup.
    pub makespan: usize,
}

/// A recursive multisend of payloads, planned by [`Ring::multisend`]: it
/// yields `(recipient, first identifier it owns, payload)` in delivery
/// order, where the payload of a recipient owning several identifiers is
/// their payloads bundled in clockwise order.
#[derive(Debug)]
pub struct Multisend<T> {
    /// Total overlay hops the walk consumed.
    pub hops: usize,
    spans: std::vec::IntoIter<(NodeHandle, usize)>,
    items: std::vec::IntoIter<(Id, T)>,
    bundle: fn(Vec<T>) -> T,
}

impl<T> Iterator for Multisend<T> {
    type Item = (NodeHandle, Id, T);

    fn next(&mut self) -> Option<Self::Item> {
        let (owner, len) = self.spans.next()?;
        let (first, payload) = self.items.next()?;
        if len == 1 {
            return Some((owner, first, payload));
        }
        let mut run = Vec::with_capacity(len);
        run.push(payload);
        run.extend(self.items.by_ref().take(len - 1).map(|(_, t)| t));
        Some((owner, first, (self.bundle)(run)))
    }
}

impl Ring {
    /// Recursive `multisend(msg, L)` exactly as in Section 2.3:
    /// sort `L` ascending clockwise from the sender, route toward the head,
    /// let each responsible node strip the identifiers it owns and forward
    /// the remainder. The walk of [`Ring::multisend`], with each
    /// identifier as its own payload; a repeated identifier is delivered
    /// once.
    pub fn multisend_recursive(&self, from: NodeHandle, ids: &[Id]) -> Result<MultisendOutcome> {
        let items = ids.iter().map(|&id| (id, vec![id])).collect();
        let sent = self.multisend(from, items, |runs| {
            let mut owned = runs.concat();
            owned.dedup();
            owned
        })?;
        let total_hops = sent.hops;
        Ok(MultisendOutcome {
            deliveries: sent.map(|(owner, _, owned)| (owner, owned)).collect(),
            total_hops,
            makespan: total_hops,
        })
    }

    /// The recursive multisend of one payload per identifier. `items` are
    /// stable-sorted clockwise from the sender and walked once: route
    /// toward the head, let its owner take every item up to its own
    /// identifier, forward the rest. A recipient owning one item gets it
    /// bare; several become one `bundle` of them, in order.
    pub fn multisend<T>(
        &self,
        from: NodeHandle,
        mut items: Vec<(Id, T)>,
        bundle: fn(Vec<T>) -> T,
    ) -> Result<Multisend<T>> {
        // "Initially n sorts the identifiers in L in ascending order clockwise
        // starting from id(n)."
        let space = self.space();
        let origin = self.id_of(from);
        items.sort_by_key(|&(id, _)| space.distance(origin, id));
        let mut spans = Vec::with_capacity(items.len());
        let mut hops = 0;
        let mut cur = from;
        let mut pos = 0;
        while let Some(&(head, _)) = items.get(pos) {
            let (owner, h) = self.route_owner(cur, head)?;
            hops += h;
            let owner_id = self.id_of(owner);
            // "x deletes all elements of L that are smaller or equal to id(x),
            // starting from head(L), since node x is responsible for them."
            let owned = items[pos..]
                .iter()
                .take_while(|&&(i, _)| {
                    (i == head || space.in_open_closed(i, head, owner_id))
                        && space.distance(head, i) <= space.distance(head, owner_id)
                })
                .count();
            spans.push((owner, owned));
            pos += owned;
            cur = owner;
        }
        Ok(Multisend {
            hops,
            spans: spans.into_iter(),
            items: items.into_iter(),
            bundle,
        })
    }

    /// Iterative multisend: "create k different send() messages … and locate
    /// the recipients in an iterative fashion". Implemented for comparison
    /// purposes, as in the paper.
    pub fn multisend_iterative(&self, from: NodeHandle, ids: &[Id]) -> Result<MultisendOutcome> {
        let mut outcome = MultisendOutcome {
            deliveries: Vec::new(),
            total_hops: 0,
            makespan: 0,
        };
        let mut seen: Vec<(NodeHandle, Vec<Id>)> = Vec::new();
        let mut sorted: Vec<Id> = ids.to_vec();
        sorted.sort_by_key(|&i| self.space().distance(self.id_of(from), i));
        sorted.dedup();
        for id in sorted {
            let (owner, hops) = self.route_owner(from, id)?;
            outcome.total_hops += hops;
            outcome.makespan = outcome.makespan.max(hops);
            match seen.iter_mut().find(|(h, _)| *h == owner) {
                Some((_, v)) => v.push(id),
                None => seen.push((owner, vec![id])),
            }
        }
        outcome.deliveries = seen;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdSpace;

    fn ring(n: usize) -> Ring {
        Ring::build(IdSpace::new(20), n, "ms-node-")
    }

    fn targets(ring: &Ring, k: usize) -> Vec<Id> {
        (0..k as u64)
            .map(|i| Id(i.wrapping_mul(2_654_435_761) % ring.space().size()))
            .collect()
    }

    #[test]
    fn recursive_reaches_every_true_owner() {
        let r = ring(100);
        let from = r.alive_nodes().nth(3).unwrap();
        let ids = targets(&r, 25);
        let out = r.multisend_recursive(from, &ids).unwrap();
        let mut delivered: Vec<Id> = out.deliveries.iter().flat_map(|(_, v)| v.clone()).collect();
        delivered.sort();
        let mut expect = ids.clone();
        expect.sort();
        expect.dedup();
        assert_eq!(delivered, expect);
        for (owner, owned) in &out.deliveries {
            for id in owned {
                assert_eq!(
                    r.owner_of(*id).unwrap(),
                    *owner,
                    "id {id} delivered to wrong node"
                );
            }
        }
    }

    #[test]
    fn iterative_reaches_every_true_owner() {
        let r = ring(100);
        let from = r.alive_nodes().nth(3).unwrap();
        let ids = targets(&r, 25);
        let out = r.multisend_iterative(from, &ids).unwrap();
        let mut delivered: Vec<Id> = out.deliveries.iter().flat_map(|(_, v)| v.clone()).collect();
        delivered.sort();
        let mut expect = ids;
        expect.sort();
        expect.dedup();
        assert_eq!(delivered, expect);
    }

    #[test]
    fn both_variants_deliver_identical_sets() {
        let r = ring(64);
        let from = r.alive_nodes().next().unwrap();
        let ids = targets(&r, 40);
        let rec = r.multisend_recursive(from, &ids).unwrap();
        let ite = r.multisend_iterative(from, &ids).unwrap();
        let norm = |out: &MultisendOutcome| {
            // Merge per owner: the recursive walk may visit the sender's
            // successor twice when the identifier list wraps around the
            // sender (two delivery entries for one node), which is correct
            // protocol behavior — only the per-owner id sets must agree.
            let mut merged: std::collections::BTreeMap<NodeHandle, Vec<Id>> = Default::default();
            for (h, ids) in &out.deliveries {
                merged.entry(*h).or_default().extend(ids.iter().copied());
            }
            merged
                .into_iter()
                .map(|(h, mut ids)| {
                    ids.sort();
                    (h, ids)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(norm(&rec), norm(&ite));
    }

    #[test]
    fn recursive_uses_fewer_total_hops_for_many_targets() {
        // The paper's practical advantage: once the message is in the right
        // region of the ring, consecutive recipients are a hop or two apart.
        let r = ring(256);
        let from = r.alive_nodes().next().unwrap();
        let ids = targets(&r, 128);
        let rec = r.multisend_recursive(from, &ids).unwrap();
        let ite = r.multisend_iterative(from, &ids).unwrap();
        assert!(
            rec.total_hops < ite.total_hops,
            "recursive {} !< iterative {}",
            rec.total_hops,
            ite.total_hops
        );
    }

    #[test]
    fn empty_list_is_a_noop() {
        let r = ring(10);
        let from = r.alive_nodes().next().unwrap();
        let out = r.multisend_recursive(from, &[]).unwrap();
        assert!(out.deliveries.is_empty());
        assert_eq!(out.total_hops, 0);
    }

    #[test]
    fn duplicate_identifiers_are_delivered_once() {
        let r = ring(30);
        let from = r.alive_nodes().next().unwrap();
        let id = Id(12345);
        let out = r.multisend_recursive(from, &[id, id, id]).unwrap();
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].1, vec![id]);
    }

    #[test]
    fn sender_owned_identifier_costs_nothing_extra() {
        let r = ring(30);
        let from = r.alive_nodes().nth(5).unwrap();
        let own_id = r.id_of(from);
        let out = r.multisend_recursive(from, &[own_id]).unwrap();
        assert_eq!(out.deliveries, vec![(from, vec![own_id])]);
        assert_eq!(out.total_hops, 0);
    }
}
