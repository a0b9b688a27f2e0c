//! Churn: voluntary leaves, abrupt failures, rejoins with key transfer, and
//! replica promotion during stabilization (Sections 2.2, 4.6).
//!
//! These are state-layer operations on [`Network`]: they move a node's
//! [`Tables`](crate::tables::Tables) when ring ownership changes,
//! independent of which evaluation algorithm produced the entries. Every
//! change of owner — promotion after a failure, transfer by a leave or a
//! rejoin — ends in one hand-over, [`Network::store_all`]: the new owner
//! stores each item once and re-mirrors it when k ≥ 1.

use cq_overlay::{Id, NodeHandle};
use cq_relational::subscriber_hash;

use crate::error::{EngineError, Result};
use crate::network::Network;
use crate::replication::ReplicaItem;
use crate::trace::TraceEvent;

impl Network {
    /// Voluntary departure: the node transfers every key it holds to its
    /// successor, then leaves the ring, and the hand-over's re-mirroring is
    /// delivered before this returns. Replica duty moves too: each copy the
    /// node held for a predecessor goes to that predecessor's new `k`-th
    /// successor — unless the predecessor failed and the copy was not
    /// promoted yet: its range is the successor's now, so it is promoted
    /// into the hand-over.
    pub fn node_leave(&mut self, h: NodeHandle) -> Result<()> {
        let succ = self
            .ring
            .first_alive_successor(h)
            .ok_or(EngineError::UnknownNode)?;
        self.ring.leave(h)?;
        let inherited = self.nodes[h.index()].replicas.take_owned(|_| true);
        if succ == h {
            // Last node standing: nobody is left to hold replicas for.
            return Ok(());
        }
        let mut items = self.take_primary(h, |_| true);
        let mut promoted = 0;
        for item in inherited {
            let owner = self.ring.owner_of(item.index_id())?;
            if owner == succ {
                // Mirrored past `succ` instead, nobody would promote it.
                promoted += 1;
                items.push(item);
            } else if let Some(to) = self.ring.successors_of(owner, self.repl_k()).last() {
                self.nodes[to.index()].replicas.insert(item)?;
            }
        }
        self.note_promoted(succ, promoted);
        self.hand_over(succ, items)?;
        self.process_all()
    }

    /// Abrupt failure: the node's primary keys and replica holdings are
    /// lost (best-effort semantics, Section 3.2 — "we leave all the handling
    /// of failures … to the underlying DHT"). With k-successor replication
    /// enabled, the lost range is recovered from the successors' replica
    /// stores during the next [`Network::stabilize`].
    pub fn node_fail(&mut self, h: NodeHandle) -> Result<()> {
        self.ring.fail(h)?;
        let (tick, node) = (self.trace_tick(), h.index() as u32);
        self.trace(|| TraceEvent::NodeFailed { tick, node });
        let st = &mut self.nodes[h.index()];
        let wiped = st.tables.wipe();
        st.mirrored.clear();
        st.replicas.clear();
        for (table, removed) in wiped.into_iter().filter(|&(_, n)| n > 0) {
            self.trace(|| TraceEvent::IndexRemove {
                tick,
                node,
                table,
                removed,
                reason: "fail",
            });
        }
        self.metrics.faults.nodes_failed += 1;
        self.note_failure(node);
        Ok(())
    }

    /// Runs stabilization rounds over the whole ring, then promotes any
    /// replicas whose primary owner has disappeared (when k-successor
    /// replication is on) and processes the resulting re-mirroring traffic.
    pub fn stabilize(&mut self, rounds: usize) -> Result<()> {
        self.ring.stabilize_all(rounds);
        self.promote_replicas()?;
        self.process_all()
    }

    /// Every alive node extracts the replica entries whose identifier it now
    /// owns (its predecessor failed) and hands them to its primary tables,
    /// re-mirroring them onto its own successors to restore k-fold
    /// redundancy.
    ///
    /// Ownership is ground truth (`Ring::owns`), a function of the
    /// membership epoch alone. A holder scanned under the current epoch
    /// therefore has nothing promotable unless a `Replicate` for an
    /// identifier it already owned arrived since — every other holder is
    /// skipped without touching its store.
    pub(crate) fn promote_replicas(&mut self) -> Result<()> {
        if self.repl_k() == 0 {
            return Ok(());
        }
        let epoch = self.ring.membership_epoch();
        let handles: Vec<NodeHandle> = self
            .ring
            .alive_nodes()
            .filter(|h| self.nodes[h.index()].replicas.promotion_scan_due(epoch))
            .collect();
        for h in handles {
            let promoted = {
                let ring = &self.ring;
                let store = &mut self.nodes[h.index()].replicas;
                store.note_promotion_scan(epoch);
                store.take_owned(|id| ring.owns(h, id))
            };
            if promoted.is_empty() {
                continue;
            }
            self.note_promoted(h, promoted.len());
            self.store_all(h, promoted)?;
        }
        Ok(())
    }

    /// Counts and traces `n` replicas becoming `h`'s primary state.
    fn note_promoted(&mut self, h: NodeHandle, n: usize) {
        if n == 0 {
            return;
        }
        self.metrics.faults.replicas_promoted += n as u64;
        let (tick, node, items) = (self.trace_tick(), h.index() as u32, n as u64);
        self.trace(|| TraceEvent::Promote { tick, node, items });
    }

    /// A departed node rejoins with its old key: it takes back the key range
    /// `(pred, id]` from its successor — including any notifications stored
    /// for it while it was offline (Section 4.6).
    pub fn node_rejoin(&mut self, h: NodeHandle) -> Result<()> {
        let via = self
            .ring
            .alive_nodes()
            .next()
            .ok_or(EngineError::UnknownNode)?;
        self.ring.rejoin(h, via)?;
        self.note_rejoin(h.index() as u32);
        self.ring.stabilize_all(2);
        let (pred, id) = self.ring.owned_range(h)?;
        let succ = self
            .ring
            .first_alive_successor(h)
            .ok_or(EngineError::UnknownNode)?;
        let me = self.ring.node(h).key().to_string();
        if succ != h {
            let space = self.ring.space();
            let mut items = self.take_primary(succ, |x| space.in_open_closed(x, pred, id));
            // Missed notifications addressed to us go to the inbox; the
            // rest of the range is ours to hold.
            let inbox = &mut self.nodes[h.index()].inbox;
            items.retain(|item| match item {
                ReplicaItem::Offline { notification, .. } if notification.subscriber == me => {
                    inbox.push(notification.clone());
                    false
                }
                _ => true,
            });
            self.hand_over(h, items)?;
        }
        self.subscribers.insert(subscriber_hash(&me), &me, h);
        Ok(())
    }

    /// Takes `from`'s primary items under identifiers satisfying `pred` out
    /// of its tables, for a transfer to their new owner.
    fn take_primary(&mut self, from: NodeHandle, pred: impl Fn(Id) -> bool) -> Vec<ReplicaItem> {
        let st = &mut self.nodes[from.index()];
        let items = st.tables.take_where(pred);
        // A bulk removal: the digest index rebuilds at its next read.
        st.mirrored.invalidate();
        if !items.is_empty() {
            let (tick, node, removed) =
                (self.trace_tick(), from.index() as u32, items.len() as u64);
            self.trace(|| TraceEvent::IndexRemove {
                tick,
                node,
                table: "all",
                removed,
                reason: "transfer",
            });
        }
        items
    }

    /// Hands transferred `items` to their new owner `to`. What `to` mirrored
    /// under their identifiers is its own state from now on, so those
    /// mirrors go first — left in place, the next stabilization would
    /// promote them and every item would be stored twice.
    fn hand_over(&mut self, to: NodeHandle, items: Vec<ReplicaItem>) -> Result<()> {
        let mut ids: Vec<Id> = items.iter().map(ReplicaItem::index_id).collect();
        ids.sort_unstable();
        ids.dedup();
        let mirrors = &mut self.nodes[to.index()].replicas;
        mirrors.take_owned(|id| ids.binary_search(&id).is_ok());
        self.store_all(to, items)
    }
}
