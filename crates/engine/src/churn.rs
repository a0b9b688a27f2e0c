//! Churn: voluntary leaves, abrupt failures, rejoins with key transfer, and
//! replica promotion during stabilization (Sections 2.2, 4.6).
//!
//! These are state-layer operations on [`Network`]: they move table entries
//! between nodes when ring ownership changes, independent of which
//! evaluation algorithm produced the entries.

use cq_overlay::{Id, NodeHandle};

use crate::error::{EngineError, Result};
use crate::network::Network;
use crate::replication::ReplicaItem;
use crate::trace::TraceEvent;

impl Network {
    /// Voluntary departure: the node transfers every key it holds to its
    /// successor, then leaves the ring. Replica duty moves with the range:
    /// the successor also inherits the mirrored copies this node held for
    /// its predecessors. (Dropping them — the old behavior — silently
    /// reduced those primaries' redundancy below `k` until their next
    /// re-mirroring, so one further failure in that window lost state.)
    pub fn node_leave(&mut self, h: NodeHandle) -> Result<()> {
        let succ = self
            .ring
            .first_alive_successor(h)
            .ok_or(EngineError::UnknownNode)?;
        self.ring.leave(h)?;
        if succ != h {
            self.transfer_all(h, succ)?;
            let inherited = self.nodes[h.index()].replicas.drain_items();
            let store = &mut self.nodes[succ.index()].replicas;
            for item in inherited {
                store.insert(item)?;
            }
        } else {
            // Last node standing: nobody is left to hold replicas for.
            self.nodes[h.index()].replicas.clear();
        }
        Ok(())
    }

    /// Abrupt failure: the node's primary keys and replica holdings are
    /// lost (best-effort semantics, Section 3.2 — "we leave all the handling
    /// of failures … to the underlying DHT"). With k-successor replication
    /// enabled, the lost range is recovered from the successors' replica
    /// stores during the next [`Network::stabilize`].
    pub fn node_fail(&mut self, h: NodeHandle) -> Result<()> {
        self.fail_node_state(h)
    }

    /// Ring-level failure plus primary/replica state loss at the victim.
    pub(crate) fn fail_node_state(&mut self, h: NodeHandle) -> Result<()> {
        self.ring.fail(h)?;
        let node = h.index() as u32;
        let tick = self.trace_tick();
        self.trace(|| TraceEvent::NodeFailed { tick, node });
        let tracing = self.trace_on();
        let st = &mut self.nodes[h.index()];
        let wiped: [(&'static str, u64); 4] = [
            ("alqt", st.alqt.len() as u64),
            ("vlqt", st.vlqt.len() as u64),
            ("vltt", st.vltt.len() as u64),
            ("vstore", st.vstore.len() as u64),
        ];
        st.alqt.drain_all();
        st.vlqt.drain_all();
        st.vltt.drain_all();
        st.vstore.drain_all();
        let offline = st.offline_store.len() as u64;
        st.offline_store.clear();
        st.mirrored.clear();
        st.replicas.clear();
        if tracing {
            for (table, removed) in wiped {
                if removed > 0 {
                    self.trace(|| TraceEvent::IndexRemove {
                        tick,
                        node,
                        table,
                        removed,
                        reason: "fail",
                    });
                }
            }
            if offline > 0 {
                self.trace(|| TraceEvent::IndexRemove {
                    tick,
                    node,
                    table: "offline-store",
                    removed: offline,
                    reason: "fail",
                });
            }
        }
        self.metrics.faults.nodes_failed += 1;
        self.note_failure(h.index() as u32);
        Ok(())
    }

    /// Runs stabilization rounds over the whole ring, then promotes any
    /// replicas whose primary owner has disappeared (when k-successor
    /// replication is on) and processes the resulting re-mirroring traffic.
    pub fn stabilize(&mut self, rounds: usize) -> Result<()> {
        self.ring.stabilize_all(rounds);
        if self.repl_k() > 0 {
            self.promote_replicas()?;
        }
        self.process_all()
    }

    /// Every alive node extracts the replica entries whose identifier it now
    /// owns (its predecessor failed) and promotes them into its primary
    /// tables, then re-mirrors them onto its own successors to restore
    /// k-fold redundancy.
    ///
    /// Ownership is ground truth (`Ring::owns`), a function of the
    /// membership epoch alone. A holder scanned under the current epoch
    /// therefore has nothing promotable unless a `Replicate` for an
    /// identifier it already owned arrived since — every other holder is
    /// skipped without touching its store.
    pub(crate) fn promote_replicas(&mut self) -> Result<()> {
        let k = self.repl_k();
        if k == 0 {
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
            self.metrics.faults.replicas_promoted += promoted.len() as u64;
            let (tick, node, items) = (self.trace_tick(), h.index() as u32, promoted.len() as u64);
            self.trace(|| TraceEvent::Promote { tick, node, items });
            let mut items: Vec<ReplicaItem> = Vec::with_capacity(promoted.len());
            {
                let st = &mut self.nodes[h.index()];
                for e in promoted.queries {
                    st.alqt.insert(e.clone());
                    items.push(ReplicaItem::Query(e));
                }
                for e in promoted.rewritten {
                    st.vlqt.insert(e.clone())?;
                    items.push(ReplicaItem::Rewritten(e));
                }
                for e in promoted.tuples {
                    st.vltt.insert(e.clone())?;
                    items.push(ReplicaItem::Tuple(e));
                }
                for (group, value_key, e) in promoted.value_tuples {
                    st.vstore.insert(&group, &value_key, e.clone());
                    items.push(ReplicaItem::ValueTuple {
                        group,
                        value_key,
                        entry: e,
                    });
                }
                for (id, n) in promoted.offline {
                    st.offline_store.push((id, n.clone()));
                    items.push(ReplicaItem::Offline {
                        id,
                        notification: n,
                    });
                }
            }
            for item in items {
                self.replicate(h, item);
            }
        }
        Ok(())
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
        if succ != h {
            let space = self.ring.space();
            let in_range = move |x: Id| space.in_open_closed(x, pred, id);
            self.transfer_matching(succ, h, in_range)?;
        }
        // Missed notifications addressed to us move into the inbox (the
        // transfer above left `h`'s digest index invalidated, so this
        // removal needs no bookkeeping of its own).
        let me = self.ring.node(h).key().to_string();
        let st = &mut self.nodes[h.index()];
        let mut kept = Vec::new();
        for (nid, n) in std::mem::take(&mut st.offline_store) {
            if n.subscriber == me {
                st.inbox.push(n);
            } else {
                kept.push((nid, n));
            }
        }
        st.offline_store = kept;
        self.subscribers.insert(me, h);
        Ok(())
    }

    fn transfer_all(&mut self, from: NodeHandle, to: NodeHandle) -> Result<()> {
        self.transfer_matching(from, to, |_| true)
    }

    fn transfer_matching(
        &mut self,
        from: NodeHandle,
        to: NodeHandle,
        pred: impl Fn(Id) -> bool + Copy,
    ) -> Result<()> {
        debug_assert_ne!(from, to);
        let (a, b) = (from.index(), to.index());
        let mut moved = 0u64;
        {
            // Split the borrow: `from` and `to` are distinct slots.
            let (src, dst) = if a < b {
                let (l, r) = self.nodes.split_at_mut(b);
                (&mut l[a], &mut r[0])
            } else {
                let (l, r) = self.nodes.split_at_mut(a);
                (&mut r[0], &mut l[b])
            };
            // A bulk move: both digest indexes rebuild lazily at their next
            // anti-entropy read instead of tracking every moved item.
            src.mirrored.invalidate();
            dst.mirrored.invalidate();
            for e in src.alqt.extract_where(&pred) {
                moved += 1;
                dst.alqt.insert(e);
            }
            for e in src.vlqt.extract_where(&pred) {
                moved += 1;
                dst.vlqt.insert(e)?;
            }
            for e in src.vltt.extract_where(&pred) {
                moved += 1;
                dst.vltt.insert(e)?;
            }
            for (group, value, e) in src.vstore.extract_where(&pred) {
                moved += 1;
                dst.vstore.insert(&group, &value, e);
            }
            let mut kept = Vec::new();
            for (id, n) in std::mem::take(&mut src.offline_store) {
                if pred(id) {
                    moved += 1;
                    dst.offline_store.push((id, n));
                } else {
                    kept.push((id, n));
                }
            }
            src.offline_store = kept;
        }
        if moved > 0 {
            let (tick, node) = (self.trace_tick(), a as u32);
            self.trace(|| TraceEvent::IndexRemove {
                tick,
                node,
                table: "all",
                removed: moved,
                reason: "transfer",
            });
        }
        Ok(())
    }
}
