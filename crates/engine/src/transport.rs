//! The transport layer: message queues, multisend routing, JFRT-assisted
//! sends, k-successor replica mirroring, and the one drain loop, which
//! hands copies to and from the fault pump (`engine::faults`) when one is
//! installed.
//!
//! This layer moves [`Message`]s between nodes and accounts the traffic; it
//! never inspects algorithm-specific payloads. Algorithm logic lives behind
//! [`crate::protocol::Protocol`], and the message loop that ties the two
//! together is in [`crate::network::Network`].

use std::collections::VecDeque;

use cq_fasthash::FxHashMap;
use cq_overlay::{Id, NodeHandle, Ring};
use cq_relational::{subscriber_hash, Notification};

use crate::error::Result;
use crate::faults::{FaultPipe, MsgId};
use crate::indexing;
use crate::jfrt::JfrtLookup;
use crate::messages::Message;
use crate::metrics::TrafficKind;
use crate::network::Network;
use crate::protocol::{Matches, QueryCounts};
use crate::replication::ReplicaItem;
use crate::trace::TraceEvent;

/// One send as its sender describes it: the payload plus what the
/// reliable-delivery layer needs to know about it (sender, resolved
/// receiver, target identifier, and whether retransmissions re-route by
/// identifier).
pub(crate) struct Pending {
    /// Sending node (retransmissions originate here).
    pub(crate) from: NodeHandle,
    /// Resolved receiver.
    pub(crate) to: NodeHandle,
    /// The identifier the message was addressed to.
    pub(crate) target: Id,
    /// `true` for identifier-routed messages (retransmissions re-resolve the
    /// owner), `false` for node-addressed ones (direct notifications,
    /// replicas) which die with their receiver.
    pub(crate) reroute: bool,
    /// The payload.
    pub(crate) msg: Message,
    /// Hop-by-hop route captured at routing time when tracing is on
    /// (unicast sends only; multisend batch members share a fan-out tree).
    pub(crate) trace_path: Option<Vec<u32>>,
}

impl Pending {
    /// A send with no captured route.
    pub(crate) fn new(
        from: NodeHandle,
        to: NodeHandle,
        target: Id,
        reroute: bool,
        msg: Message,
    ) -> Self {
        Pending {
            from,
            to,
            target,
            reroute,
            msg,
            trace_path: None,
        }
    }
}

/// What a transport carries between two nodes: a payload and, while anybody
/// observes logical messages (a tracer, the fault pump), the identifier of
/// the first one in it — a bundle's members follow consecutively.
#[derive(Clone, Debug)]
pub(crate) struct Envelope {
    /// Sending node.
    pub(crate) from: NodeHandle,
    /// Receiving node.
    pub(crate) to: NodeHandle,
    /// `(sender, seq)` of the first logical message, if observed.
    pub(crate) id: Option<MsgId>,
    /// Whether another copy of this message may arrive too (set by the
    /// pump); only such a copy is checked against the receiver's dedup state.
    pub(crate) twin: bool,
    /// The payload.
    pub(crate) msg: Message,
}

/// The installed delivery backend: how envelopes enter the delivery
/// substrate and how they come back out in global FIFO order. Faults are not
/// a backend concern — the pump (`Network::pump`) decides what is sent and
/// when, and whatever survives its draws rides the backend like any other
/// envelope.
///
/// Dispatched by `match`, never `dyn`: the simulator's hot loop calls
/// `enqueue`/`next_delivery` once per envelope, and a vtable there would
/// defeat the batching and kernel wins the delivery path is built around.
pub(crate) enum ActiveTransport {
    /// Deterministic in-memory delivery (the default): a FIFO queue of
    /// sent-but-not-yet-handled envelopes.
    Sim(VecDeque<Envelope>),
    /// Real framed sockets over `std::net` loopback. Boxed so the enum —
    /// embedded in every `Network` — stays the size of the common variant.
    Tcp(Box<crate::transport_tcp::TcpTransport>),
}

impl ActiveTransport {
    /// Queues one envelope for delivery and returns the stream bytes it
    /// queued (`0` in memory). Infallible: a backend whose send can fail
    /// (sockets) defers the error, queues nothing, and surfaces the error
    /// from the next [`ActiveTransport::next_delivery`] call.
    #[inline]
    pub(crate) fn enqueue(&mut self, e: Envelope) -> u64 {
        match self {
            ActiveTransport::Sim(q) => {
                q.push_back(e);
                0
            }
            ActiveTransport::Tcp(t) => t.enqueue(e),
        }
    }

    /// Removes and returns the next envelope in network-global FIFO order —
    /// exactly the order they were enqueued, so the simulator and the TCP
    /// backend dispatch identical sequences for the same seed. **Never
    /// blocks**: `None` means either the queue is drained
    /// ([`ActiveTransport::is_idle`] true) or the head envelope's payload has
    /// not finished arriving yet (sockets; the drain loop calls
    /// [`ActiveTransport::poll`] and retries). Deferred send errors surface
    /// here.
    #[inline]
    pub(crate) fn next_delivery(&mut self) -> Result<Option<Envelope>> {
        match self {
            ActiveTransport::Sim(q) => Ok(q.pop_front()),
            ActiveTransport::Tcp(t) => t.next_delivery(),
        }
    }

    /// The explicit I/O progress hook: sockets flush backpressured writes,
    /// accept pending connections, and drain readable sockets. With `block`
    /// set, the call may wait (bounded) for readiness; otherwise it only
    /// services what is already ready. In-memory delivery has no I/O to
    /// progress.
    #[inline]
    pub(crate) fn poll(&mut self, block: bool) -> Result<()> {
        match self {
            ActiveTransport::Sim(_) => Ok(()),
            ActiveTransport::Tcp(t) => t.poll(block),
        }
    }

    /// Whether no envelopes are queued (sockets: no envelopes in flight on
    /// their wires either).
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        match self {
            ActiveTransport::Sim(q) => q.is_empty(),
            ActiveTransport::Tcp(t) => t.is_idle(),
        }
    }
}

// The sending half: how messages leave a node. These are inherent methods
// of `Network` operating on the transport state; they touch routing, hop
// accounting and queues only — never algorithm logic.
impl Network {
    /// Hands one send to the delivery path: onto the transport, or — under
    /// the fault pump — staged until the tick boundary, where
    /// [`Network::transmit`] puts each of its logical messages through the
    /// draws. The envelope is the same whether or not a tracer listens; the
    /// tracer is only told about the logical sends it carries.
    pub(crate) fn enqueue(&mut self, mut p: Pending) {
        // `pump` is `None` without a fault pump — and while one runs, moved
        // out. Sends made by a running pump's handlers are therefore
        // announced here *and* again at `transmit`, under the two allocators'
        // own ids and ticks. That echo predates this layout and is kept so
        // traces stay byte-identical; see ROADMAP item 8(c).
        let mut first = None;
        if self.trace_on() && self.pump.is_none() {
            let tick = self.trace_tick();
            let slot = p.from.index();
            let mut path = p.trace_path.take();
            for (target, m) in p.msg.logical(p.target) {
                let id = (slot as u32, self.trace_seq[slot]);
                self.trace_seq[slot] += 1;
                first.get_or_insert(id);
                self.trace_send(tick, id, p.to, target, m, path.take());
            }
        }
        match &mut self.staged {
            Some(staged) => staged.push(p),
            None => {
                // Without a pump, what the backend queued is what is sent:
                // its stream bytes are charged here, when they are queued.
                let kind = p.msg.kind_index();
                let bytes = self.transport.enqueue(Envelope {
                    from: p.from,
                    to: p.to,
                    id: first,
                    twin: false,
                    msg: p.msg,
                });
                self.metrics.faults.bytes_sent[kind] += bytes;
            }
        }
    }

    /// Emits the [`TraceEvent::MsgSend`] of one logical message.
    pub(crate) fn trace_send(
        &self,
        tick: u64,
        id: MsgId,
        to: NodeHandle,
        target: Id,
        msg: &Message,
        path: Option<Vec<u32>>,
    ) {
        let kind = msg.kind();
        self.trace(|| TraceEvent::MsgSend {
            tick,
            node: id.0,
            id,
            to: to.index() as u32,
            target,
            kind,
            path,
        });
    }

    /// Routes `from → id`, returning the owner and hop count — and, only
    /// when tracing is on, the materialized hop path. [`cq_overlay::Ring::route`]
    /// walks the identical greedy path as `route_owner`, so hop accounting
    /// is bit-identical whether or not the path is captured.
    fn routed_owner(
        &self,
        from: NodeHandle,
        id: Id,
    ) -> Result<(NodeHandle, usize, Option<Vec<u32>>)> {
        if self.trace_on() {
            // capacity covers a full greedy route on a 2^16-node ring plus
            // endpoints, so tracing never reallocates mid-route
            let mut path = Vec::with_capacity(18);
            let (owner, hops) = self.ring.route_owner_path(from, id, &mut path)?;
            Ok((owner, hops, Some(path)))
        } else {
            let (owner, hops) = self.ring.route_owner(from, id)?;
            Ok((owner, hops, None))
        }
    }

    /// Sends a batch of messages from `node` with the recursive multisend
    /// (Section 2.3), accounting traffic, and enqueues them at their owners.
    pub(crate) fn dispatch_from(
        &mut self,
        node: NodeHandle,
        targets: Vec<(Id, Message)>,
        kind: TrafficKind,
    ) -> Result<()> {
        if targets.is_empty() {
            return Ok(());
        }
        let count = targets.len() as u64;
        let sent = self.ring.multisend(node, targets, Message::Bundle)?;
        self.metrics.record_traffic_batch(kind, count, sent.hops);
        // Each owner's consecutive run of messages travels as one envelope:
        // the receiver unwraps a `Bundle` in order, so global dispatch order
        // is exactly the per-message order (the run would sit consecutively
        // at the queue head either way, and its handler effects join the
        // queue *behind* it).
        for (owner, first, msg) in sent {
            self.enqueue(Pending::new(node, owner, first, true, msg));
        }
        Ok(())
    }

    /// Sends one message from a rewriter toward a value-level identifier,
    /// consulting the JFRT when enabled (Section 4.7).
    pub(crate) fn send_via_jfrt(&mut self, from: NodeHandle, id: Id, msg: Message) -> Result<()> {
        let (owner, path) = if self.config.use_jfrt {
            let lookup = {
                let ring = &self.ring;
                self.nodes[from.index()]
                    .jfrt
                    .lookup(id, |h, id| ring.node(h).is_alive() && ring.owns(h, id))
            };
            match lookup {
                JfrtLookup::Hit(owner) => {
                    self.metrics.record_traffic(TrafficKind::Reindex, 1);
                    let path = self
                        .trace_on()
                        .then(|| vec![from.index() as u32, owner.index() as u32]);
                    (owner, path)
                }
                JfrtLookup::Miss => {
                    let (owner, hops, path) = self.routed_owner(from, id)?;
                    self.metrics.record_traffic(TrafficKind::Reindex, hops);
                    self.nodes[from.index()].jfrt.record(id, owner);
                    (owner, path)
                }
                JfrtLookup::Stale => {
                    // one wasted hop to the stale node, then ordinary routing
                    let (owner, hops, path) = self.routed_owner(from, id)?;
                    self.metrics.record_traffic(TrafficKind::Reindex, hops + 1);
                    self.nodes[from.index()].jfrt.record(id, owner);
                    (owner, path)
                }
            }
        } else {
            let (owner, hops, path) = self.routed_owner(from, id)?;
            self.metrics.record_traffic(TrafficKind::Reindex, hops);
            (owner, path)
        };
        let mut p = Pending::new(from, owner, id, true, msg);
        p.trace_path = path;
        self.enqueue(p);
        Ok(())
    }

    /// Enqueues a node-addressed message (direct notification or replica):
    /// the receiver is known by handle, and retransmissions never re-route.
    pub(crate) fn push_direct(&mut self, from: NodeHandle, to: NodeHandle, msg: Message) {
        let mut p = Pending::new(from, to, self.ring.id_of(to), false, msg);
        if self.trace_on() {
            // one direct hop: sender → receiver
            p.trace_path = Some(vec![from.index() as u32, to.index() as u32]);
        }
        self.enqueue(p);
    }

    /// Mirrors one freshly inserted primary item onto `at`'s `k` first alive
    /// successors (no-op when replication is off). Every primary insert
    /// passes through here while replication is on, so this is also where
    /// the item enters `at`'s anti-entropy digest index.
    pub(crate) fn replicate(&mut self, at: NodeHandle, item: ReplicaItem) {
        let k = self.repl_k();
        if k == 0 {
            return;
        }
        self.nodes[at.index()]
            .mirrored
            .insert(item.index_id(), item.digest_hash());
        let mirrors = |ring: &Ring, out: &mut Vec<_>| {
            out.extend(ring.successors_of(at, k).map(|succ| (at, succ)));
        };
        self.push_direct_each(mirrors, |net, _, succ| {
            net.metrics.faults.replica_messages += 1;
            let (tick, node, to) = (net.trace_tick(), at.index() as u32, succ.index() as u32);
            net.trace(|| TraceEvent::Replicate { tick, node, to });
            Message::Replicate {
                item: Box::new(item.clone()),
            }
        });
    }

    /// Sends `msg(net, from, to)` over each `(from, to)` pair `walk` lists,
    /// in order. The ring is walked once into a kept scratch list, since
    /// building and sending a message needs the network whole.
    pub(crate) fn push_direct_each(
        &mut self,
        walk: impl FnOnce(&Ring, &mut Vec<(NodeHandle, NodeHandle)>),
        mut msg: impl FnMut(&mut Self, NodeHandle, NodeHandle) -> Message,
    ) {
        let mut pairs = std::mem::take(&mut self.scratch.pairs);
        pairs.clear();
        walk(&self.ring, &mut pairs);
        for &(from, to) in &pairs {
            let m = msg(self, from, to);
            self.push_direct(from, to, m);
        }
        self.scratch.pairs = pairs;
    }

    /// Processes queued protocol messages until quiescence.
    pub(crate) fn process_all(&mut self) -> Result<()> {
        self.drive(false)
    }

    /// Drives delivery: drains the transport and, when a fault pump is
    /// installed, ticks it while it has protocol work due — or, with
    /// `one_tick`, through exactly one tick whether or not anything is due
    /// (how [`Network::settle`] keeps the detector's clock moving).
    pub(crate) fn drive(&mut self, one_tick: bool) -> Result<()> {
        // The pump state moves out for the duration so handlers can borrow
        // the network whole; `staged` stays behind to catch their sends.
        let mut pipe = self.pump.take();
        let result = self.drain(pipe.as_deref_mut(), one_tick);
        self.pump = pipe;
        result
    }

    /// The one drain loop. Every envelope — a perfect-path send, or a copy
    /// that survived the pump's draws — comes back off the installed backend
    /// here, in the order it went on.
    fn drain(&mut self, mut pipe: Option<&mut FaultPipe>, one_tick: bool) -> Result<()> {
        let mut ticked = false;
        loop {
            // Opportunistically service ready sockets (no-op for the
            // simulator) so frames drain even while envelopes are ready.
            self.transport.poll(false)?;
            while let Some(e) = self.transport.next_delivery()? {
                match pipe.as_deref_mut() {
                    Some(pipe) => self.arrive(pipe, e)?,
                    None => self.deliver(e)?,
                }
            }
            if !self.transport.is_idle() {
                // Envelopes are outstanding but the head frame has not
                // arrived: block (bounded) for socket readiness and retry.
                // The backend's stall timeout turns a lost frame into a
                // typed error instead of an infinite wait.
                self.transport.poll(true)?;
                continue;
            }
            let Some(pipe) = pipe.as_deref_mut() else {
                return Ok(());
            };
            if !self.pump_step(pipe, one_tick, &mut ticked)? {
                return Ok(());
            }
        }
    }

    /// Dispatches the logical messages of one delivered envelope in order,
    /// announcing each to the tracer when the envelope carries identifiers.
    fn deliver(&mut self, e: Envelope) -> Result<()> {
        let (to, mut id) = (e.to, e.id);
        for m in e.msg.into_members() {
            if let Some((sender, seq)) = id {
                let (tick, node, kind) = (self.trace_tick(), to.index() as u32, m.kind());
                self.trace(|| TraceEvent::MsgDeliver {
                    tick,
                    node,
                    id: (sender, seq),
                    kind,
                });
                id = Some((sender, seq + 1));
            }
            self.dispatch(to, m)?;
        }
        Ok(())
    }

    /// Delivers accumulated join matches to their subscribers (Section 4.6).
    pub(crate) fn deliver_matches(&mut self, from: NodeHandle, matches: Matches) -> Result<()> {
        match matches {
            Matches::Full(notifications) => self.deliver_notifications(from, notifications),
            Matches::Counts(counts) => {
                let delivered = self.deliver_counts(from, &counts);
                self.scratch.recycle(counts);
                delivered
            }
        }
    }

    /// Counts-mode delivery, one batch per subscriber. It sends no real
    /// messages, so it is accounted here: a count is *delivered* only to an
    /// online subscriber, else only `notifications_stored_offline`, as the
    /// full-retention path stores but reaches no inbox (DESIGN.md, "Fault
    /// model").
    #[doc(hidden)]
    pub fn deliver_counts(&mut self, from: NodeHandle, counts: &QueryCounts) -> Result<()> {
        for (subscriber, hash, &(count, _)) in counts.slots.iter() {
            let (at, offline) = match self.subscribers.get(hash, subscriber) {
                Some(&h) if self.ring.node(h).is_alive() => {
                    self.metrics.notifications_delivered += count;
                    self.metrics.record_traffic(TrafficKind::Notify, 1);
                    (h, false)
                }
                _ => {
                    self.metrics.notifications_stored_offline += count;
                    let id = indexing::subscriber_id(self.ring.space(), subscriber);
                    let (owner, hops) = self.ring.route_owner(from, id)?;
                    self.metrics.record_traffic(TrafficKind::Notify, hops);
                    (owner, true)
                }
            };
            let (tick, node) = (self.trace_tick(), at.index() as u32);
            self.trace(|| TraceEvent::NotifyDelivered {
                tick,
                node,
                count,
                offline,
            });
        }
        Ok(())
    }

    /// Full-retention delivery: every batch becomes a real protocol message
    /// ([`Message::Notify`] for online subscribers, routed
    /// [`Message::StoreNotifications`] otherwise), so the fault layer can
    /// lose, duplicate and retransmit deliveries like any other traffic.
    /// `notifications_delivered` is counted by the receiving handlers — at
    /// actual inbox/offline-store arrival — fixing the old skew where sends
    /// were counted before (or without) storage happening.
    fn deliver_notifications(
        &mut self,
        from: NodeHandle,
        notifications: Vec<Notification>,
    ) -> Result<()> {
        if notifications.is_empty() {
            return Ok(());
        }
        // Group notifications per receiver into one message.
        let mut by_subscriber: FxHashMap<String, Vec<Notification>> = FxHashMap::default();
        for n in notifications {
            by_subscriber
                .entry(n.subscriber.clone())
                .or_default()
                .push(n);
        }
        for (subscriber, batch) in by_subscriber {
            match self
                .subscribers
                .get(subscriber_hash(&subscriber), &subscriber)
            {
                Some(&h) if self.ring.node(h).is_alive() => {
                    // Online at a known IP: one direct hop.
                    self.metrics.record_traffic(TrafficKind::Notify, 1);
                    self.push_direct(
                        from,
                        h,
                        Message::Notify {
                            notifications: batch,
                        },
                    );
                }
                _ => {
                    // Offline: route toward Successor(Id(n)) and store there.
                    let id = indexing::subscriber_id(self.ring.space(), &subscriber);
                    let (owner, hops, path) = self.routed_owner(from, id)?;
                    self.metrics.record_traffic(TrafficKind::Notify, hops);
                    let mut p = Pending::new(
                        from,
                        owner,
                        id,
                        true,
                        Message::StoreNotifications {
                            subscriber_id: id,
                            notifications: batch,
                        },
                    );
                    p.trace_path = path;
                    self.enqueue(p);
                }
            }
        }
        Ok(())
    }
}
