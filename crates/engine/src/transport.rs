//! The transport layer: message queues, multisend routing, JFRT-assisted
//! sends, the fault-injection pump with reliable delivery, and k-successor
//! replica mirroring.
//!
//! This layer moves [`Message`]s between nodes and accounts the traffic; it
//! never inspects algorithm-specific payloads. Algorithm logic lives behind
//! [`crate::protocol::Protocol`], and the message loop that ties the two
//! together is in [`crate::network::Network`].

use std::collections::VecDeque;

use cq_fasthash::FxHashMap;
use cq_overlay::{Id, NodeHandle};
use cq_relational::Notification;
use rand::Rng;

use crate::error::Result;
use crate::faults::{ChurnModel, Delivery, FaultPipe, MsgId};
use crate::indexing;
use crate::jfrt::JfrtLookup;
use crate::messages::Message;
use crate::metrics::TrafficKind;
use crate::network::Network;
use crate::protocol::Matches;
use crate::replication::ReplicaItem;
use crate::trace::TraceEvent;
use crate::wire;

/// One enqueued protocol message: the payload plus the transport envelope
/// the reliable-delivery layer needs (sender, resolved receiver, target
/// identifier, and whether retransmissions re-route by identifier).
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
    /// Trace identifier assigned at enqueue on the perfect-delivery path
    /// (the fault pipe allocates its own in `transmit`). Always `None` when
    /// tracing is off.
    pub(crate) trace_id: Option<MsgId>,
    /// Hop-by-hop route captured at routing time when tracing is on
    /// (unicast sends only; multisend batch members share a fan-out tree).
    pub(crate) trace_path: Option<Vec<u32>>,
}

impl Pending {
    /// An envelope with tracing fields unset (the enqueue path fills them).
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
            trace_id: None,
            trace_path: None,
        }
    }
}

/// The transport abstraction every backend implements: how envelopes enter
/// the delivery substrate, how they come back out in global FIFO order, and
/// the hooks the fault-injection / reliable-delivery pump needs.
///
/// Backends are selected by **enum dispatch** through [`ActiveTransport`]
/// (never `dyn`): the simulator's hot loop calls `enqueue`/`next_delivery`
/// once per protocol message, and a vtable there would defeat the batching
/// and kernel wins the delivery path is built around.
///
/// The contract `Network` relies on:
///
/// * `enqueue` is infallible — a backend whose send can fail (sockets)
///   defers the error and surfaces it from the next `next_delivery` call.
/// * `next_delivery` yields envelopes in exactly the order they were
///   enqueued, network-wide. The deterministic simulator and the TCP
///   backend therefore dispatch identical sequences for the same seed.
/// * The fault-pipe hooks (`take_pipe`/`restore_pipe`/`has_pipe`) expose
///   the optional reliable-delivery pump state. Only [`SimTransport`]
///   carries a pipe; backends without one return `None`/`false`, and the
///   pump paths are never entered for them.
pub(crate) trait Transport {
    /// Queues one envelope for delivery. Must not fail: backends with
    /// fallible sends record the error and report it from
    /// [`Transport::next_delivery`].
    fn enqueue(&mut self, p: Pending);

    /// Removes and returns the next envelope in network-global FIFO order.
    /// **Never blocks**: `None` means either the queue is drained
    /// ([`Transport::is_idle`] true) or the head envelope's payload has not
    /// finished arriving yet (socket backends; the driver calls
    /// [`Transport::poll`] and retries). Deferred send errors surface here.
    fn next_delivery(&mut self) -> Result<Option<Pending>>;

    /// The explicit I/O progress hook: socket backends flush backpressured
    /// writes, accept pending connections, and drain readable sockets. With
    /// `block` set, the call may wait (bounded) for readiness; otherwise it
    /// only services what is already ready. A no-op for in-memory backends.
    fn poll(&mut self, block: bool) -> Result<()>;

    /// Whether no envelopes are queued (socket backends: no envelopes in
    /// flight on their wires either).
    fn is_idle(&self) -> bool;

    /// Detaches the fault-injection + reliable-delivery pipe so the pump
    /// can run against `&mut Network`. `None` when the backend has no pipe.
    fn take_pipe(&mut self) -> Option<Box<FaultPipe>>;

    /// Reattaches a pipe detached by [`Transport::take_pipe`].
    fn restore_pipe(&mut self, pipe: Box<FaultPipe>);

    /// Whether a fault pipe is installed (drives the trace-id allocation
    /// and bundle-coalescing gates).
    fn has_pipe(&self) -> bool;

    /// Drains the backend's per-message-kind wire-byte counters, indexed
    /// like [`Message::KINDS`]. `None` for backends that don't serialize
    /// (the simulator accounts wire bytes in the fault pump instead).
    fn take_wire_bytes(&mut self) -> Option<[u64; 11]>;

    /// Drains the backend's aggregate socket statistics (syscalls, bytes,
    /// frames, backpressure, buffer-pool hit rate). `None` for backends
    /// that never touch a socket.
    fn take_socket_stats(&mut self) -> Option<crate::transport_tcp::SocketStats>;
}

/// The deterministic in-memory backend: a FIFO queue of envelopes and the
/// optional fault-injection pipe. This is the seed engine's transport,
/// unchanged in behavior, now behind the [`Transport`] trait.
pub(crate) struct SimTransport {
    /// FIFO queue of sent-but-not-yet-handled messages.
    pending: VecDeque<Pending>,
    /// The fault-injection + reliable-delivery pipe; `None` when message
    /// delivery is perfect (the default), in which case `pending` is
    /// drained FIFO exactly as the original engine did.
    pipe: Option<Box<FaultPipe>>,
}

impl SimTransport {
    /// Perfect-delivery transport (`pipe` installed at construction when
    /// faults are configured).
    pub(crate) fn new(pipe: Option<Box<FaultPipe>>) -> Self {
        SimTransport {
            pending: VecDeque::new(),
            pipe,
        }
    }
}

impl Transport for SimTransport {
    #[inline]
    fn enqueue(&mut self, p: Pending) {
        self.pending.push_back(p);
    }

    #[inline]
    fn next_delivery(&mut self) -> Result<Option<Pending>> {
        Ok(self.pending.pop_front())
    }

    #[inline]
    fn poll(&mut self, _block: bool) -> Result<()> {
        Ok(()) // in-memory delivery has no I/O to progress
    }

    #[inline]
    fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    fn take_pipe(&mut self) -> Option<Box<FaultPipe>> {
        self.pipe.take()
    }

    fn restore_pipe(&mut self, pipe: Box<FaultPipe>) {
        self.pipe = Some(pipe);
    }

    #[inline]
    fn has_pipe(&self) -> bool {
        self.pipe.is_some()
    }

    fn take_wire_bytes(&mut self) -> Option<[u64; 11]> {
        None
    }

    fn take_socket_stats(&mut self) -> Option<crate::transport_tcp::SocketStats> {
        None
    }
}

/// The installed transport backend, dispatched by enum match so every call
/// is a direct (inlinable) branch rather than a vtable jump.
pub(crate) enum ActiveTransport {
    /// Deterministic in-memory delivery (the default).
    Sim(SimTransport),
    /// Real framed sockets over `std::net` loopback. Boxed so the enum —
    /// embedded in every `Network` — stays the size of the common variant.
    Tcp(Box<crate::transport_tcp::TcpTransport>),
}

impl Transport for ActiveTransport {
    #[inline]
    fn enqueue(&mut self, p: Pending) {
        match self {
            ActiveTransport::Sim(t) => t.enqueue(p),
            ActiveTransport::Tcp(t) => t.enqueue(p),
        }
    }

    #[inline]
    fn next_delivery(&mut self) -> Result<Option<Pending>> {
        match self {
            ActiveTransport::Sim(t) => t.next_delivery(),
            ActiveTransport::Tcp(t) => t.next_delivery(),
        }
    }

    #[inline]
    fn poll(&mut self, block: bool) -> Result<()> {
        match self {
            ActiveTransport::Sim(t) => t.poll(block),
            ActiveTransport::Tcp(t) => t.poll(block),
        }
    }

    #[inline]
    fn is_idle(&self) -> bool {
        match self {
            ActiveTransport::Sim(t) => t.is_idle(),
            ActiveTransport::Tcp(t) => t.is_idle(),
        }
    }

    fn take_pipe(&mut self) -> Option<Box<FaultPipe>> {
        match self {
            ActiveTransport::Sim(t) => t.take_pipe(),
            ActiveTransport::Tcp(t) => t.take_pipe(),
        }
    }

    fn restore_pipe(&mut self, pipe: Box<FaultPipe>) {
        match self {
            ActiveTransport::Sim(t) => t.restore_pipe(pipe),
            ActiveTransport::Tcp(t) => t.restore_pipe(pipe),
        }
    }

    #[inline]
    fn has_pipe(&self) -> bool {
        match self {
            ActiveTransport::Sim(t) => t.has_pipe(),
            ActiveTransport::Tcp(t) => t.has_pipe(),
        }
    }

    fn take_wire_bytes(&mut self) -> Option<[u64; 11]> {
        match self {
            ActiveTransport::Sim(t) => t.take_wire_bytes(),
            ActiveTransport::Tcp(t) => t.take_wire_bytes(),
        }
    }

    fn take_socket_stats(&mut self) -> Option<crate::transport_tcp::SocketStats> {
        match self {
            ActiveTransport::Sim(t) => t.take_socket_stats(),
            ActiveTransport::Tcp(t) => t.take_socket_stats(),
        }
    }
}

// The sending half: how messages leave a node. These are inherent methods
// of `Network` operating on the transport state; they touch routing, hop
// accounting and queues only — never algorithm logic.
impl Network {
    /// Queues one envelope. On the perfect-delivery path with tracing on,
    /// this is where the send becomes observable: a trace [`MsgId`] is
    /// allocated and a [`TraceEvent::MsgSend`] emitted (the fault pipe path
    /// defers both to `transmit`, which owns the real sequence allocator).
    pub(crate) fn enqueue(&mut self, mut p: Pending) {
        if self.trace_on() && !self.transport.has_pipe() {
            let slot = p.from.index();
            if slot >= self.trace_seq.len() {
                self.trace_seq.resize(slot + 1, 0);
            }
            let id = (slot as u32, self.trace_seq[slot]);
            self.trace_seq[slot] += 1;
            p.trace_id = Some(id);
            let path = p.trace_path.take();
            let (tick, to, target, kind) = (self.trace_tick(), p.to, p.target, p.msg.kind());
            self.trace(|| TraceEvent::MsgSend {
                tick,
                node: slot as u32,
                id,
                to: to.index() as u32,
                target,
                kind,
                path,
            });
        }
        self.transport.enqueue(p);
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
    /// Sends a batch of messages from `node` using the configured multisend
    /// design, accounting traffic, and enqueues them at their owners.
    pub(crate) fn dispatch_from(
        &mut self,
        node: NodeHandle,
        targets: Vec<(Id, Message)>,
        kind: TrafficKind,
    ) -> Result<()> {
        if targets.is_empty() {
            return Ok(());
        }
        let ids: Vec<Id> = targets.iter().map(|(id, _)| *id).collect();
        let outcome = if self.config.recursive_multisend {
            self.ring.multisend_recursive(node, &ids)?
        } else {
            self.ring.multisend_iterative(node, &ids)?
        };
        self.metrics
            .record_traffic_batch(kind, targets.len() as u64, outcome.total_hops);
        let mut by_id: FxHashMap<Id, Vec<Message>> =
            FxHashMap::with_capacity_and_hasher(targets.len(), Default::default());
        for (id, msg) in targets {
            by_id.entry(id).or_default().push(msg);
        }
        // On the perfect-delivery, untraced path, coalesce each delivery
        // entry's consecutive run of messages into one `Bundle` envelope:
        // the receiver unwraps in order, so global dispatch order is exactly
        // the per-message order (the run sat consecutively at the queue head
        // either way, and its handler effects join the queue *behind* it).
        // The fault pipe must see logical messages individually (its RNG
        // draws are per transmission) and the tracer emits one `MsgSend` per
        // message, so both paths keep per-message enqueues.
        let bundle = self.config.batch_delivery && !self.transport.has_pipe() && !self.trace_on();
        for (owner, ids) in outcome.deliveries {
            if bundle {
                let mut run: Vec<Message> = Vec::new();
                let first = ids[0];
                for id in ids {
                    run.extend(by_id.remove(&id).into_iter().flatten());
                }
                match run.len() {
                    0 => {}
                    1 => {
                        // Invariant: the match arm guarantees exactly one element.
                        let msg = run.pop().expect("len checked");
                        self.enqueue(Pending::new(node, owner, first, true, msg));
                    }
                    _ => {
                        self.enqueue(Pending::new(node, owner, first, true, Message::Bundle(run)));
                    }
                }
            } else {
                for id in ids {
                    for msg in by_id.remove(&id).into_iter().flatten() {
                        self.enqueue(Pending::new(node, owner, id, true, msg));
                    }
                }
            }
        }
        debug_assert!(by_id.is_empty(), "every target id must be delivered");
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
                JfrtLookup::Stale(_) => {
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
        for succ in self.ring.successors_of(at, k) {
            self.metrics.faults.replica_messages += 1;
            let (tick, node, to) = (self.trace_tick(), at.index() as u32, succ.index() as u32);
            self.trace(|| TraceEvent::Replicate { tick, node, to });
            self.push_direct(
                at,
                succ,
                Message::Replicate {
                    item: Box::new(item.clone()),
                },
            );
        }
    }

    /// Processes queued protocol messages until quiescence — through the
    /// perfect FIFO queue by default, or through the fault-injection pipe
    /// when one is configured.
    pub(crate) fn process_all(&mut self) -> Result<()> {
        if self.transport.has_pipe() {
            // Invariant: has_pipe() held on the previous line; take-and-restore
            // releases the &mut self borrow for the pump loop below.
            let mut pipe = self.transport.take_pipe().expect("checked above");
            let result = self.pump_faulty(&mut pipe);
            self.transport.restore_pipe(pipe);
            result
        } else {
            loop {
                // Opportunistically service ready sockets (no-op for the
                // simulator) so frames drain even while envelopes are ready.
                self.transport.poll(false)?;
                while let Some(p) = self.transport.next_delivery()? {
                    if let Some(id) = p.trace_id {
                        let (tick, node, kind) =
                            (self.trace_tick(), p.to.index() as u32, p.msg.kind());
                        self.trace(|| TraceEvent::MsgDeliver {
                            tick,
                            node,
                            id,
                            kind,
                        });
                    }
                    self.dispatch(p.to, p.msg)?;
                }
                if self.transport.is_idle() {
                    break;
                }
                // Envelopes are outstanding but the head frame has not
                // arrived: block (bounded) for socket readiness and retry.
                // The backend's stall timeout turns a lost frame into a
                // typed error instead of an infinite wait.
                self.transport.poll(true)?;
            }
            // Socket backends count real frame bytes as they write; fold
            // whatever this drain produced into the per-kind counters.
            if let Some(bytes) = self.transport.take_wire_bytes() {
                for (kind, b) in bytes.into_iter().enumerate() {
                    self.metrics.faults.bytes_sent[kind] += b;
                }
            }
            Ok(())
        }
    }

    /// The tick-based message pump used when faults are injected: sends pass
    /// through loss/duplication/delay draws, receivers dedup on `(sender,
    /// seq)`, unacknowledged messages retransmit with exponential backoff,
    /// and abrupt node failures strike between ticks.
    fn pump_faulty(&mut self, pipe: &mut FaultPipe) -> Result<()> {
        loop {
            // Fold freshly produced sends into the pipe (handlers and
            // promotions push onto the queue).
            while let Some(p) = self.transport.next_delivery()? {
                self.transmit(pipe, p);
            }
            if !pipe.busy() {
                // In-flight heartbeat probes may remain; they deliver
                // passively on ticks later work (or `Network::settle`)
                // forces.
                return Ok(());
            }
            self.pump_tick(pipe)?;
        }
    }

    /// One pump tick: advance the clock, inject failures, run the failure
    /// detector, deliver this tick's arrivals, fire retry checks. Also
    /// driven directly by [`Network::settle`] when the detector must make
    /// progress without protocol traffic.
    pub(crate) fn pump_tick(&mut self, pipe: &mut FaultPipe) -> Result<()> {
        pipe.tick += 1;
        self.inject_failures(pipe)?;
        self.recovery_tick(pipe)?;
        let now = pipe.tick;
        let batch = pipe.in_flight.remove(&now).unwrap_or_default();
        pipe.note_removed(&batch);
        for delivery in batch {
            match delivery {
                Delivery::Data { id, to, msg } => {
                    let node = to.index() as u32;
                    if !self.ring.node(to).is_alive() {
                        self.metrics.faults.messages_lost += 1;
                        // A non-probe message swallowed by a failed-but-
                        // undetected receiver is the recovery blind spot.
                        let probe = matches!(msg, Message::Ping { .. } | Message::Pong { .. });
                        if !probe
                            && self
                                .recovery
                                .as_ref()
                                .is_some_and(|r| r.undetected.contains_key(&node))
                        {
                            self.metrics.recovery.lost_in_detection_window += 1;
                            if matches!(
                                msg,
                                Message::Notify { .. } | Message::StoreNotifications { .. }
                            ) {
                                self.metrics.recovery.notifications_lost_in_window += 1;
                            }
                        }
                        self.trace(|| TraceEvent::FaultDrop {
                            tick: now,
                            node,
                            id,
                        });
                        continue;
                    }
                    if pipe.record_arrival(id, to) {
                        self.metrics.faults.dedup_suppressed += 1;
                        self.trace(|| TraceEvent::DedupSuppressed {
                            tick: now,
                            node,
                            id,
                        });
                    } else {
                        let kind = msg.kind();
                        self.trace(|| TraceEvent::MsgDeliver {
                            tick: now,
                            node,
                            id,
                            kind,
                        });
                        self.dispatch(to, msg)?;
                    }
                    // Ack every arrival (a duplicate usually means the
                    // previous ack was lost). Acks are subject to loss
                    // like any transmission. Probes never have an
                    // outstanding window, so they are never acked.
                    if pipe.cfg.retries_enabled() {
                        if let Some(o) = pipe.outstanding.get(&id) {
                            let sender = o.from;
                            if pipe.cfg.loss_rate > 0.0
                                && pipe.rng.gen::<f64>() < pipe.cfg.loss_rate
                            {
                                self.metrics.faults.messages_lost += 1;
                                self.trace(|| TraceEvent::FaultDrop {
                                    tick: now,
                                    node: sender.index() as u32,
                                    id,
                                });
                            } else {
                                pipe.schedule(now + 1, Delivery::Ack { id, to: sender });
                            }
                        }
                    }
                }
                Delivery::Ack { id, to } => {
                    // An ack addressed to a node that died in flight
                    // never closes the window; `maybe_retransmit` drops
                    // the dead sender's window on its next firing.
                    if self.ring.node(to).is_alive() {
                        pipe.outstanding.remove(&id);
                    }
                }
            }
        }
        for id in pipe.retry_at.remove(&now).unwrap_or_default() {
            self.maybe_retransmit(pipe, id, now);
        }
        Ok(())
    }

    /// Registers one fresh send with the pipe: assigns a `(sender, seq)`
    /// identifier, opens the ack window when retries are enabled, and
    /// schedules the transmission copies through the fault draws.
    pub(crate) fn transmit(&mut self, pipe: &mut FaultPipe, mut p: Pending) {
        let id = pipe.alloc_seq(p.from);
        // Exact wire cost of this transmission (acks are not payload frames
        // and are not counted). Only the fault pump pays for serialization
        // sizing; the perfect-delivery path never reaches here.
        self.metrics.faults.bytes_sent[p.msg.kind_index()] += wire::encoded_len(&p.msg);
        if self.trace_on() {
            let path = p.trace_path.take();
            let (tick, to, target, kind) = (pipe.tick, p.to, p.target, p.msg.kind());
            let node = p.from.index() as u32;
            self.trace(|| TraceEvent::MsgSend {
                tick,
                node,
                id,
                to: to.index() as u32,
                target,
                kind,
                path,
            });
        }
        // Heartbeat probes are fire-and-forget: no ack window, no
        // retransmission — an unanswered probe *is* the detector's signal.
        let probe = matches!(p.msg, Message::Ping { .. } | Message::Pong { .. });
        if pipe.cfg.retries_enabled() && !probe {
            pipe.open_window(id, &p.from, p.target, p.reroute, &p.to, &p.msg);
            pipe.schedule_retry(pipe.tick + pipe.cfg.ack_timeout, id);
        }
        self.schedule_copies(pipe, id, p.to, p.msg);
    }

    /// Draws duplication, loss and delay for one logical transmission and
    /// schedules the surviving copies.
    fn schedule_copies(&mut self, pipe: &mut FaultPipe, id: MsgId, to: NodeHandle, msg: Message) {
        let node = to.index() as u32;
        let mut copies = 1u32;
        if pipe.cfg.duplicate_rate > 0.0 && pipe.rng.gen::<f64>() < pipe.cfg.duplicate_rate {
            copies = 2;
            self.metrics.faults.messages_duplicated += 1;
            let tick = pipe.tick;
            self.trace(|| TraceEvent::FaultDuplicate { tick, node, id });
        }
        // The last copy carries the payload itself; only a surviving first
        // copy of a duplicated transmission clones it.
        let mut msg = Some(msg);
        for copy in 0..copies {
            if pipe.cfg.loss_rate > 0.0 && pipe.rng.gen::<f64>() < pipe.cfg.loss_rate {
                self.metrics.faults.messages_lost += 1;
                let tick = pipe.tick;
                self.trace(|| TraceEvent::FaultDrop { tick, node, id });
                continue;
            }
            let mut at = pipe.tick + 1;
            if pipe.cfg.delay_rate > 0.0
                && pipe.cfg.max_delay > 0
                && pipe.rng.gen::<f64>() < pipe.cfg.delay_rate
            {
                at += pipe.rng.gen_range(1..=pipe.cfg.max_delay);
            }
            if at > pipe.tick + 1 {
                let (tick, extra) = (pipe.tick, at - pipe.tick - 1);
                self.trace(|| TraceEvent::FaultDelay {
                    tick,
                    node,
                    id,
                    extra,
                });
            }
            let payload = if copy + 1 == copies {
                msg.take()
            } else {
                msg.clone()
            };
            // Invariant: only the final iteration takes the payload.
            let msg = payload.expect("payload outlives every copy but the last");
            pipe.schedule(at, Delivery::Data { id, to, msg });
        }
    }

    /// A retry check fired for `id`: if the message is still unacknowledged,
    /// retransmit it (re-resolving the owner for identifier-routed messages)
    /// and schedule the next check with exponential backoff.
    fn maybe_retransmit(&mut self, pipe: &mut FaultPipe, id: MsgId, now: u64) {
        let Some(mut o) = pipe.take_outstanding(id) else {
            return; // acknowledged in the meantime
        };
        if !self.ring.node(o.from).is_alive() || o.attempt >= pipe.cfg.max_retries {
            return; // sender died, or we give up
        }
        o.attempt += 1;
        let next = now + pipe.backoff(o.attempt);
        if o.reroute {
            match self.ring.route_owner(o.from, o.target) {
                Ok((owner, hops)) => {
                    o.to = owner;
                    self.metrics.faults.retransmission_hops += hops as u64;
                }
                Err(_) => {
                    // The overlay is mid-repair; keep the window open and
                    // try again after the backoff.
                    pipe.reopen_window(id, o);
                    pipe.schedule_retry(next, id);
                    return;
                }
            }
        } else {
            if !self.ring.node(o.to).is_alive() {
                return; // node-addressed and the receiver is gone
            }
            self.metrics.faults.retransmission_hops += 1;
        }
        self.metrics.faults.retransmissions += 1;
        self.metrics.faults.bytes_sent[o.msg.kind_index()] += wire::encoded_len(&o.msg);
        let (node, attempt) = (o.from.index() as u32, o.attempt);
        self.trace(|| TraceEvent::Retransmit {
            tick: now,
            node,
            id,
            attempt,
        });
        self.schedule_copies(pipe, id, o.to, o.msg.clone());
        pipe.reopen_window(id, o);
        pipe.schedule_retry(next, id);
    }

    /// Injects scheduled and rate-driven abrupt node failures for the
    /// current tick, then repairs pointers and promotes replicas.
    fn inject_failures(&mut self, pipe: &mut FaultPipe) -> Result<()> {
        let mut failed = false;
        while pipe.sched_idx < pipe.cfg.scheduled_failures.len()
            && pipe.cfg.scheduled_failures[pipe.sched_idx] <= pipe.tick
        {
            pipe.sched_idx += 1;
            failed |= self.fail_random_alive(pipe);
        }
        if pipe.cfg.failure_rate > 0.0
            && pipe.failures_injected < pipe.cfg.max_failures
            && pipe.rng.gen::<f64>() < pipe.cfg.failure_rate
            && self.fail_random_alive(pipe)
        {
            pipe.failures_injected += 1;
            failed = true;
        }
        // Empirical churn: sessions sampled at pipe construction expire.
        if let ChurnModel::Empirical { max_events, .. } = &pipe.cfg.churn {
            let max_events = *max_events;
            let mut due = pipe.session_ends.split_off(&(pipe.tick + 1));
            std::mem::swap(&mut due, &mut pipe.session_ends);
            for slot in due.into_values().flatten() {
                if pipe.churn_events >= max_events || self.ring.len() <= 1 {
                    break;
                }
                let h = NodeHandle::from_index(slot as usize);
                if !self.ring.node(h).is_alive() {
                    continue;
                }
                if self.fail_node_state(h).is_ok() {
                    pipe.churn_events += 1;
                    failed = true;
                }
            }
        }
        // Without a detector, failures are repaired with oracle knowledge
        // on the very tick they happen — the seed behavior. With one, the
        // suspicion state machine must *discover* them first.
        if failed && !self.recovery_active() {
            self.ring.stabilize_all(1);
            self.promote_replicas()?;
        }
        Ok(())
    }

    /// Abruptly fails one pseudo-random alive node (never the last one).
    /// Returns whether a node was failed.
    fn fail_random_alive(&mut self, pipe: &mut FaultPipe) -> bool {
        if self.ring.len() <= 1 {
            return false;
        }
        let i = pipe.rng.gen_range(0..self.ring.len());
        // Invariant: gen_range draws below ring.len(), and the early return
        // above guarantees at least one alive node remains.
        let victim = self.ring.alive_nodes().nth(i).expect("index in range");
        self.fail_node_state(victim).is_ok()
    }

    /// Delivers accumulated join matches to their subscribers (Section 4.6).
    pub(crate) fn deliver_matches(&mut self, from: NodeHandle, matches: Matches) -> Result<()> {
        match matches {
            Matches::Full(notifications) => self.deliver_notifications(from, notifications),
            Matches::Counts(counts) => {
                // Counts mode sends no real messages, so delivery is
                // accounted here. A count only counts as *delivered* when
                // the subscriber is online to receive it; offline counts are
                // `notifications_stored_offline` only — mirroring the
                // full-retention path, where a store happens but no inbox
                // delivery (see DESIGN.md, "Fault model").
                for (subscriber, count) in counts {
                    if count == 0 {
                        continue;
                    }
                    match self.subscribers.get(&subscriber) {
                        Some(&h) if self.ring.node(h).is_alive() => {
                            self.metrics.notifications_delivered += count;
                            self.metrics.record_traffic(TrafficKind::Notify, 1);
                            let (tick, node) = (self.trace_tick(), h.index() as u32);
                            self.trace(|| TraceEvent::NotifyDelivered {
                                tick,
                                node,
                                count,
                                offline: false,
                            });
                        }
                        _ => {
                            self.metrics.notifications_stored_offline += count;
                            let id = indexing::subscriber_id(self.ring.space(), &subscriber);
                            let (owner, hops) = self.ring.route_owner(from, id)?;
                            self.metrics.record_traffic(TrafficKind::Notify, hops);
                            let (tick, node) = (self.trace_tick(), owner.index() as u32);
                            self.trace(|| TraceEvent::NotifyDelivered {
                                tick,
                                node,
                                count,
                                offline: true,
                            });
                        }
                    }
                }
                Ok(())
            }
        }
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
            match self.subscribers.get(&subscriber) {
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
