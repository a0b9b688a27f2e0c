//! The orchestration layer: the simulated continuous-query network.
//!
//! [`Network`] ties the other two layers together (see `DESIGN.md` and
//! [`crate::protocol`]): external events (posing a query, inserting a
//! tuple) and dequeued protocol messages are handed to the configured
//! [`Protocol`]'s handlers, whose deferred [`Effect`]s are flushed back
//! into the transport layer (`engine::transport`) after each handler
//! returns. Messages are processed FIFO until the network is quiescent;
//! routing walks the real finger tables so hop counts are faithful.
//!
//! This module contains no algorithm-specific logic: the only messages it
//! handles inline are storage-level ones (query indexing, notification
//! storage, replica mirroring) that behave identically under every
//! algorithm.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use cq_fasthash::NameTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cq_overlay::{NodeHandle, Ring};
use cq_relational::{
    parse_query, Catalog, Notification, QueryKey, QueryRef, Timestamp, Tuple, Value,
};

use crate::algo;
use crate::config::EngineConfig;
use crate::error::{EngineError, Result};
use crate::faults::FaultPipe;
use crate::messages::Message;
use crate::metrics::Metrics;
use crate::node::NodeState;
use crate::protocol::{Effect, EffectCtx, NodeCtx, Protocol, Scratch};
use crate::recovery::Recovery;
use crate::replication::ReplicaItem;
use crate::tables::StoredQuery;
use crate::trace::{TraceEvent, TraceSink};
use crate::transport::{ActiveTransport, Pending};
use crate::transport_tcp::{SocketStats, TcpOptions, TcpTransport};

/// The whole simulated network.
pub struct Network {
    pub(crate) config: EngineConfig,
    catalog: Catalog,
    pub(crate) ring: Ring,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) metrics: Metrics,
    clock: Timestamp,
    seq: u64,
    rng: StdRng,
    /// The evaluation algorithm, behind the [`Protocol`] trait. A `'static`
    /// borrow, so a handler invocation can borrow the network mutably
    /// alongside it.
    protocol: &'static dyn Protocol,
    /// Reusable effect buffer handlers push into (drained after each
    /// handler, kept allocated across invocations).
    outbox: Vec<Effect>,
    /// Reusable handler buffers (value keys, the counts accumulator),
    /// threaded into each [`NodeCtx`] so kernels work without allocating.
    pub(crate) scratch: Scratch,
    /// The installed transport backend: the deterministic in-memory queue
    /// by default, or framed TCP loopback sockets after
    /// [`Network::enable_tcp_transport`].
    pub(crate) transport: ActiveTransport,
    /// The trace sink; `None` (the default) keeps every emission site a
    /// single untaken branch, so the hot path is unchanged.
    pub(crate) tracer: Option<Arc<dyn TraceSink>>,
    /// Per-slot send counters backing the trace [`MsgId`]s allocated at
    /// enqueue (the fault pump allocates its own at transmit).
    ///
    /// [`MsgId`]: crate::faults::MsgId
    pub(crate) trace_seq: Vec<u64>,
    /// The fault-injection + reliable-delivery pump; `None` when message
    /// delivery is perfect (the default). Moved out while it runs.
    pub(crate) pump: Option<Box<FaultPipe>>,
    /// Fresh sends awaiting their fault draws at the next tick boundary.
    /// `Some` exactly when a pump is installed — and it stays in place while
    /// `pump` is moved out, which is how a handler's sends find it.
    pub(crate) staged: Option<Vec<Pending>>,
    /// The in-protocol failure detector (`engine::recovery`); `None` (the
    /// default) leaves failure handling to oracle `stabilize` calls.
    pub(crate) recovery: Option<Box<Recovery>>,
    /// `Key(n) → handle` for notification delivery, found by
    /// [`cq_relational::subscriber_hash`].
    pub(crate) subscribers: NameTable<NodeHandle>,
    /// Log of every posed query (for oracles and tests).
    posed_queries: Vec<QueryRef>,
    /// Log of every inserted tuple (for oracles and tests).
    inserted_tuples: Vec<Arc<Tuple>>,
}

impl Network {
    /// Builds a stable network of `config.nodes` nodes running the
    /// algorithm named by `config.algorithm`.
    ///
    /// # Panics
    ///
    /// If `config.nodes` is zero: a network needs at least one node.
    pub fn new(config: EngineConfig, catalog: Catalog) -> Self {
        assert!(
            config.nodes >= 1,
            "node count must be at least 1, got {}",
            config.nodes
        );
        let ring = Ring::build(config.space(), config.nodes, "node-");
        let slots = ring.slot_count();
        let seed = config.seed;
        let protocol = algo::protocol_for(config.algorithm);
        // The detector needs the tick pump: probes, timeouts and digest
        // rounds all live in pump time, so enabling suspicion installs the
        // pump even when no delivery fault is configured.
        let pump = (config.fault.perturbs_delivery() || config.suspicion.enabled)
            .then(|| Box::new(FaultPipe::new(config.fault.clone(), slots)));
        let recovery = config
            .suspicion
            .enabled
            .then(|| Box::new(Recovery::new(config.suspicion)));
        Network {
            config,
            catalog,
            ring,
            nodes: (0..slots).map(|_| NodeState::new()).collect(),
            metrics: Metrics::new(slots),
            clock: Timestamp(0),
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            protocol,
            outbox: Vec::new(),
            scratch: Scratch::default(),
            tracer: None,
            trace_seq: vec![0; slots],
            transport: ActiveTransport::Sim(VecDeque::new()),
            staged: pump.is_some().then(Vec::new),
            pump,
            recovery,
            subscribers: NameTable::default(),
            posed_queries: Vec::new(),
            inserted_tuples: Vec::new(),
        }
    }

    /// Swaps the deterministic in-memory transport for real framed TCP
    /// sockets over `127.0.0.1` — one listener per node, every message
    /// serialized through [`crate::wire`] and read back off the socket
    /// before dispatch. Envelope order is preserved exactly, so a TCP run
    /// delivers the same notification set as a simulator run of the same
    /// seed. That holds under fault and suspicion configs too: the pump
    /// decides what is sent, and the copies that survive its draws cross the
    /// sockets. Call before posing queries so no envelopes are queued on the
    /// old backend.
    pub fn enable_tcp_transport(&mut self) -> Result<()> {
        self.enable_tcp_transport_with(TcpOptions::default())
    }

    /// [`Network::enable_tcp_transport`] with explicit backend tuning —
    /// tests shrink the kernel socket buffers to force the write path into
    /// userspace backpressure, or shorten the stall timeout so
    /// lost-frame scenarios fail fast.
    pub fn enable_tcp_transport_with(&mut self, opts: TcpOptions) -> Result<()> {
        if !self.transport.is_idle() {
            return Err(EngineError::Protocol {
                detail: "TCP transport must be enabled before any message is queued".to_string(),
            });
        }
        self.transport = ActiveTransport::Tcp(Box::new(TcpTransport::bind(
            self.ring.slot_count(),
            self.catalog.clone(),
            opts,
        )?));
        Ok(())
    }

    /// The loopback listener address of every node slot when the TCP
    /// backend is active (`None` on the in-memory backend). Adversarial
    /// framing tests connect rogue peers to these.
    pub fn tcp_local_addrs(&self) -> Option<&[std::net::SocketAddr]> {
        match &self.transport {
            ActiveTransport::Tcp(t) => Some(t.local_addrs()),
            ActiveTransport::Sim(_) => None,
        }
    }

    /// Drains the TCP backend's aggregate socket statistics — syscalls,
    /// bytes each way, frames each way, write backpressure, and the inbox
    /// buffer-pool hit rate (`None` on the in-memory backend, which never
    /// touches a socket). Take-style: counters reset to zero, so per-phase
    /// deltas compose by calling between phases.
    pub fn take_socket_stats(&mut self) -> Option<SocketStats> {
        match &mut self.transport {
            ActiveTransport::Tcp(t) => Some(t.take_socket_stats()),
            ActiveTransport::Sim(_) => None,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The schema catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying Chord ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Installs a trace sink; every subsequent engine action emits typed
    /// [`TraceEvent`]s into it. Sinks observe only — installing one cannot
    /// change a run's results (DESIGN.md, "Event tracing").
    pub fn set_tracer(&mut self, tracer: Arc<dyn TraceSink>) {
        self.tracer = Some(tracer);
    }

    /// Removes the trace sink, returning emission to the zero-cost path.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// Emits a [`TraceEvent::Phase`] marker (no-op without a sink) so trace
    /// consumers can segment a run into named phases.
    pub fn trace_phase(&self, name: &str) {
        self.trace(|| TraceEvent::Phase {
            tick: self.clock.0,
            name: name.to_string(),
        });
    }

    /// Emits one trace event when a sink is installed. Construction is
    /// deferred behind the closure so the disabled path is a single branch.
    #[inline]
    pub(crate) fn trace(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(&f());
        }
    }

    /// Whether a trace sink is installed (sites that must gather extra data
    /// — e.g. hop paths — check this before doing the work).
    #[inline]
    pub(crate) fn trace_on(&self) -> bool {
        self.tracer.is_some()
    }

    /// The logical clock value trace events are stamped with.
    #[inline]
    pub(crate) fn trace_tick(&self) -> u64 {
        self.clock.0
    }

    /// Resets load/traffic counters (e.g. after a warm-up phase).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.ring.len()
    }

    /// Handle of the `i`-th alive node (panics when out of range).
    pub fn node_at(&self, i: usize) -> NodeHandle {
        self.ring.alive_nodes().nth(i).expect("node index in range")
    }

    /// A pseudo-random alive node.
    pub fn random_node(&mut self) -> NodeHandle {
        let n = self.ring.len();
        let i = self.rng.gen_range(0..n);
        self.node_at(i)
    }

    /// Protocol state of a node (read-only).
    pub fn node_state(&self, h: NodeHandle) -> &NodeState {
        &self.nodes[h.index()]
    }

    /// Every query posed so far.
    pub fn posed_queries(&self) -> &[QueryRef] {
        &self.posed_queries
    }

    /// Every tuple inserted so far.
    pub fn inserted_tuples(&self) -> &[Arc<Tuple>] {
        &self.inserted_tuples
    }

    /// Notifications a node has received as a subscriber.
    pub fn inbox(&self, h: NodeHandle) -> &[Notification] {
        &self.nodes[h.index()].inbox
    }

    /// The distinct notification contents delivered anywhere in the network
    /// (inboxes plus offline stores) — the paper's set semantics.
    pub fn delivered_set(&self) -> HashSet<Notification> {
        let mut out = HashSet::new();
        for n in &self.nodes {
            out.extend(n.inbox.iter().cloned());
            out.extend(n.tables.offline.iter().map(|(_, n)| n.clone()));
        }
        out
    }

    /// Per-node storage loads, indexed by node slot.
    pub fn storage_loads(&self) -> Vec<usize> {
        self.nodes.iter().map(NodeState::storage_load).collect()
    }

    // ==================================================================
    // External events
    // ==================================================================

    /// Poses a continuous query written in the supported SQL subset from
    /// `node`, returning its key.
    pub fn pose_query_sql(&mut self, node: NodeHandle, sql: &str) -> Result<QueryKey> {
        let parsed = parse_query(sql, &self.catalog)?;
        self.tick();
        let node_key = self.ring.node(node).key().to_string();
        let counter = {
            let st = &mut self.nodes[node.index()];
            let c = st.query_counter;
            st.query_counter += 1;
            c
        };
        let key = QueryKey::derive(&node_key, counter);
        let query =
            Arc::new(parsed.into_query(key.clone(), node_key, self.clock, &self.catalog)?);
        self.pose_query(node, query)?;
        Ok(key)
    }

    /// Poses an already-built continuous query from `node`.
    ///
    /// The query's `insT` is whatever the caller baked into it — unlike
    /// [`Network::pose_query_sql`], this does not advance the logical clock,
    /// so a query stamped with a past `insT` will (by the time semantics of
    /// Section 3.2) be triggered by tuples published at or after that time.
    pub fn pose_query(&mut self, node: NodeHandle, query: QueryRef) -> Result<()> {
        if !self.ring.node(node).is_alive() {
            return Err(EngineError::UnknownNode);
        }
        self.protocol.validate_query(&query)?;
        let (hash, name) = (query.subscriber_hash(), query.subscriber());
        self.subscribers.insert(hash, name, node);
        self.posed_queries.push(Arc::clone(&query));
        self.run_protocol(node, |p, ctx| p.on_pose_query(ctx, &query))?;
        self.process_all()?;
        Ok(())
    }

    /// Inserts a tuple of `relation` from `node`, returning its sequence
    /// number.
    pub fn insert_tuple(
        &mut self,
        node: NodeHandle,
        relation: &str,
        values: Vec<Value>,
    ) -> Result<u64> {
        if !self.ring.node(node).is_alive() {
            return Err(EngineError::UnknownNode);
        }
        self.tick();
        let schema = self.catalog.get(relation)?.clone();
        let seq = self.seq;
        self.seq += 1;
        let tuple = Arc::new(Tuple::new(schema, values, self.clock, seq)?);
        self.inserted_tuples.push(Arc::clone(&tuple));
        self.run_protocol(node, |p, ctx| p.on_publish_tuple(ctx, &tuple))?;
        self.process_all()?;
        Ok(seq)
    }

    /// Advances the clock by one — every external event gets a fresh
    /// timestamp, so `pubT`/`insT` comparisons are never ambiguous.
    fn tick(&mut self) {
        self.clock = Timestamp(self.clock.0 + 1);
    }

    // ==================================================================
    // Protocol dispatch
    // ==================================================================

    /// The configured k-successor replication factor.
    #[inline]
    pub(crate) fn repl_k(&self) -> usize {
        self.config.fault.replication
    }

    /// Runs one protocol handler at `at` — or a storage-level action
    /// written like one — then flushes the effects it pushed into the
    /// transport (in push order). Effects produced before a
    /// handler error are still flushed — mirroring inline sends, which
    /// would already have left the node when the error surfaced.
    fn run_protocol<F>(&mut self, at: NodeHandle, f: F) -> Result<()>
    where
        F: FnOnce(&dyn Protocol, &mut NodeCtx<'_>) -> Result<()>,
    {
        let mut outbox = std::mem::take(&mut self.outbox);
        debug_assert!(outbox.is_empty(), "outbox drained after every handler");
        let result = {
            let fx = EffectCtx::new(
                at,
                &self.config,
                &self.ring,
                &mut self.metrics,
                &mut self.rng,
                &mut outbox,
                &mut self.scratch,
            )
            .with_trace(self.tracer.as_deref(), self.clock.0);
            f(self.protocol, &mut NodeCtx::new(&mut self.nodes, fx))
        };
        let flushed = self.flush_effects(at, &mut outbox);
        outbox.clear();
        self.outbox = outbox;
        let result = result.and(flushed);
        if result.is_err() {
            // An aborted flush may have dropped the `Replicate` of an item
            // the handler already stored: let anti-entropy see the tables.
            self.nodes[at.index()].mirrored.invalidate();
        }
        result
    }

    /// Maps each deferred [`Effect`] onto its transport primitive, in push
    /// order. A transport error aborts the flush, exactly as an inline send
    /// error aborted the rest of the old handler.
    fn flush_effects(&mut self, from: NodeHandle, outbox: &mut Vec<Effect>) -> Result<()> {
        for effect in outbox.drain(..) {
            match effect {
                Effect::Batch { kind, targets } => self.dispatch_from(from, targets, kind)?,
                Effect::Send { id, msg } => self.send_via_jfrt(from, id, msg)?,
                Effect::Replicate { item } => self.replicate(from, item),
                Effect::Deliver { matches } => self.deliver_matches(from, matches)?,
            }
        }
        Ok(())
    }

    /// Handles one dequeued message at `at`: storage-level messages
    /// inline, algorithm-specific ones through the [`Protocol`] trait.
    pub(crate) fn dispatch(&mut self, at: NodeHandle, msg: Message) -> Result<()> {
        match msg {
            Message::IndexQuery {
                query,
                index_side,
                index_attr,
                index_id,
            } => {
                let item = ReplicaItem::Query(StoredQuery {
                    index_id,
                    query,
                    index_side,
                    index_attr,
                });
                self.run_protocol(at, |_, ctx| {
                    let (st, fx) = ctx.split();
                    let fresh = st.store(fx, item)?;
                    let (tick, node) = (fx.tick(), at.index() as u32);
                    fx.trace(|| TraceEvent::IndexInsert {
                        tick,
                        node,
                        table: "alqt",
                        fresh,
                    });
                    Ok(())
                })
            }
            Message::AlIndexTuple {
                tuple,
                attr,
                index_id,
            } => self.run_protocol(at, |p, ctx| p.on_tuple_arrival(ctx, tuple, attr, index_id)),
            Message::VlIndexTuple {
                tuple,
                attr,
                index_id,
            } => self.run_protocol(at, |p, ctx| p.on_value_tuple(ctx, tuple, attr, index_id)),
            Message::Join { items, index_id } => {
                self.run_protocol(at, |p, ctx| p.on_rewritten_query(ctx, items, index_id))
            }
            Message::JoinV(join) => self.run_protocol(at, |p, ctx| p.on_join_message(ctx, *join)),
            Message::StoreNotifications {
                subscriber_id,
                notifications,
            } => {
                // Counted here — at actual offline-store arrival — not at
                // send time, so a lost message is never counted delivered.
                self.metrics.notifications_delivered += notifications.len() as u64;
                self.metrics.notifications_stored_offline += notifications.len() as u64;
                self.trace(|| TraceEvent::NotifyDelivered {
                    tick: self.clock.0,
                    node: at.index() as u32,
                    count: notifications.len() as u64,
                    offline: true,
                });
                let items = notifications
                    .into_iter()
                    .map(|notification| ReplicaItem::Offline {
                        id: subscriber_id,
                        notification,
                    });
                self.store_all(at, items)
            }
            Message::Notify { notifications } => {
                // Counted here — at actual inbox arrival.
                self.metrics.notifications_delivered += notifications.len() as u64;
                self.trace(|| TraceEvent::NotifyDelivered {
                    tick: self.clock.0,
                    node: at.index() as u32,
                    count: notifications.len() as u64,
                    offline: false,
                });
                self.nodes[at.index()].inbox.extend(notifications);
                Ok(())
            }
            Message::Replicate { item } => {
                // A mirror of something `at` already owns (its primary died
                // with this message in flight) is promotable right away:
                // tell the epoch gate in `promote_replicas`.
                let owned = self.ring.owns(at, item.index_id());
                let store = &mut self.nodes[at.index()].replicas;
                if owned {
                    store.note_owned_arrival();
                }
                store.insert(*item)
            }
            Message::Ping { from, seq } => {
                // Heartbeat probe: answer directly to the prober. The pong
                // is itself a probe message — fire-and-forget, never acked.
                let me = at.index() as u32;
                self.push_direct(
                    at,
                    NodeHandle::from_index(from as usize),
                    Message::Pong { from: me, seq },
                );
                Ok(())
            }
            Message::Pong { from, .. } => {
                self.on_pong(at, from);
                Ok(())
            }
            // Delivery takes envelopes apart before dispatching, and the wire
            // decoder rejects a bundle inside a bundle, so no bundle reaches
            // this arm; an in-memory one would dispatch its members in order.
            Message::Bundle(msgs) => msgs.into_iter().try_for_each(|m| self.dispatch(at, m)),
        }
    }

    /// Stores `items` as `at`'s primary state, each through
    /// [`NodeState::store`], then sends the mirrors that asks for. Besides
    /// offline notifications, this is where every hand-over ends: replicas
    /// promoted after a failure and keys transferred by a leave or a rejoin.
    pub(crate) fn store_all(
        &mut self,
        at: NodeHandle,
        items: impl IntoIterator<Item = ReplicaItem>,
    ) -> Result<()> {
        self.run_protocol(at, |_, ctx| {
            let (st, fx) = ctx.split();
            for item in items {
                st.store(fx, item)?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    //! The messages a handler must refuse with a typed error rather than a
    //! panic, each invoked through [`Network::run_protocol`] so the effect
    //! flush under test is the production one.

    use super::*;
    use crate::config::Algorithm;
    use crate::messages::ValueJoin;
    use cq_overlay::Id;
    use cq_relational::{DataType, RelationSchema, RelationalError, RewrittenQuery, Side};

    fn network(alg: Algorithm) -> Network {
        let mut c = Catalog::new();
        c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
            .unwrap();
        c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
            .unwrap();
        Network::new(EngineConfig::new(alg).with_nodes(24).with_seed(5), c)
    }

    /// `R.B = S.C`, built as posed from `node` at time 1 but not indexed.
    fn query(net: &Network, node: NodeHandle) -> QueryRef {
        let node_key = net.ring.node(node).key().to_string();
        let parsed =
            parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.C", &net.catalog).unwrap();
        let key = QueryKey::derive(&node_key, 0);
        Arc::new(
            parsed
                .into_query(key, node_key, Timestamp(1), &net.catalog)
                .unwrap(),
        )
    }

    fn tuple(net: &Network, relation: &str, values: [i64; 2], time: u64) -> Tuple {
        let schema = net.catalog.get(relation).unwrap().clone();
        let values = values.into_iter().map(Value::Int).collect();
        Tuple::new(schema, values, Timestamp(time), 0).unwrap()
    }

    /// A `Join` message reaching DAI-V is a protocol violation — a typed error,
    /// not a panic (DAI-V only ever emits `JoinV`).
    #[test]
    fn join_message_to_dai_v_is_a_typed_protocol_error() {
        let mut net = network(Algorithm::DaiV);
        let node = net.node_at(0);
        let err = net
            .run_protocol(node, |p, ctx| p.on_rewritten_query(ctx, Vec::new(), Id(1)))
            .unwrap_err();
        assert!(matches!(err, EngineError::Protocol { .. }), "{err}");
    }

    /// A value-level tuple reaching DAI-V, which stores tuples by condition
    /// value instead, is equally a typed error.
    #[test]
    fn value_tuple_to_dai_v_is_a_typed_protocol_error() {
        let mut net = network(Algorithm::DaiV);
        let node = net.node_at(0);
        let tuple = Arc::new(tuple(&net, "R", [1, 2], 1));
        let err = net
            .run_protocol(node, |p, ctx| {
                p.on_value_tuple(ctx, tuple, "B".into(), Id(1))
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::Protocol { .. }), "{err}");
    }

    /// A `JoinV` message reaching a T1 algorithm is equally a typed error.
    #[test]
    fn join_v_message_to_t1_algorithms_is_a_typed_protocol_error() {
        for alg in [Algorithm::Sai, Algorithm::DaiQ, Algorithm::DaiT] {
            let mut net = network(alg);
            let node = net.node_at(0);
            let tuple = Arc::new(tuple(&net, "R", [1, 2], 1));
            let err = net
                .run_protocol(node, |p, ctx| {
                    p.on_join_message(
                        ctx,
                        ValueJoin {
                            group: "g".into(),
                            items: Vec::new(),
                            tuple,
                            side: Side::Left,
                            value_key: "1".into(),
                            index_id: Id(1),
                        },
                    )
                })
                .unwrap_err();
            assert!(matches!(err, EngineError::Protocol { .. }), "{alg}: {err}");
        }
    }

    /// A value-targeted rewritten query inside a plain `Join` message (only
    /// DAI-V produces value targets) surfaces as a typed error from the
    /// evaluator's attribute-target matcher.
    #[test]
    fn value_targeted_rewritten_query_in_plain_join_is_a_typed_protocol_error() {
        let mut net = network(Algorithm::DaiQ);
        let node = net.node_at(0);
        let query = query(&net, node);
        let tuple = tuple(&net, "R", [1, 2], 2);
        let rq = RewrittenQuery::rewrite_value(&query, Side::Left, &tuple)
            .unwrap()
            .expect("tuple triggers the query");
        let err = net
            .run_protocol(node, |p, ctx| p.on_rewritten_query(ctx, vec![rq], Id(1)))
            .unwrap_err();
        assert!(matches!(err, EngineError::Protocol { .. }), "{err}");
    }

    /// An evaluator holding a rewriting that binds fewer select values than its
    /// query selects on the bound side — a frame may carry any count, see
    /// `wire.rs` — fails with a typed error when a matching tuple arrives in
    /// retention mode, where building the notification used to panic.
    #[test]
    fn a_miscounted_rewriting_fails_typed_at_the_evaluator() {
        let mut net = network(Algorithm::Sai);
        let node = net.node_at(0);
        let rq = RewrittenQuery::from_parts(
            query(&net, node),
            Side::Left,
            std::iter::empty().collect(),
            Some("C"),
            Value::Int(2),
            Timestamp(2),
        );
        net.run_protocol(node, |p, ctx| p.on_rewritten_query(ctx, vec![rq], Id(1)))
            .unwrap();
        let tuple = Arc::new(tuple(&net, "S", [2, 5], 3));
        let err = net
            .run_protocol(node, |p, ctx| {
                p.on_value_tuple(ctx, tuple, "C".into(), Id(1))
            })
            .unwrap_err();
        assert!(
            matches!(
                &err,
                EngineError::Relational(RelationalError::SchemaMismatch { detail, .. })
                    if detail.contains("binds 0 values")
            ),
            "{err}"
        );
    }

    /// A struct-literal config bypasses `with_nodes`' check; the network
    /// refuses it when it is built rather than on its first random draw.
    #[test]
    #[should_panic(expected = "node count must be at least 1, got 0")]
    fn a_network_of_zero_nodes_is_refused() {
        let config = EngineConfig {
            nodes: 0,
            ..EngineConfig::new(Algorithm::Sai)
        };
        let _ = Network::new(config, Catalog::new());
    }
}
