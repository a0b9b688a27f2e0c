//! The protocol layer: the [`Protocol`] trait algorithm implementations
//! plug into, the [`NodeCtx`] handlers run against, and the deferred
//! [`Effect`]s they emit.
//!
//! The engine is split into three layers (see `DESIGN.md`):
//!
//! 1. **Transport** (`engine::transport`) — owns sends, routing and hop
//!    accounting, the fault-injection pump, reliable delivery, and replica
//!    mirroring. Knows nothing about algorithms.
//! 2. **Protocol** (this module + [`crate::algo`]) — the four evaluation
//!    algorithms of Chapter 4, each an implementation of [`Protocol`].
//!    Handlers never touch the network directly: they receive a [`NodeCtx`]
//!    scoped to the node the message arrived at — the node-state slice plus
//!    one [`EffectCtx`], on which every other capability is declared — and
//!    *describe* their sends as [`Effect`]s pushed onto an outbox.
//! 3. **Orchestration** ([`crate::network`]) — dequeues messages, invokes
//!    the configured protocol's handlers, and flushes their effects back
//!    into the transport.
//!
//! Effects are flushed in push order immediately after each handler
//! returns, before the next message is dequeued — so the message order on
//! the wire is exactly what it would be if handlers sent inline.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use cq_fasthash::NameTable;
use cq_overlay::{Id, NodeHandle, Ring};
use cq_relational::{
    JoinQuery, Notification, QueryRef, QueryType, RewriteBody, RewrittenQuery, Tuple,
};
use rand::rngs::StdRng;

use crate::algo::RunMatcher;
use crate::config::{Algorithm, EngineConfig};
use crate::error::{EngineError, Result};
use crate::messages::{Message, ValueJoin};
use crate::metrics::{Metrics, TrafficKind};
use crate::node::NodeState;
use crate::replication::ReplicaItem;
use crate::trace::{TraceEvent, TraceSink};

/// A deferred transport action emitted by a protocol handler.
///
/// Handlers push effects onto their [`NodeCtx`] outbox in the order the
/// sends should happen; the orchestrator flushes them into the transport
/// in that same order once the handler returns.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Send a batch of identifier-routed messages with the configured
    /// multisend design, accounting `kind` traffic.
    Batch {
        /// Traffic class to account the batch under.
        kind: TrafficKind,
        /// `(target identifier, message)` pairs.
        targets: Vec<(Id, Message)>,
    },
    /// Send one message toward an identifier, consulting the sender's JFRT
    /// when the optimization is enabled (Section 4.7).
    Send {
        /// The target identifier.
        id: Id,
        /// The message.
        msg: Message,
    },
    /// Mirror a freshly inserted primary item onto the node's `k` first
    /// alive successors (no-op when k-successor replication is off).
    Replicate {
        /// The item to mirror.
        item: ReplicaItem,
    },
    /// Deliver accumulated join matches to their subscribers (Section 4.6).
    Deliver {
        /// The matches.
        matches: Matches,
    },
}

/// Accumulated join matches at an evaluator, one per handler invocation.
///
/// With notification retention on, full bodies are built; with retention
/// off only counts per subscriber are kept (delivery traffic and counters stay
/// identical, the bodies are never materialized).
#[derive(Debug)]
pub enum Matches {
    /// Full notification bodies (retention on).
    Full(Vec<Notification>),
    /// Match counts per subscriber (retention off).
    Counts(QueryCounts),
}

impl Matches {
    /// An empty accumulator; `retain` selects full bodies vs counts.
    pub fn new(retain: bool) -> Matches {
        if retain {
            Matches::Full(Vec::new())
        } else {
            Matches::Counts(QueryCounts::default())
        }
    }

    /// Total matches accumulated so far.
    pub fn len(&self) -> u64 {
        match self {
            Matches::Full(v) => v.len() as u64,
            Matches::Counts(c) => c.total,
        }
    }

    /// Whether nothing has matched yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records that `rq` matched tuple `t`.
    pub fn add(&mut self, rq: &RewriteBody, t: &Tuple) -> cq_relational::Result<()> {
        match self {
            Matches::Full(v) => v.push(rq.notification_with(t)?),
            Matches::Counts(c) => c.add_n(rq.query(), 1),
        }
        Ok(())
    }

    /// Empties the accumulator, keeping its buffers.
    pub fn clear(&mut self) {
        match self {
            Matches::Full(v) => v.clear(),
            Matches::Counts(c) => c.clear(),
        }
    }
}

/// Match counts per subscriber, in first-match order — what an evaluator
/// accumulates when bodies are not retained, and what delivery sends
/// (Section 4.6). A match folds straight into its subscriber's slot, found
/// by the hash its query computed once ([`JoinQuery::subscriber_hash`]) and
/// matched by name, so one query under two `Arc`s (a TCP receiver's
/// interner forgot it) counts in one slot. The address of the query last
/// counted spares its next match the name comparison; it holds no `Arc`,
/// as only handlers add counts and no handler builds a query.
#[derive(Debug, Default)]
pub struct QueryCounts {
    /// Per subscriber: the count and the address of the last query.
    pub(crate) slots: NameTable<(u64, usize)>,
    total: u64,
    /// Debug builds log every count added, by query address, for checks
    /// that compare counts per query ([`QueryCounts::per_query`]).
    #[cfg(debug_assertions)]
    added: Vec<(usize, u64)>,
}

impl QueryCounts {
    /// Records `n` matches of `query` at once — an evaluator adds a
    /// rewriting's whole count with one probe. `n` must be positive: a
    /// subscriber is entered in the order of its first match.
    pub fn add_n(&mut self, query: &QueryRef, n: u64) {
        debug_assert!(n > 0, "a subscriber is entered at its first match");
        self.total += n;
        let (address, name) = (Arc::as_ptr(query) as usize, query.subscriber());
        #[cfg(debug_assertions)]
        self.added.push((address, n));
        let hash = query.subscriber_hash();
        match self.slots.find_by(hash, |subscriber, &(_, last)| {
            debug_assert!(
                last != address || subscriber == name,
                "{name}'s query moved"
            );
            last == address || subscriber == name
        }) {
            Some(i) => {
                let (count, last) = self.slots.value_mut(i);
                (*count, *last) = (*count + n, address);
            }
            None => self.slots.push(hash, name, (n, address)),
        }
    }

    /// Empties the accumulator, keeping its buffers.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.total = 0;
        #[cfg(debug_assertions)]
        self.added.clear();
    }

    /// The counts per subscriber name, in first-match order.
    pub fn by_subscriber(&self) -> impl Iterator<Item = (&str, u64)> {
        self.slots
            .iter()
            .map(|(name, _, &(count, _))| (name, count))
    }

    /// Per query address, the counts debug builds log, in first-match order
    /// — for checks against the pairwise loop while the queries live.
    #[cfg(debug_assertions)]
    #[doc(hidden)]
    pub fn per_query(&self) -> Vec<(usize, u64)> {
        let mut folded: Vec<(usize, u64)> = Vec::new();
        for &(query, n) in &self.added {
            match folded.iter_mut().find(|(q, _)| *q == query) {
                Some((_, count)) => *count += n,
                None => folded.push((query, n)),
            }
        }
        folded
    }
}

/// The buffers the orchestrator lends every handler invocation, so that a
/// handler's working memory is allocated once per network, not per message.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per-arrival value keys ([`EffectCtx::take_scratch`]).
    value_key: String,
    /// The counts accumulator, between one `Deliver` and the next handler.
    counts: QueryCounts,
    /// The evaluators' verdict and ledger buffers
    /// ([`EffectCtx::take_matcher`]).
    matcher: RunMatcher,
    /// The pairs of one [`crate::network::Network::push_direct_each`].
    pub(crate) pairs: Vec<(NodeHandle, NodeHandle)>,
}

impl Scratch {
    /// An empty match accumulator honoring the retention setting; in counts
    /// mode it is the one [`Scratch::recycle`] last took back.
    fn new_matches(&mut self, retain: bool) -> Matches {
        if retain {
            Matches::Full(Vec::new())
        } else {
            Matches::Counts(std::mem::take(&mut self.counts))
        }
    }

    /// Takes a delivered counts accumulator back for the next handler.
    pub(crate) fn recycle(&mut self, mut counts: QueryCounts) {
        counts.clear();
        self.counts = counts;
    }
}

/// Everything a protocol handler may touch while processing one message at
/// one node: every node's state and the [`EffectCtx`] of the node the
/// message arrived at — read access to the ring, the metrics sink, the
/// engine RNG, and the effect outbox.
///
/// The full node-state slice is carried (rather than just the local state)
/// because the index-attribute strategies probe *other* nodes' arrival
/// statistics ([`NodeCtx::probe_arrival_stats`]); handlers otherwise reach
/// the local state through [`NodeCtx::split`]. Every other capability is the
/// effect half's, reached through `Deref`.
pub(crate) struct NodeCtx<'a> {
    nodes: &'a mut [NodeState],
    fx: EffectCtx<'a>,
}

impl<'a> NodeCtx<'a> {
    /// Assembles a context for a handler running at `fx.node()`.
    pub fn new(nodes: &'a mut [NodeState], fx: EffectCtx<'a>) -> Self {
        NodeCtx { nodes, fx }
    }

    /// Asks the rewriter responsible for `id` for its `(count, distinct)`
    /// arrival statistics of `(relation, attr)`, paying the probe traffic
    /// (Section 4.3.6: "any node can simply ask the two possible rewriter
    /// nodes before indexing a query").
    pub fn probe_arrival_stats(
        &mut self,
        relation: &str,
        attr: &str,
        id: Id,
    ) -> Result<(u64, usize)> {
        let (owner, hops) = self.fx.ring.route_owner(self.fx.node, id)?;
        // request hops + one direct response hop
        self.fx.metrics.record_traffic(TrafficKind::Probe, hops + 1);
        Ok(self.nodes[owner.index()].arrival_stats(relation, attr))
    }

    /// Splits the context into the local node's state and its effect half
    /// (metrics, RNG, outbox, tracing, scratch).
    ///
    /// This is what lets the join kernels scan table entries *in place*: the
    /// `&mut NodeState` borrow is disjoint from every sink in the
    /// `EffectCtx`, so a handler can hold shared references into one table
    /// (e.g. VLTT candidates) while accumulating matches, bumping counters,
    /// and pushing effects — no `Arc::clone`-collect needed. The borrow
    /// checker enforces the split because `nodes` and `fx` are distinct
    /// fields of `NodeCtx`.
    pub fn split(&mut self) -> (&mut NodeState, &mut EffectCtx<'a>) {
        (&mut self.nodes[self.fx.node.index()], &mut self.fx)
    }
}

impl<'a> Deref for NodeCtx<'a> {
    type Target = EffectCtx<'a>;

    fn deref(&self) -> &EffectCtx<'a> {
        &self.fx
    }
}

impl DerefMut for NodeCtx<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.fx
    }
}

/// The effect half of a [`NodeCtx`]: every sink and read-only capability a
/// handler needs, usable while a disjoint `&mut NodeState` (or shared
/// borrows derived from it) is live. See [`NodeCtx::split`].
pub(crate) struct EffectCtx<'a> {
    node: NodeHandle,
    config: &'a EngineConfig,
    ring: &'a Ring,
    metrics: &'a mut Metrics,
    rng: &'a mut StdRng,
    outbox: &'a mut Vec<Effect>,
    /// Reusable buffers (owned by the orchestrator so their capacity
    /// survives across handler invocations).
    scratch: &'a mut Scratch,
    /// The trace sink when tracing is on. Handlers emit through
    /// [`EffectCtx::trace`], which is a single branch when off.
    tracer: Option<&'a dyn TraceSink>,
    /// The network's logical clock, stamped onto emitted events.
    tick: u64,
}

impl<'a> EffectCtx<'a> {
    /// Assembles the effect half of a handler running at `node` (tracing
    /// off; see [`EffectCtx::with_trace`]).
    pub fn new(
        node: NodeHandle,
        config: &'a EngineConfig,
        ring: &'a Ring,
        metrics: &'a mut Metrics,
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<Effect>,
        scratch: &'a mut Scratch,
    ) -> Self {
        EffectCtx {
            node,
            config,
            ring,
            metrics,
            rng,
            outbox,
            scratch,
            tracer: None,
            tick: 0,
        }
    }

    /// Attaches a trace sink and the logical clock value handler-emitted
    /// events should carry.
    pub fn with_trace(mut self, tracer: Option<&'a dyn TraceSink>, tick: u64) -> Self {
        self.tracer = tracer;
        self.tick = tick;
        self
    }

    /// The node the current message arrived at.
    pub fn node(&self) -> NodeHandle {
        self.node
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        self.config
    }

    /// The identifier space of the ring.
    pub fn space(&self) -> cq_overlay::IdSpace {
        self.ring.space()
    }

    /// The engine RNG (the single source of all protocol-level randomness,
    /// so runs stay deterministic per seed).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Queues a deferred transport action.
    pub fn push(&mut self, effect: Effect) {
        self.outbox.push(effect);
    }

    /// The configured k-successor replication factor (`0` = replication
    /// off; handlers skip cloning entries for [`Effect::Replicate`] then).
    pub fn repl_k(&self) -> usize {
        self.config.fault.replication
    }

    /// An empty match accumulator honoring the retention setting.
    pub fn new_matches(&mut self) -> Matches {
        self.scratch.new_matches(self.config.retain_notifications)
    }

    /// The logical clock value events are stamped with.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Emits one trace event when tracing is on. The closure defers event
    /// construction, so the disabled path is a single branch.
    #[inline]
    pub fn trace(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.tracer {
            t.record(&f());
        }
    }

    /// Takes the reusable scratch buffer (cleared). Pair with
    /// [`EffectCtx::restore_scratch`] so the capacity is kept across
    /// arrivals; on error paths the buffer is simply dropped and the next
    /// taker starts from an empty one.
    pub fn take_scratch(&mut self) -> String {
        let mut s = std::mem::take(&mut self.scratch.value_key);
        s.clear();
        s
    }

    /// Returns the scratch buffer after use.
    pub fn restore_scratch(&mut self, s: String) {
        self.scratch.value_key = s;
    }

    /// Takes the reusable run matcher; pair with
    /// [`EffectCtx::restore_matcher`], as with [`EffectCtx::take_scratch`].
    pub fn take_matcher(&mut self) -> RunMatcher {
        std::mem::take(&mut self.scratch.matcher)
    }

    /// Returns the run matcher after use.
    pub fn restore_matcher(&mut self, matcher: RunMatcher) {
        self.scratch.matcher = matcher;
    }

    /// A typed protocol-violation error (a handler received a message its
    /// algorithm never produces).
    pub fn violation(&self, detail: impl Into<String>) -> EngineError {
        EngineError::Protocol {
            detail: detail.into(),
        }
    }
}

/// One of the paper's evaluation algorithms, expressed as a set of message
/// handlers over [`NodeCtx`].
///
/// The orchestrator ([`crate::network::Network`]) owns the message loop and
/// the storage-level messages (query indexing, notification storage,
/// replica mirroring); everything algorithm-specific goes through this
/// trait:
///
/// | event | handler | paper |
/// |---|---|---|
/// | query posed            | [`Protocol::on_pose_query`]      | 4.3.1 / 4.4.1 |
/// | tuple published        | [`Protocol::on_publish_tuple`]   | 4.2 |
/// | tuple at attr level    | [`Protocol::on_tuple_arrival`]   | 4.3.2 / 4.4 / 4.5 |
/// | tuple at value level   | [`Protocol::on_value_tuple`]     | 4.3.4 |
/// | rewritten queries      | [`Protocol::on_rewritten_query`] | 4.3.3 / 4.4.2 / 4.4.3 |
/// | combined DAI-V message | [`Protocol::on_join_message`]    | 4.5 |
///
/// Handlers receiving a message their algorithm never produces return a
/// typed [`EngineError::Protocol`] (the defaults below) instead of
/// panicking.
pub(crate) trait Protocol: Send + Sync {
    /// The algorithm this implements (it names the algorithm in errors).
    fn algorithm(&self) -> Algorithm;

    /// Rejects query classes the algorithm cannot evaluate. Checked at pose
    /// time, before any state changes. By default type-T2 queries are
    /// rejected: only DAI-V evaluates them (Section 4.5).
    fn validate_query(&self, query: &JoinQuery) -> Result<()> {
        if query.query_type() == QueryType::T2 {
            return Err(EngineError::UnsupportedByAlgorithm {
                algorithm: self.algorithm(),
                detail: "type-T2 queries require DAI-V (Section 4.5)".to_string(),
            });
        }
        Ok(())
    }

    /// A query is posed at `ctx.node()`: choose the index side(s) and emit
    /// the attribute-level `IndexQuery` batch.
    fn on_pose_query(&self, ctx: &mut NodeCtx<'_>, query: &QueryRef) -> Result<()>;

    /// A tuple is published at `ctx.node()`: emit the attribute-level (and,
    /// per algorithm, value-level) tuple-indexing batch.
    fn on_publish_tuple(&self, ctx: &mut NodeCtx<'_>, tuple: &Arc<Tuple>) -> Result<()>;

    /// A tuple arrives at a rewriter (attribute level): trigger, rewrite
    /// and reindex the stored queries of the addressed replica.
    fn on_tuple_arrival(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()>;

    /// A tuple arrives at an evaluator (value level). Only algorithms that
    /// index tuples at the value level see this message.
    fn on_value_tuple(
        &self,
        ctx: &mut NodeCtx<'_>,
        tuple: Arc<Tuple>,
        attr: String,
        index_id: Id,
    ) -> Result<()> {
        let _ = (tuple, attr, index_id);
        Err(ctx.violation(format!(
            "{} does not index tuples at the value level",
            self.algorithm()
        )))
    }

    /// A batch of rewritten queries arrives at an evaluator.
    fn on_rewritten_query(
        &self,
        ctx: &mut NodeCtx<'_>,
        items: Vec<RewrittenQuery>,
        index_id: Id,
    ) -> Result<()> {
        let _ = (items, index_id);
        Err(ctx.violation(format!(
            "{} does not use plain join messages",
            self.algorithm()
        )))
    }

    /// DAI-V's combined join message arrives at an evaluator.
    fn on_join_message(&self, ctx: &mut NodeCtx<'_>, join: ValueJoin) -> Result<()> {
        let _ = join;
        Err(ctx.violation(format!(
            "{} does not use combined join-v messages",
            self.algorithm()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_fasthash::FxHashMap;
    use cq_relational::Timestamp;
    use cq_relational::{
        parse_query, subscriber_hash, Catalog, DataType, QueryKey, RelationSchema,
    };

    fn query(c: &Catalog, subscriber: &str, n: u64) -> QueryRef {
        let sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.C";
        let key = QueryKey::derive(subscriber, n);
        let parsed = parse_query(sql, c).unwrap();
        Arc::new(parsed.into_query(key, subscriber, Timestamp(0), c).unwrap())
    }

    /// Two subscribers whose hashes share the 32 bits a `FirstIndex` files
    /// a position under, so that every probe for either asks about
    /// both slots: each keeps its own count, whichever query, or `Arc` of a
    /// query, adds to it.
    #[test]
    fn subscribers_sharing_a_hash_tag_keep_their_own_slots() {
        let mut seen = FxHashMap::default();
        let (a, b) = (0u64..)
            .map(|i| format!("s{i}"))
            .find_map(|name| {
                let other = seen.insert(subscriber_hash(&name) >> 32, name.clone())?;
                Some((other, name))
            })
            .unwrap();
        assert_ne!(a, b);
        let mut c = Catalog::new();
        for (rel, attrs) in [("R", ["A", "B"]), ("S", ["C", "D"])] {
            let attrs = attrs.map(|attr| (attr, DataType::Int));
            c.register(RelationSchema::of(rel, &attrs).unwrap())
                .unwrap();
        }
        let (a1, a2, b1) = (query(&c, &a, 1), query(&c, &a, 2), query(&c, &b, 1));
        let a1_again = Arc::new(JoinQuery::clone(&a1));
        let mut counts = QueryCounts::default();
        for round in 0..2 {
            counts.clear();
            for (q, n) in [
                (&a1, 1),
                (&b1, 2),
                (&a2, 3),
                (&a1_again, 4),
                (&b1, 5),
                (&a1, 6),
            ] {
                counts.add_n(q, n);
            }
            let folded: Vec<(&str, u64)> = counts.by_subscriber().collect();
            assert_eq!(folded, [(&*a, 14), (&*b, 7)], "round {round}");
            assert_eq!(counts.total, 21);
            let address = |q: &QueryRef| Arc::as_ptr(q) as usize;
            let per_query = [(&a1, 7), (&b1, 7), (&a2, 3), (&a1_again, 4)];
            let per_query = per_query.map(|(q, n)| (address(q), n));
            assert_eq!(counts.per_query(), per_query);
        }
    }
}
