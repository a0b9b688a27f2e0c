//! Unit tests for the `Protocol` trait implementations in `cq_engine::algo`.
//!
//! Unlike the end-to-end tests in `algorithms.rs`, these drive each
//! algorithm's handlers directly through a `NodeCtx` with a minimal message
//! pump — no `Network`, no transport layer — and check the delivered
//! notification set against the centralized oracle. This pins down the
//! trait contract itself: a protocol implementation is correct iff feeding
//! its emitted effects back through `route_owner` reproduces the oracle
//! set on a two-relation workload.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use cq_engine::protocol_for;
use cq_engine::tables::StoredQuery;
use cq_engine::Oracle;
use cq_engine::{
    Algorithm, Effect, EffectCtx, EngineConfig, EngineError, Matches, Message, Metrics, NodeCtx,
    NodeState, Protocol, Scratch,
};
use cq_overlay::{Id, NodeHandle, Ring};
use cq_relational::{
    parse_query, Catalog, DataType, Notification, QueryKey, QueryRef, RelationSchema,
    RelationalError, RewrittenQuery, Side, Timestamp, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c
}

/// A minimal handler driver: owns the state a `NodeCtx` borrows, routes
/// queued messages to their identifier's owner, and collects `Deliver`
/// effects. Storage-level messages (`IndexQuery`) are applied directly —
/// they are the orchestrator's job, not the protocol's.
struct Driver {
    config: EngineConfig,
    catalog: Catalog,
    ring: Ring,
    nodes: Vec<NodeState>,
    metrics: Metrics,
    rng: StdRng,
    protocol: &'static dyn Protocol,
    queue: VecDeque<(Id, Message)>,
    delivered: HashSet<Notification>,
    queries: Vec<QueryRef>,
    tuples: Vec<Arc<Tuple>>,
    clock: u64,
    seq: u64,
}

impl Driver {
    fn new(config: EngineConfig) -> Self {
        let ring = Ring::build(config.space(), config.nodes, "node-");
        let slots = ring.slot_count();
        let seed = config.seed;
        let protocol = protocol_for(config.algorithm);
        Driver {
            catalog: catalog(),
            ring,
            nodes: (0..slots).map(|_| NodeState::new()).collect(),
            metrics: Metrics::new(slots),
            rng: StdRng::seed_from_u64(seed),
            protocol,
            queue: VecDeque::new(),
            delivered: HashSet::new(),
            queries: Vec::new(),
            tuples: Vec::new(),
            clock: 0,
            seq: 0,
            config,
        }
    }

    fn of(alg: Algorithm) -> Self {
        Driver::new(EngineConfig::new(alg).with_nodes(24).with_seed(5))
    }

    /// Runs one handler at `at` through a `NodeCtx`, then folds its effects
    /// back into the driver: sends are queued, deliveries collected,
    /// replication ignored (no fault layer here).
    fn run(
        &mut self,
        at: NodeHandle,
        f: impl FnOnce(&dyn Protocol, &mut NodeCtx<'_>) -> cq_engine::Result<()>,
    ) -> cq_engine::Result<()> {
        let mut outbox = Vec::new();
        let mut scratch = Scratch::default();
        let fx = EffectCtx::new(
            at,
            &self.config,
            &self.ring,
            &mut self.metrics,
            &mut self.rng,
            &mut outbox,
            &mut scratch,
        );
        f(self.protocol, &mut NodeCtx::new(&mut self.nodes, fx))?;
        for effect in outbox {
            match effect {
                Effect::Batch { targets, .. } => self.queue.extend(targets),
                Effect::Send { id, msg } => self.queue.push_back((id, msg)),
                Effect::Replicate { .. } => {}
                Effect::Deliver { matches } => match matches {
                    Matches::Full(ns) => self.delivered.extend(ns),
                    Matches::Counts(_) => panic!("tests run with retention on"),
                },
            }
        }
        Ok(())
    }

    /// Drains the queue, resolving each message's owner on the real ring.
    fn pump(&mut self) -> cq_engine::Result<()> {
        let origin = self.ring.alive_nodes().next().expect("ring is non-empty");
        while let Some((id, msg)) = self.queue.pop_front() {
            let (owner, _) = self.ring.route_owner(origin, id)?;
            match msg {
                Message::IndexQuery {
                    query,
                    index_side,
                    index_attr,
                    index_id,
                } => {
                    self.nodes[owner.index()].tables.alqt.insert(StoredQuery {
                        index_id,
                        query,
                        index_side,
                        index_attr,
                    });
                }
                Message::AlIndexTuple {
                    tuple,
                    attr,
                    index_id,
                } => self.run(owner, |p, ctx| {
                    p.on_tuple_arrival(ctx, tuple, attr, index_id)
                })?,
                Message::VlIndexTuple {
                    tuple,
                    attr,
                    index_id,
                } => self.run(owner, |p, ctx| p.on_value_tuple(ctx, tuple, attr, index_id))?,
                Message::Join { items, index_id } => {
                    self.run(owner, |p, ctx| p.on_rewritten_query(ctx, items, index_id))?
                }
                Message::JoinV(join) => self.run(owner, |p, ctx| p.on_join_message(ctx, join))?,
                other => panic!("protocol handlers never emit {}", other.kind()),
            }
        }
        Ok(())
    }

    fn pose(&mut self, sql: &str) -> cq_engine::Result<()> {
        self.clock += 1;
        let node = self.ring.alive_nodes().next().unwrap();
        let node_key = self.ring.node(node).key().to_string();
        let parsed = parse_query(sql, &self.catalog)?;
        let key = QueryKey::derive(&node_key, self.queries.len() as u64);
        let query: QueryRef =
            Arc::new(parsed.into_query(key, node_key, Timestamp(self.clock), &self.catalog)?);
        self.protocol.validate_query(&query)?;
        self.queries.push(Arc::clone(&query));
        self.run(node, |p, ctx| p.on_pose_query(ctx, &query))?;
        self.pump()
    }

    fn insert(&mut self, relation: &str, values: Vec<Value>) -> cq_engine::Result<()> {
        self.clock += 1;
        let node = self.ring.alive_nodes().next().unwrap();
        let schema = self.catalog.get(relation)?.clone();
        let tuple = Arc::new(Tuple::new(schema, values, Timestamp(self.clock), self.seq)?);
        self.seq += 1;
        self.tuples.push(Arc::clone(&tuple));
        self.run(node, |p, ctx| p.on_publish_tuple(ctx, &tuple))?;
        self.pump()
    }

    fn check_against_oracle(&self) {
        let mut oracle = Oracle::new();
        oracle.ingest(&self.queries, &self.tuples);
        let expected = oracle.expected().unwrap();
        assert_eq!(
            self.delivered,
            expected,
            "{} diverged from the oracle",
            self.protocol.algorithm()
        );
    }
}

/// Tuples before the query, after the query, and values that never match —
/// exercised identically for every algorithm.
fn run_small_workload(mut d: Driver) {
    // Tuples published before the query is posed must NOT trigger it
    // (insT semantics) ...
    d.insert("R", vec![Value::Int(100), Value::Int(1)]).unwrap();
    d.insert("S", vec![Value::Int(1), Value::Int(200)]).unwrap();
    d.pose("SELECT R.A, S.D FROM R, S WHERE R.B = S.C").unwrap();
    // ... except where one side arrived before and one after: the oracle
    // requires both tuples at-or-after insT, so R(100,1)⋈S(1,201) is out.
    for v in 0..6i64 {
        d.insert("R", vec![Value::Int(10 + v), Value::Int(v % 3)])
            .unwrap();
        d.insert("S", vec![Value::Int(v % 4), Value::Int(200 + v)])
            .unwrap();
    }
    assert!(!d.delivered.is_empty(), "workload produces matches");
    d.check_against_oracle();
}

#[test]
fn sai_handlers_match_oracle() {
    run_small_workload(Driver::of(Algorithm::Sai));
}

#[test]
fn dai_q_handlers_match_oracle() {
    run_small_workload(Driver::of(Algorithm::DaiQ));
}

#[test]
fn dai_t_handlers_match_oracle() {
    run_small_workload(Driver::of(Algorithm::DaiT));
}

#[test]
fn dai_v_handlers_match_oracle() {
    run_small_workload(Driver::of(Algorithm::DaiV));
}

#[test]
fn dai_v_keyed_handlers_match_oracle() {
    run_small_workload(Driver::new(
        EngineConfig::new(Algorithm::DaiV)
            .with_nodes(24)
            .with_seed(5)
            .with_dai_v_keyed(true),
    ));
}

#[test]
fn dai_v_evaluates_t2_queries_through_handlers() {
    let mut d = Driver::of(Algorithm::DaiV);
    d.pose("SELECT R.A, S.D FROM R, S WHERE 2*R.B = S.C + S.D")
        .unwrap();
    // left valJC = 2*5 = 10; right: 4 + 6 = 10.
    d.insert("R", vec![Value::Int(1), Value::Int(5)]).unwrap();
    d.insert("S", vec![Value::Int(4), Value::Int(6)]).unwrap();
    d.insert("S", vec![Value::Int(4), Value::Int(7)]).unwrap(); // 11 ≠ 10
    assert_eq!(d.delivered.len(), 1);
    d.check_against_oracle();
}

#[test]
fn t1_protocols_reject_t2_queries() {
    let sql = "SELECT R.A FROM R, S WHERE R.A + R.B = S.C";
    for alg in [Algorithm::Sai, Algorithm::DaiQ, Algorithm::DaiT] {
        let err = Driver::of(alg).pose(sql).unwrap_err();
        assert!(
            matches!(err, EngineError::UnsupportedByAlgorithm { algorithm, .. } if algorithm == alg),
            "{alg}: {err}"
        );
    }
    Driver::of(Algorithm::DaiV)
        .pose(sql)
        .expect("DAI-V evaluates T2 queries");
}

/// A `Join` message reaching DAI-V is a protocol violation — a typed error,
/// not a panic (DAI-V only ever emits `JoinV`).
#[test]
fn join_message_to_dai_v_is_a_typed_protocol_error() {
    let mut d = Driver::of(Algorithm::DaiV);
    let node = d.ring.alive_nodes().next().unwrap();
    let err = d
        .run(node, |p, ctx| p.on_rewritten_query(ctx, Vec::new(), Id(1)))
        .unwrap_err();
    assert!(matches!(err, EngineError::Protocol { .. }), "{err}");
}

/// A `JoinV` message reaching a T1 algorithm is equally a typed error.
#[test]
fn join_v_message_to_t1_algorithms_is_a_typed_protocol_error() {
    for alg in [Algorithm::Sai, Algorithm::DaiQ, Algorithm::DaiT] {
        let mut d = Driver::of(alg);
        let node = d.ring.alive_nodes().next().unwrap();
        let schema = d.catalog.get("R").unwrap().clone();
        let tuple = Arc::new(
            Tuple::new(schema, vec![Value::Int(1), Value::Int(2)], Timestamp(1), 0).unwrap(),
        );
        let err = d
            .run(node, |p, ctx| {
                p.on_join_message(
                    ctx,
                    cq_engine::ValueJoin {
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
    let mut d = Driver::of(Algorithm::DaiQ);
    let node = d.ring.alive_nodes().next().unwrap();
    let node_key = d.ring.node(node).key().to_string();
    let parsed = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.C", &d.catalog).unwrap();
    let query: QueryRef = Arc::new(
        parsed
            .into_query(
                QueryKey::derive(&node_key, 0),
                node_key,
                Timestamp(1),
                &d.catalog,
            )
            .unwrap(),
    );
    let schema = d.catalog.get("R").unwrap().clone();
    let tuple = Tuple::new(schema, vec![Value::Int(1), Value::Int(2)], Timestamp(2), 0).unwrap();
    let rq = RewrittenQuery::rewrite_value(&query, Side::Left, &tuple)
        .unwrap()
        .expect("tuple triggers the query");
    let err = d
        .run(node, |p, ctx| p.on_rewritten_query(ctx, vec![rq], Id(1)))
        .unwrap_err();
    assert!(matches!(err, EngineError::Protocol { .. }), "{err}");
}

/// An evaluator holding a rewriting that binds fewer select values than its
/// query selects on the bound side — a frame may carry any count, see
/// `wire.rs` — fails with a typed error when a matching tuple arrives in
/// retention mode, where building the notification used to panic.
#[test]
fn a_miscounted_rewriting_fails_typed_at_the_evaluator() {
    let mut d = Driver::of(Algorithm::Sai);
    let node = d.ring.alive_nodes().next().unwrap();
    let node_key = d.ring.node(node).key().to_string();
    let parsed = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.C", &d.catalog).unwrap();
    let query: QueryRef = Arc::new(
        parsed
            .into_query(
                QueryKey::derive(&node_key, 0),
                node_key,
                Timestamp(1),
                &d.catalog,
            )
            .unwrap(),
    );
    let rq = RewrittenQuery::from_parts(
        query,
        Side::Left,
        std::iter::empty().collect(),
        Some("C"),
        Value::Int(2),
        Timestamp(2),
    );
    d.run(node, |p, ctx| p.on_rewritten_query(ctx, vec![rq], Id(1)))
        .unwrap();
    let schema = d.catalog.get("S").unwrap().clone();
    let tuple = Tuple::new(schema, vec![Value::Int(2), Value::Int(5)], Timestamp(3), 0).unwrap();
    let err = d
        .run(node, |p, ctx| {
            p.on_value_tuple(ctx, Arc::new(tuple), "C".into(), Id(1))
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
