//! The harness the engine's integration tests share: a two-relation
//! catalog, the oracle check, a workload step, a weighted generator of
//! steps, and a 32-node run of a step list under one algorithm and fault
//! model.
//!
//! Test files declare it `pub mod common;`, so a file that uses only part of
//! it builds without dead-code warnings.

use cq_engine::{Algorithm, EngineConfig, FaultConfig, Network, Oracle};
use cq_relational::{Catalog, DataType, RelationSchema, Value};
use proptest::prelude::*;

/// `R(A, B)` and `S(D, E)`, all integers.
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("D", DataType::Int), ("E", DataType::Int)]).unwrap())
        .unwrap();
    c
}

/// Asserts that `net` delivered exactly the oracle's notification set for
/// every query it has posed and tuple it has inserted; `context` names the
/// case in the failure message.
pub fn assert_oracle(net: &Network, context: &str) {
    let mut oracle = Oracle::new();
    oracle.ingest(net.posed_queries(), net.inserted_tuples());
    assert_eq!(
        net.delivered_set(),
        oracle.expected().unwrap(),
        "{context}: {} diverged from the oracle",
        net.config().algorithm
    );
}

/// One step of a workload.
#[derive(Clone, Debug)]
pub enum Step {
    PoseSimple,
    PoseWithFilter(i64),
    InsertR(i64, i64),
    InsertS(i64, i64),
}

/// Random steps, four inserts to every pose.
pub fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        1 => Just(Step::PoseSimple),
        1 => (-2i64..2).prop_map(Step::PoseWithFilter),
        4 => ((-20i64..20), (-3i64..3)).prop_map(|(a, b)| Step::InsertR(a, b)),
        4 => ((-20i64..20), (-3i64..3)).prop_map(|(d, e)| Step::InsertS(d, e)),
    ]
}

/// Runs `steps` on a 32-node network, step `n` issued from node `n % 32`.
pub fn run(alg: Algorithm, steps: &[Step], seed: u64, fault: FaultConfig) -> Network {
    let mut net = Network::new(
        EngineConfig::new(alg)
            .with_nodes(32)
            .with_seed(seed)
            .with_fault(fault),
        catalog(),
    );
    for (n, step) in steps.iter().enumerate() {
        let from = net.node_at(n % 32);
        match step {
            Step::PoseSimple => {
                net.pose_query_sql(from, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
                    .unwrap();
            }
            Step::PoseWithFilter(v) => {
                net.pose_query_sql(
                    from,
                    &format!("SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = {v}"),
                )
                .unwrap();
            }
            Step::InsertR(a, b) => {
                net.insert_tuple(from, "R", vec![Value::Int(*a), Value::Int(*b)])
                    .unwrap();
            }
            Step::InsertS(d, e) => {
                net.insert_tuple(from, "S", vec![Value::Int(*d), Value::Int(*e)])
                    .unwrap();
            }
        }
    }
    net
}
