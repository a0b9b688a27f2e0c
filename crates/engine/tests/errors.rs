//! Error-path coverage: invalid queries, unknown relations, operations on
//! departed nodes.

use cq_engine::{Algorithm, EngineConfig, EngineError, Network};
use cq_relational::{Catalog, DataType, RelationSchema, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c
}

fn net() -> Network {
    Network::new(EngineConfig::new(Algorithm::Sai).with_nodes(16), catalog())
}

#[test]
fn malformed_sql_is_a_relational_error() {
    let mut n = net();
    let a = n.node_at(0);
    let err = n.pose_query_sql(a, "SELECT FROM WHERE").unwrap_err();
    assert!(matches!(err, EngineError::Relational(_)), "{err}");
    // error display mentions the parse failure
    assert!(err.to_string().contains("parse") || err.to_string().contains("expected"));
}

#[test]
fn unknown_relation_in_query_is_reported() {
    let mut n = net();
    let a = n.node_at(0);
    let err = n
        .pose_query_sql(a, "SELECT X.A FROM X, S WHERE X.A = S.C")
        .unwrap_err();
    assert!(matches!(err, EngineError::Relational(_)));
}

#[test]
fn unknown_relation_in_tuple_is_reported() {
    let mut n = net();
    let a = n.node_at(0);
    let err = n.insert_tuple(a, "Nope", vec![Value::Int(1)]).unwrap_err();
    assert!(matches!(err, EngineError::Relational(_)));
}

#[test]
fn wrong_arity_tuple_is_reported() {
    let mut n = net();
    let a = n.node_at(0);
    let err = n.insert_tuple(a, "R", vec![Value::Int(1)]).unwrap_err();
    assert!(matches!(err, EngineError::Relational(_)));
}

#[test]
fn operations_from_departed_nodes_fail() {
    let mut n = net();
    let a = n.node_at(0);
    let b = n.node_at(1);
    n.node_leave(b).unwrap();
    assert!(matches!(
        n.insert_tuple(b, "R", vec![Value::Int(1), Value::Int(2)]),
        Err(EngineError::UnknownNode)
    ));
    assert!(matches!(
        n.pose_query_sql(b, "SELECT R.A FROM R, S WHERE R.B = S.C"),
        Err(EngineError::UnknownNode)
    ));
    // the rest of the network is unaffected
    n.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
}

#[test]
fn double_leave_fails_cleanly() {
    let mut n = net();
    let b = n.node_at(1);
    n.node_leave(b).unwrap();
    assert!(n.node_leave(b).is_err());
}

#[test]
fn failed_queries_leave_no_partial_state() {
    let mut n = net();
    let a = n.node_at(0);
    // A T2 query under SAI is rejected before any message is sent.
    let before = n.metrics().total_traffic();
    let err = n
        .pose_query_sql(a, "SELECT R.A FROM R, S WHERE R.A + R.B = S.C")
        .unwrap_err();
    assert!(matches!(err, EngineError::UnsupportedByAlgorithm { .. }));
    assert_eq!(
        n.metrics().total_traffic(),
        before,
        "no traffic for rejected queries"
    );
    let stored: usize = n
        .ring()
        .alive_nodes()
        .map(|h| n.node_state(h).tables.alqt.len())
        .sum();
    assert_eq!(stored, 0, "nothing indexed");
}

#[test]
fn error_types_render_and_chain() {
    use std::error::Error;
    let mut n = net();
    let a = n.node_at(0);
    let err = n.pose_query_sql(a, "garbage").unwrap_err();
    assert!(!err.to_string().is_empty());
    assert!(err.source().is_some(), "relational cause is preserved");
}
