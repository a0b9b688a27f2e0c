//! The paper's motivating e-learning scenario (Section 3.2): an EDUTELLA-
//! style network where research papers are published as tuples and users
//! subscribe to author alerts — including the Section 4.6 offline story:
//! a subscriber disconnects, misses a publication, and receives the stored
//! notification when it reconnects.
//!
//! ```text
//! cargo run --release --example citation_alerts
//! ```

use cq_engine::{Algorithm, EngineConfig, Network};
use cq_relational::{Catalog, DataType, RelationSchema, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        RelationSchema::of(
            "Document",
            &[
                ("Id", DataType::Int),
                ("Title", DataType::Str),
                ("Conference", DataType::Str),
                ("AuthorId", DataType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        RelationSchema::of(
            "Authors",
            &[
                ("Id", DataType::Int),
                ("Name", DataType::Str),
                ("Surname", DataType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c
}

fn main() {
    let mut net = Network::new(EngineConfig::new(Algorithm::Sai).with_nodes(100), catalog());

    // "Notify me whenever author Smith publishes a new paper" — the paper's
    // example query, verbatim.
    let alice = net.node_at(3);
    net.pose_query_sql(
        alice,
        "SELECT D.Title, D.Conference FROM Document AS D, Authors AS A \
         WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'",
    )
    .unwrap();

    // Author registry entries arrive from some digital-library node.
    let library = net.node_at(41);
    net.insert_tuple(
        library,
        "Authors",
        vec![Value::Int(17), "John".into(), "Smith".into()],
    )
    .unwrap();
    net.insert_tuple(
        library,
        "Authors",
        vec![Value::Int(18), "Ada".into(), "Jones".into()],
    )
    .unwrap();

    // Papers are published as they appear.
    net.insert_tuple(
        library,
        "Document",
        vec![
            Value::Int(1),
            "P2P Joins".into(),
            "ICDE".into(),
            Value::Int(17),
        ],
    )
    .unwrap();
    net.insert_tuple(
        library,
        "Document",
        vec![
            Value::Int(2),
            "Unrelated".into(),
            "VLDB".into(),
            Value::Int(18),
        ],
    )
    .unwrap();

    println!("alice's alerts while online:");
    for n in net.inbox(alice) {
        println!("  {n}");
    }
    assert_eq!(net.inbox(alice).len(), 1, "only the Smith paper matches");

    // Alice disconnects; a new Smith paper appears meanwhile.
    net.node_leave(alice).unwrap();
    net.stabilize(2).unwrap();
    net.insert_tuple(
        library,
        "Document",
        vec![
            Value::Int(3),
            "Continuous Queries".into(),
            "ICDE".into(),
            Value::Int(17),
        ],
    )
    .unwrap();
    let held: usize = net
        .ring()
        .alive_nodes()
        .map(|h| net.node_state(h).tables.offline.len())
        .sum();
    println!("alice offline — {held} notification(s) stored at her key's successor");

    // On reconnection she receives everything related to Id(alice).
    net.node_rejoin(alice).unwrap();
    println!("alice's alerts after reconnecting:");
    for n in net.inbox(alice) {
        println!("  {n}");
    }
    assert_eq!(
        net.inbox(alice).len(),
        2,
        "the missed alert was delivered on rejoin"
    );
}
