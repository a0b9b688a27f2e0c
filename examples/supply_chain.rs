//! A three-way continuous join via the [`cq_sim::Pipeline`] — the
//! thesis's future-work direction (multi-way joins) realized by chaining
//! two-way stages through a derived relation.
//!
//! Scenario: match purchase orders to shipments to customs clearances as the
//! three streams arrive independently.
//!
//! ```text
//! cargo run --release --example supply_chain
//! ```

use cq_engine::{Algorithm, EngineConfig, Network};
use cq_relational::{Catalog, DataType, RelationSchema, Value};
use cq_sim::Pipeline;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        RelationSchema::of(
            "Orders",
            &[("OrderId", DataType::Int), ("Sku", DataType::Int)],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        RelationSchema::of(
            "Shipments",
            &[("Sku", DataType::Int), ("Container", DataType::Int)],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        RelationSchema::of(
            "Clearances",
            &[("Container", DataType::Int), ("Port", DataType::Str)],
        )
        .unwrap(),
    )
    .unwrap();
    // Derived: (OrderId, Container) pairs from Orders ⋈ Shipments.
    c.register(
        RelationSchema::of(
            "OrderShipments",
            &[("OrderId", DataType::Int), ("Container", DataType::Int)],
        )
        .unwrap(),
    )
    .unwrap();
    c
}

fn main() {
    let mut net = Network::new(EngineConfig::new(Algorithm::DaiT).with_nodes(96), catalog());
    let driver = net.node_at(0);
    let mut pipeline = Pipeline::new(driver);

    pipeline
        .add_stage(
            &mut net,
            "SELECT Orders.OrderId, Shipments.Container \
             FROM Orders, Shipments WHERE Orders.Sku = Shipments.Sku",
            "OrderShipments",
        )
        .unwrap();
    pipeline
        .add_final_stage(
            &mut net,
            "SELECT OrderShipments.OrderId, Clearances.Port \
             FROM OrderShipments, Clearances \
             WHERE OrderShipments.Container = Clearances.Container",
        )
        .unwrap();

    // The three streams publish from different nodes, out of order.
    let erp = net.node_at(10);
    let freight = net.node_at(50);
    let customs = net.node_at(80);

    net.insert_tuple(erp, "Orders", vec![Value::Int(5001), Value::Int(77)])
        .unwrap();
    net.insert_tuple(
        customs,
        "Clearances",
        vec![Value::Int(31), "Piraeus".into()],
    )
    .unwrap();
    net.insert_tuple(freight, "Shipments", vec![Value::Int(77), Value::Int(31)])
        .unwrap();
    net.insert_tuple(erp, "Orders", vec![Value::Int(5002), Value::Int(88)])
        .unwrap();
    pipeline.pump(&mut net).unwrap();

    // Order 5001 → container 31 → Piraeus. Order 5002's SKU never shipped.
    for n in pipeline.results(&net) {
        println!("order matched end to end: {n}");
    }
    assert_eq!(pipeline.results(&net).len(), 1);

    // A later clearance completes nothing new for 5001 (content dedup), but
    // a new shipment for SKU 88 completes order 5002 through the existing
    // clearance pipeline only when its container also clears.
    net.insert_tuple(freight, "Shipments", vec![Value::Int(88), Value::Int(32)])
        .unwrap();
    pipeline.pump(&mut net).unwrap();
    assert_eq!(
        pipeline.results(&net).len(),
        1,
        "container 32 not cleared yet"
    );

    net.insert_tuple(
        customs,
        "Clearances",
        vec![Value::Int(32), "Rotterdam".into()],
    )
    .unwrap();
    pipeline.pump(&mut net).unwrap();
    for n in pipeline.results(&net) {
        println!("final: {n}");
    }
    assert_eq!(pipeline.results(&net).len(), 2);
    println!("three-way continuous join complete");
}
