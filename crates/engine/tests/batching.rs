//! The zero-clone join-evaluation kernels pinned against the oracle for all
//! four algorithms: iterating table entries in place must produce exactly
//! the match sets the clone-and-collect implementation did. (That bundled
//! delivery equals per-message delivery is pinned byte for byte by
//! `tests/delivery.rs` against fixtures the per-message build wrote.)

pub mod common;

use common::{assert_oracle, replay, Command, FILTERED, JOIN};
use cq_engine::{Algorithm, EngineConfig, Network};
use cq_relational::{Catalog, DataType, RelationSchema, Value};

/// The zero-clone kernels (in-place ALQT/VLQT/VLTT/value-store scans) must
/// produce exactly the oracle's match set for every algorithm — T1 for all
/// four, plus the paper's T2 example under DAI-V.
#[test]
fn zero_clone_kernels_match_oracle_for_all_algorithms() {
    let cmds: Vec<Command> = (0..3)
        .map(|n| Command::pose(n, JOIN))
        .chain((0..2).map(|v| Command::pose(3 + v, FILTERED[2 + v])))
        .chain((0..24).map(|i| match i % 2 {
            0 => Command::r(5 + i as usize, i, i % 4),
            _ => Command::s(5 + i as usize, i, i % 4),
        }))
        .collect();
    for alg in Algorithm::ALL {
        let net = replay(EngineConfig::new(alg).with_nodes(32).with_seed(7), &cmds);
        assert_oracle(&net, "zero-clone kernels");
    }
}

/// T2 coverage of the zero-clone DAI-V path (arithmetic join condition —
/// exercises `default_index_attr`'s random pick over the condition
/// attributes and the value-store scan).
#[test]
fn zero_clone_dai_v_t2_matches_oracle() {
    let mut c = Catalog::new();
    c.register(
        RelationSchema::of(
            "R",
            &[
                ("A", DataType::Int),
                ("B", DataType::Int),
                ("C", DataType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(
        RelationSchema::of(
            "S",
            &[
                ("D", DataType::Int),
                ("E", DataType::Int),
                ("F", DataType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiV)
            .with_nodes(32)
            .with_seed(7),
        c,
    );
    let a = net.node_at(0);
    net.pose_query_sql(
        a,
        "SELECT R.A, S.D FROM R, S WHERE 4*R.B + R.C + 8 = 5*S.E + S.D - S.F",
    )
    .unwrap();
    for i in 0..12i64 {
        let from = net.node_at((i as usize) % 32);
        net.insert_tuple(
            from,
            "R",
            vec![Value::Int(i), Value::Int(i % 3), Value::Int(i % 5)],
        )
        .unwrap();
        net.insert_tuple(
            from,
            "S",
            vec![Value::Int(i % 5), Value::Int(i % 3), Value::Int(i % 2)],
        )
        .unwrap();
    }
    assert_oracle(&net, "T2");
}
