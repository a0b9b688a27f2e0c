//! Runs the same workload under all four algorithms and prints the
//! comparison the paper's Table 4.1 draws: who indexes what, who stores
//! what, and what it costs in overlay hops.
//!
//! ```text
//! cargo run --release --example algorithm_tour
//! ```

use cq_engine::{Algorithm, Oracle, TrafficKind};
use cq_sim::{run, RunConfig};
use cq_workload::WorkloadConfig;

fn main() {
    println!(
        "{:<7} {:>12} {:>12} {:>12} {:>10} {:>9} {:>8}",
        "alg", "hops/tuple", "reindex/t", "TF total", "TS total", "rewr.stor", "tup.stor"
    );
    for alg in Algorithm::ALL {
        let cfg = RunConfig {
            queries: 40,
            tuples: 400,
            workload: WorkloadConfig {
                domain: 60,
                ..WorkloadConfig::default()
            },
            ..RunConfig::new(alg)
        };
        let r = run(&cfg);
        println!(
            "{:<7} {:>12.1} {:>12.1} {:>12.0} {:>10.0} {:>9} {:>8}",
            alg.name(),
            r.hops_per_tuple(),
            r.traffic_of(TrafficKind::Reindex).messages as f64 / 400.0,
            r.total_filtering(),
            r.total_storage(),
            r.stored_rewritten,
            r.stored_tuples,
        );
    }

    // And the ground truth: whatever the algorithm, the delivered
    // notification set is identical (shown here for one small workload —
    // exhaustively verified by the test suite's oracle comparisons).
    let mut sets = Vec::new();
    for alg in Algorithm::ALL {
        let mut catalog = cq_relational::Catalog::new();
        catalog
            .register(
                cq_relational::RelationSchema::of(
                    "R",
                    &[
                        ("A", cq_relational::DataType::Int),
                        ("B", cq_relational::DataType::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
            .register(
                cq_relational::RelationSchema::of(
                    "S",
                    &[
                        ("C", cq_relational::DataType::Int),
                        ("D", cq_relational::DataType::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let mut net =
            cq_engine::Network::new(cq_engine::EngineConfig::new(alg).with_nodes(32), catalog);
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.C")
            .unwrap();
        for i in 0..10 {
            net.insert_tuple(
                a,
                "R",
                vec![
                    cq_relational::Value::Int(i),
                    cq_relational::Value::Int(i % 3),
                ],
            )
            .unwrap();
            net.insert_tuple(
                a,
                "S",
                vec![
                    cq_relational::Value::Int(i % 3),
                    cq_relational::Value::Int(100 + i),
                ],
            )
            .unwrap();
        }
        let mut oracle = Oracle::new();
        oracle.ingest(net.posed_queries(), net.inserted_tuples());
        assert_eq!(net.delivered_set(), oracle.expected().unwrap(), "{alg}");
        sets.push(net.delivered_set());
    }
    assert!(sets.windows(2).all(|w| w[0] == w[1]));
    println!(
        "\nall four algorithms delivered the identical notification set ({} items)",
        sets[0].len()
    );
}
