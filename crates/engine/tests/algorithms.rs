//! End-to-end correctness of the four algorithms: every algorithm must
//! deliver exactly the notification-content set the centralized oracle
//! computes, under a variety of interleavings of queries and tuples.

pub mod common;

use common::assert_oracle;
use cq_engine::{Algorithm, EngineConfig, Network, TrafficKind};
use cq_relational::{Catalog, DataType, RelationSchema, Value};

fn catalog() -> Catalog {
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
    c
}

fn network(alg: Algorithm) -> Network {
    Network::new(
        EngineConfig::new(alg).with_nodes(48).with_seed(7),
        catalog(),
    )
}

/// A deterministic pseudo-random workload driver shared by the tests.
fn run_mixed_workload(alg: Algorithm, queries: usize, tuples: usize, domain: i64) -> Network {
    let mut net = network(alg);
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..queries {
        let poser = net.node_at((rnd() % 48) as usize);
        net.pose_query_sql(poser, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        // interleave a few tuples between query postings
        for _ in 0..(tuples / queries.max(1)) {
            let from = net.node_at((rnd() % 48) as usize);
            let rel = if rnd() % 2 == 0 { "R" } else { "S" };
            let vals: Vec<Value> = (0..3)
                .map(|_| Value::Int((rnd() % domain as u64) as i64))
                .collect();
            net.insert_tuple(from, rel, vals).unwrap();
        }
        let _ = i;
    }
    net
}

#[test]
fn sai_matches_oracle_on_mixed_workload() {
    let net = run_mixed_workload(Algorithm::Sai, 8, 80, 6);
    assert!(
        !net.delivered_set().is_empty(),
        "workload must produce matches"
    );
    assert_oracle(&net, "mixed workload");
}

#[test]
fn dai_q_matches_oracle_on_mixed_workload() {
    let net = run_mixed_workload(Algorithm::DaiQ, 8, 80, 6);
    assert!(!net.delivered_set().is_empty());
    assert_oracle(&net, "mixed workload");
}

#[test]
fn dai_t_matches_oracle_on_mixed_workload() {
    let net = run_mixed_workload(Algorithm::DaiT, 8, 80, 6);
    assert!(!net.delivered_set().is_empty());
    assert_oracle(&net, "mixed workload");
}

#[test]
fn dai_v_matches_oracle_on_mixed_workload() {
    let net = run_mixed_workload(Algorithm::DaiV, 8, 80, 6);
    assert!(!net.delivered_set().is_empty());
    assert_oracle(&net, "mixed workload");
}

#[test]
fn tuples_inserted_before_a_query_never_trigger_it() {
    // Time semantics (Section 3.2): pubT(t) >= insT(q) for *both* tuples.
    for alg in Algorithm::ALL {
        let mut net = network(alg);
        let a = net.node_at(0);
        net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(7), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(2), Value::Int(7), Value::Int(0)])
            .unwrap();
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        assert!(
            net.delivered_set().is_empty(),
            "{alg}: old tuples must not match"
        );
        // A pair straddling the insertion time must not match either.
        net.insert_tuple(a, "S", vec![Value::Int(3), Value::Int(7), Value::Int(0)])
            .unwrap();
        assert!(
            net.delivered_set().is_empty(),
            "{alg}: pre-query R tuple must not join post-query S tuple"
        );
        // A fully post-query pair must match.
        net.insert_tuple(a, "R", vec![Value::Int(4), Value::Int(7), Value::Int(0)])
            .unwrap();
        assert_eq!(net.delivered_set().len(), 1, "{alg}");
        assert_oracle(&net, "insT");
    }
}

#[test]
fn both_arrival_orders_produce_the_join() {
    for alg in Algorithm::ALL {
        let mut net = network(alg);
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        // R before S
        net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(5), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(2), Value::Int(5), Value::Int(0)])
            .unwrap();
        // S before R (different join value to keep pairs apart)
        net.insert_tuple(a, "S", vec![Value::Int(3), Value::Int(6), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "R", vec![Value::Int(4), Value::Int(6), Value::Int(0)])
            .unwrap();
        let got = net.delivered_set();
        assert_eq!(got.len(), 2, "{alg}: both orders must join, got {got:?}");
        assert_oracle(&net, "arrival orders");
    }
}

#[test]
fn no_duplicate_notifications_with_multiplicity() {
    // The DAI algorithms have two rewriters per query; Figure 4.3 shows the
    // naive design would create duplicates. Count with multiplicity at the
    // subscriber inbox: each (distinct-content) pair must arrive exactly
    // once.
    for alg in Algorithm::ALL {
        let mut net = network(alg);
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(7), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(2), Value::Int(7), Value::Int(0)])
            .unwrap();
        let inbox = net.inbox(a);
        assert_eq!(
            inbox.len(),
            1,
            "{alg}: expected exactly one notification, got {inbox:?}"
        );
    }
}

#[test]
fn filters_restrict_matches() {
    for alg in Algorithm::ALL {
        let mut net = network(alg);
        let a = net.node_at(0);
        net.pose_query_sql(
            a,
            "SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F = 1 AND R.C = 2",
        )
        .unwrap();
        // matches the join but fails R.C = 2
        net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(7), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(2), Value::Int(7), Value::Int(1)])
            .unwrap();
        assert!(net.delivered_set().is_empty(), "{alg}");
        // passes both filters
        net.insert_tuple(a, "R", vec![Value::Int(9), Value::Int(7), Value::Int(2)])
            .unwrap();
        assert_eq!(net.delivered_set().len(), 1, "{alg}");
        // fails S.F = 1
        net.insert_tuple(a, "S", vec![Value::Int(3), Value::Int(7), Value::Int(0)])
            .unwrap();
        assert_eq!(net.delivered_set().len(), 1, "{alg}");
        assert_oracle(&net, "filters");
    }
}

#[test]
fn multiple_queries_same_condition_all_notified() {
    // Grouping (Section 4.3.5) must not lose per-query notifications.
    for alg in Algorithm::ALL {
        let mut net = network(alg);
        let a = net.node_at(0);
        let b = net.node_at(1);
        net.pose_query_sql(a, "SELECT R.A FROM R, S WHERE R.B = S.E")
            .unwrap();
        net.pose_query_sql(b, "SELECT S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(4), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(2), Value::Int(4), Value::Int(0)])
            .unwrap();
        assert_eq!(net.inbox(a).len(), 1, "{alg}: subscriber a");
        assert_eq!(net.inbox(b).len(), 1, "{alg}: subscriber b");
        assert_oracle(&net, "grouping");
    }
}

#[test]
fn t2_queries_run_under_dai_v() {
    let mut net = network(Algorithm::DaiV);
    let a = net.node_at(0);
    // The paper's Section 4.5 example query.
    net.pose_query_sql(
        a,
        "SELECT R.A, S.D FROM R, S WHERE 4*R.B + R.C + 8 = 5*S.E + S.D - S.F",
    )
    .unwrap();
    // valJC(left) = 4*4 + 9 + 8 = 33; right: 5*6 + 5 - 2 = 33.
    net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(4), Value::Int(9)])
        .unwrap();
    net.insert_tuple(a, "S", vec![Value::Int(5), Value::Int(6), Value::Int(2)])
        .unwrap();
    let got = net.delivered_set();
    assert_eq!(got.len(), 1);
    let n = got.iter().next().unwrap();
    assert_eq!(n.values, vec![Value::Int(1), Value::Int(5)]);
    assert_oracle(&net, "T2");
}

#[test]
fn t2_queries_are_rejected_by_t1_algorithms() {
    let sql = "SELECT R.A FROM R, S WHERE R.B + R.C = S.E";
    for alg in [Algorithm::Sai, Algorithm::DaiQ, Algorithm::DaiT] {
        let mut net = network(alg);
        let a = net.node_at(0);
        let err = net.pose_query_sql(a, sql).unwrap_err();
        assert!(
            matches!(err, cq_engine::EngineError::UnsupportedByAlgorithm { algorithm, .. } if algorithm == alg),
            "{alg}: {err}"
        );
    }
    let mut net = network(Algorithm::DaiV);
    let a = net.node_at(0);
    net.pose_query_sql(a, sql)
        .expect("DAI-V evaluates T2 queries");
}

#[test]
fn replication_preserves_correctness() {
    for alg in Algorithm::ALL {
        let mut net = Network::new(
            EngineConfig::new(alg)
                .with_nodes(48)
                .with_replication(4)
                .with_seed(3),
            catalog(),
        );
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        for v in 0..6 {
            net.insert_tuple(
                a,
                "R",
                vec![Value::Int(v), Value::Int(v % 3), Value::Int(0)],
            )
            .unwrap();
            net.insert_tuple(
                a,
                "S",
                vec![Value::Int(v + 10), Value::Int(v % 3), Value::Int(0)],
            )
            .unwrap();
        }
        assert_oracle(&net, "replication");
    }
}

#[test]
fn retention_off_preserves_counts_and_traffic() {
    // Large-scale experiment runs disable notification retention; delivery
    // counts and traffic must be identical, only the bodies disappear.
    let run = |retain: bool| {
        let mut net = Network::new(
            EngineConfig::new(Algorithm::Sai)
                .with_nodes(48)
                .with_retained_notifications(retain)
                .with_seed(6),
            catalog(),
        );
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        for i in 0..12 {
            net.insert_tuple(
                a,
                "R",
                vec![Value::Int(i), Value::Int(i % 3), Value::Int(0)],
            )
            .unwrap();
            net.insert_tuple(
                a,
                "S",
                vec![Value::Int(i), Value::Int(i % 3), Value::Int(0)],
            )
            .unwrap();
        }
        (
            net.metrics().notifications_delivered,
            net.metrics().traffic(TrafficKind::Notify),
            net.inbox(a).len(),
        )
    };
    let (count_on, traffic_on, inbox_on) = run(true);
    let (count_off, traffic_off, inbox_off) = run(false);
    assert_eq!(count_on, count_off);
    assert_eq!(traffic_on, traffic_off);
    assert!(inbox_on > 0);
    assert_eq!(inbox_off, 0, "bodies are not retained");
}

#[test]
fn keyed_dai_v_matches_oracle() {
    // The Section 4.5 extension trades traffic for distribution; results
    // must be identical to the grouped variant and the oracle.
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiV)
            .with_nodes(48)
            .with_dai_v_keyed(true)
            .with_seed(8),
        catalog(),
    );
    let a = net.node_at(0);
    let b = net.node_at(1);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    net.pose_query_sql(b, "SELECT R.C FROM R, S WHERE R.B = S.E")
        .unwrap();
    net.pose_query_sql(a, "SELECT S.F FROM R, S WHERE 2*R.B = S.E + S.F")
        .unwrap();
    for i in 0..8 {
        net.insert_tuple(
            a,
            "R",
            vec![Value::Int(i), Value::Int(i % 3), Value::Int(9)],
        )
        .unwrap();
        net.insert_tuple(
            a,
            "S",
            vec![Value::Int(i), Value::Int(i % 3), Value::Int(i % 4)],
        )
        .unwrap();
    }
    assert_oracle(&net, "keyed");
    assert!(!net.delivered_set().is_empty());
}

#[test]
fn replication_does_not_duplicate_triggering() {
    // Regression: with k replicas, a tuple is routed to exactly one replica
    // and must trigger each query exactly once — even when several replica
    // identifiers happen to be owned by the same physical node. DAI-Q has
    // no rewritten-query dedup, so any double-trigger shows up as a
    // duplicate inbox entry.
    for k in [2usize, 4, 8] {
        let mut net = Network::new(
            EngineConfig::new(Algorithm::DaiQ)
                .with_nodes(8)
                .with_replication(k)
                .with_seed(k as u64),
            catalog(),
        );
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(7), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(2), Value::Int(7), Value::Int(0)])
            .unwrap();
        assert_eq!(
            net.inbox(a).len(),
            1,
            "k={k}: one matching pair must produce exactly one notification"
        );
    }
}

#[test]
fn jfrt_off_changes_traffic_not_results() {
    let run = |jfrt: bool| {
        let mut net = Network::new(
            EngineConfig::new(Algorithm::Sai)
                .with_nodes(64)
                .with_jfrt(jfrt)
                .with_seed(11),
            catalog(),
        );
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        // Many tuples with the same join value on both sides: whichever side
        // SAI indexed the query by, the reindex target repeats — which is
        // exactly what the JFRT exploits.
        for i in 0..20 {
            net.insert_tuple(a, "R", vec![Value::Int(i), Value::Int(7), Value::Int(0)])
                .unwrap();
            net.insert_tuple(
                a,
                "S",
                vec![Value::Int(100 + i), Value::Int(7), Value::Int(0)],
            )
            .unwrap();
        }
        let hops = net.metrics().traffic(TrafficKind::Reindex).hops;
        let delivered = net.delivered_set();
        (hops, delivered)
    };
    let (hops_on, set_on) = run(true);
    let (hops_off, set_off) = run(false);
    assert_eq!(set_on, set_off, "JFRT must not change results");
    assert!(
        hops_on < hops_off,
        "JFRT must reduce reindex hops ({hops_on} !< {hops_off})"
    );
}

#[test]
fn dai_t_reindexes_each_rewritten_query_once() {
    // Section 4.4.3: after the rewritten queries for a value have been
    // distributed, repeated tuples with that value cause no reindex traffic.
    let mut net = network(Algorithm::DaiT);
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(7), Value::Int(0)])
        .unwrap();
    let first = net.metrics().traffic(TrafficKind::Reindex).messages;
    assert!(first >= 1);
    // Same select values (none on R side... select is S.D so R contributes
    // no select values) and same join value → identical rewritten key.
    net.insert_tuple(a, "R", vec![Value::Int(2), Value::Int(7), Value::Int(0)])
        .unwrap();
    let second = net.metrics().traffic(TrafficKind::Reindex).messages;
    assert_eq!(
        first, second,
        "duplicate rewritten query must not be resent"
    );
}

#[test]
fn strategy_variants_all_correct() {
    use cq_engine::IndexStrategy;
    for strategy in IndexStrategy::ALL {
        let mut net = Network::new(
            EngineConfig::new(Algorithm::Sai)
                .with_nodes(48)
                .with_strategy(strategy)
                .with_seed(9),
            catalog(),
        );
        let a = net.node_at(0);
        // Warm up arrival statistics so probing strategies have data.
        for i in 0..10 {
            net.insert_tuple(a, "R", vec![Value::Int(i), Value::Int(i), Value::Int(0)])
                .unwrap();
            net.insert_tuple(
                a,
                "S",
                vec![Value::Int(i), Value::Int(i % 2), Value::Int(0)],
            )
            .unwrap();
        }
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        net.insert_tuple(a, "R", vec![Value::Int(50), Value::Int(3), Value::Int(0)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(51), Value::Int(3), Value::Int(0)])
            .unwrap();
        assert_oracle(&net, &format!("strategy {strategy:?}"));
        if strategy.probes_rewriters() {
            assert!(net.metrics().traffic(TrafficKind::Probe).messages >= 2);
        }
    }
}

#[test]
fn string_joins_work() {
    for alg in Algorithm::ALL {
        let mut c = Catalog::new();
        c.register(
            RelationSchema::of("P", &[("Name", DataType::Str), ("City", DataType::Str)]).unwrap(),
        )
        .unwrap();
        c.register(
            RelationSchema::of("Q", &[("Town", DataType::Str), ("Zip", DataType::Int)]).unwrap(),
        )
        .unwrap();
        let mut net = Network::new(EngineConfig::new(alg).with_nodes(32), c);
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT P.Name, Q.Zip FROM P, Q WHERE P.City = Q.Town")
            .unwrap();
        net.insert_tuple(a, "P", vec![Value::from("alice"), Value::from("chania")])
            .unwrap();
        net.insert_tuple(a, "Q", vec![Value::from("chania"), Value::Int(73100)])
            .unwrap();
        net.insert_tuple(a, "Q", vec![Value::from("athens"), Value::Int(10000)])
            .unwrap();
        let got = net.delivered_set();
        assert_eq!(got.len(), 1, "{alg}");
        assert_eq!(
            got.iter().next().unwrap().values,
            vec![Value::from("alice"), Value::Int(73100)]
        );
    }
}

#[test]
fn strings_that_print_alike_are_different_rewritings() {
    // Regression: `R("a+s:b", "c", 7)` and `R("a", "b+s:c", 7)` render to
    // one `Key(q')` text, `n#0/L+s:a+s:b+s:c+i:7`. Deduplicating VLQT
    // entries (SAI, DAI-T) and DAI-T's rewriter memory by that text dropped
    // the second rewriting, and a later `S(·, 7)` produced one notification
    // where the oracle expects two. Several seeds, so that SAI's random
    // choice indexes the query by `R` in some of them.
    for alg in Algorithm::ALL {
        for seed in 0..6 {
            let mut c = Catalog::new();
            let r_attrs = [
                ("A", DataType::Str),
                ("B", DataType::Str),
                ("C", DataType::Int),
            ];
            c.register(RelationSchema::of("R", &r_attrs).unwrap())
                .unwrap();
            c.register(
                RelationSchema::of("S", &[("D", DataType::Int), ("C", DataType::Int)]).unwrap(),
            )
            .unwrap();
            let mut net = Network::new(EngineConfig::new(alg).with_nodes(32).with_seed(seed), c);
            let a = net.node_at(0);
            net.pose_query_sql(a, "SELECT R.A, R.B FROM R, S WHERE R.C = S.C")
                .unwrap();
            for (x, y) in [("a+s:b", "c"), ("a", "b+s:c")] {
                net.insert_tuple(a, "R", vec![x.into(), y.into(), Value::Int(7)])
                    .unwrap();
            }
            net.insert_tuple(a, "S", vec![Value::Int(1), Value::Int(7)])
                .unwrap();
            assert_eq!(net.delivered_set().len(), 2, "{alg}, seed {seed}");
            assert_oracle(&net, &format!("seed {seed}"));
        }
    }
}
