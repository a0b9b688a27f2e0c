//! Kernel benchmarks for the three join-evaluation hot paths this repo's
//! perf work targets: the in-place candidate scans of the value-level
//! tables, the rewriter's tuple-arrival fan-out, and the transport's
//! per-destination batch enqueue. `scripts/bench_snapshot.sh` records their
//! trajectory in `BENCH_6.json`.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use cq_engine::algo::RunMatcher;
use cq_engine::tables::{StoredRewritten, StoredTuple, Vlqt, Vltt};
use cq_engine::{Algorithm, EngineConfig, Matches, Network};
use cq_overlay::Id;
use cq_relational::{
    parse_query, Catalog, DataType, QueryKey, QueryRef, RelationSchema, RewrittenQuery, Side,
    Timestamp, Tuple, Value,
};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("C", DataType::Int), ("D", DataType::Int)]).unwrap())
        .unwrap();
    c
}

fn query(cat: &Catalog, n: u64) -> QueryRef {
    Arc::new(
        parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.C", cat)
            .unwrap()
            .into_query(QueryKey::derive("bench", n), "bench", Timestamp(0), cat)
            .unwrap(),
    )
}

fn r_tuple(cat: &Catalog, a: i64, b: i64) -> Tuple {
    Tuple::new(
        cat.get("R").unwrap().clone(),
        vec![Value::Int(a), Value::Int(b)],
        Timestamp(1),
        a as u64,
    )
    .unwrap()
}

fn s_tuple(cat: &Catalog, c: i64, d: i64) -> Arc<Tuple> {
    Arc::new(
        Tuple::new(
            cat.get("S").unwrap().clone(),
            vec![Value::Int(c), Value::Int(d)],
            Timestamp(1),
            d as u64,
        )
        .unwrap(),
    )
}

/// The evaluator's VLTT scan — a rewritten query arriving at its value
/// target matched against stored tuples in place, through the engine's run
/// matcher (a run of one): decide each candidate, count.
fn bench_candidate_scan_vltt(c: &mut Criterion) {
    let cat = catalog();
    let q = query(&cat, 0);
    let run = [
        RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "C", &r_tuple(&cat, 1, 7))
            .unwrap()
            .unwrap(),
    ];
    let mut group = c.benchmark_group("kernels/candidate-scan-vltt");
    for &n in &[1_000usize, 10_000] {
        let mut vltt = Vltt::new();
        for i in 0..n as i64 {
            vltt.insert(StoredTuple {
                index_id: Id(i as u64),
                attr: "C".to_string(),
                tuple: s_tuple(&cat, 7, i),
            })
            .unwrap();
        }
        // Recycled across iterations, as the engine's accumulator and
        // matcher are.
        let mut matches = Matches::new(false);
        let mut matcher = RunMatcher::default();
        let tuples = vltt.bucket("S", "C", "i:7");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                matches.clear();
                matcher
                    .match_run(&run, tuples, &mut matches, |_| {})
                    .unwrap();
                black_box(matches.len())
            })
        });
    }
    group.finish();
}

/// The evaluator's VLQT scan — a tuple arriving at the value level matched
/// against stored rewritten queries in place (the `match_vlqt_candidates`
/// inner loop).
fn bench_candidate_scan_vlqt(c: &mut Criterion) {
    let cat = catalog();
    let tuple = s_tuple(&cat, 7, 99);
    let mut group = c.benchmark_group("kernels/candidate-scan-vlqt");
    for &n in &[1_000usize, 10_000] {
        let mut vlqt = Vlqt::new();
        for i in 0..n as u64 {
            let q = query(&cat, i);
            let rq =
                RewrittenQuery::rewrite_attribute(&q, Side::Left, "B", "C", &r_tuple(&cat, 1, 7))
                    .unwrap()
                    .unwrap();
            vlqt.insert(StoredRewritten {
                index_id: Id(i),
                rq,
            })
            .unwrap();
        }
        // Recycled across iterations, as the engine's accumulator is.
        let mut matches = Matches::new(false);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                matches.clear();
                for e in vlqt.candidates("S", "C", "i:7") {
                    if e.rq.matches(&tuple).unwrap() {
                        matches.add(&e.rq, &tuple).unwrap();
                    }
                }
                black_box(matches.len())
            })
        });
    }
    group.finish();
}

/// The rewriter's tuple-arrival fan-out, end to end: a tuple triggers every
/// installed query's group at the rewriter, is rewritten, and the rewritten
/// queries are shipped to their value-level evaluators. Scales with the
/// number of installed queries.
fn bench_rewrite_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/rewrite-fanout");
    for alg in [Algorithm::Sai, Algorithm::DaiV] {
        for &queries in &[50usize, 200] {
            let mut net = Network::new(
                EngineConfig::new(alg).with_nodes(256).with_seed(7),
                catalog(),
            );
            let sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.C";
            for i in 0..queries {
                let poser = net.node_at(i % 256);
                net.pose_query_sql(poser, sql).unwrap();
            }
            let mut i = 0i64;
            let id = format!("{}-q{}", alg.name(), queries);
            group.bench_with_input(BenchmarkId::from_parameter(id), &queries, |b, _| {
                b.iter(|| {
                    i += 1;
                    let from = net.node_at((i as usize) % 256);
                    black_box(
                        net.insert_tuple(from, "R", vec![Value::Int(i), Value::Int(i % 32)])
                            .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

/// Per-destination batch enqueue: the steady-state insert workload through
/// the bundling send path.
fn bench_batch_enqueue(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/batch-enqueue");
    let mut net = Network::new(
        EngineConfig::new(Algorithm::Sai)
            .with_nodes(256)
            .with_seed(7),
        catalog(),
    );
    let sql = "SELECT R.A, S.D FROM R, S WHERE R.B = S.C";
    for i in 0..100 {
        let poser = net.node_at(i % 256);
        net.pose_query_sql(poser, sql).unwrap();
    }
    let mut i = 0i64;
    group.bench_function("bundled", |b| {
        b.iter(|| {
            i += 1;
            let from = net.node_at((i as usize) % 256);
            let (rel, values) = if i % 2 == 0 {
                ("R", vec![Value::Int(i), Value::Int(i % 32)])
            } else {
                ("S", vec![Value::Int(i % 32), Value::Int(i)])
            };
            black_box(net.insert_tuple(from, rel, values).unwrap())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_candidate_scan_vltt, bench_candidate_scan_vlqt,
        bench_rewrite_fanout, bench_batch_enqueue
}
criterion_main!(benches);
