//! Regression test for run determinism: a fixed seed must produce
//! byte-identical metric vectors on every execution, whether runs go
//! through the sequential harness or fan out over worker threads.
//!
//! This pins the property the parallel harness and the hash-map changes
//! (SipHash → Fx) rely on: metric aggregation is order-independent, and
//! each `RunConfig` owns an independent seeded `Network`, so scheduling
//! cannot leak into results.

use cq_engine::Algorithm;
use cq_sim::{run, run_many, set_jobs, FaultConfig, RunConfig, RunResult};

fn cfgs() -> Vec<RunConfig> {
    [
        Algorithm::Sai,
        Algorithm::DaiQ,
        Algorithm::DaiT,
        Algorithm::DaiV,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, alg)| RunConfig {
        queries: 12,
        tuples: 80,
        warmup_tuples: 10,
        ..RunConfig::new(alg).with_engine(|e| e.with_nodes(48).with_seed(1000 + i as u64))
    })
    .collect()
}

/// The same runs under a nonzero fault model: seeded loss, duplication,
/// delay, retransmissions, abrupt failures and replication all active.
fn faulty_cfgs() -> Vec<RunConfig> {
    cfgs()
        .into_iter()
        .map(|mut cfg| {
            let mut fault = FaultConfig::lossy(0.15, 77);
            fault.replication = 2;
            cfg.engine.fault = fault;
            cfg.engine.retain_notifications = true;
            cfg.failures = 1;
            cfg
        })
        .collect()
}

/// Exact equality over every metric a figure could read.
fn assert_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.filtering, b.filtering, "{label}: filtering");
    assert_eq!(
        a.rewriter_filtering, b.rewriter_filtering,
        "{label}: rewriter filtering"
    );
    assert_eq!(
        a.evaluator_filtering, b.evaluator_filtering,
        "{label}: evaluator filtering"
    );
    assert_eq!(a.storage, b.storage, "{label}: storage");
    assert_eq!(
        a.evaluator_storage, b.evaluator_storage,
        "{label}: evaluator storage"
    );
    assert_eq!(
        a.stored_rewritten, b.stored_rewritten,
        "{label}: stored rewritten"
    );
    assert_eq!(a.stored_tuples, b.stored_tuples, "{label}: stored tuples");
    assert_eq!(a.traffic, b.traffic, "{label}: traffic");
    assert_eq!(a.total_traffic, b.total_traffic, "{label}: total traffic");
    assert_eq!(
        a.install_traffic, b.install_traffic,
        "{label}: install traffic"
    );
    assert_eq!(a.notifications, b.notifications, "{label}: notifications");
    assert_eq!(a.streamed, b.streamed, "{label}: streamed");
    assert_eq!(a.faults, b.faults, "{label}: fault counters");
    assert_eq!(
        a.expected_notifications, b.expected_notifications,
        "{label}: expected notifications"
    );
    assert_eq!(
        a.delivered_notifications, b.delivered_notifications,
        "{label}: delivered notifications"
    );
    assert_eq!(a.recall, b.recall, "{label}: recall");
}

#[test]
fn same_seed_is_bit_identical_across_sequential_runs() {
    for cfg in cfgs() {
        let first = run(&cfg);
        let second = run(&cfg);
        assert_identical(&first, &second, cfg.engine.algorithm.name());
    }
}

#[test]
fn parallel_runs_match_sequential_bit_for_bit() {
    let cfgs = cfgs();
    let sequential: Vec<RunResult> = cfgs.iter().map(run).collect();

    set_jobs(4);
    let parallel = run_many(&cfgs);
    set_jobs(1);

    assert_eq!(parallel.len(), sequential.len());
    for ((cfg, seq), par) in cfgs.iter().zip(&sequential).zip(&parallel) {
        assert_identical(seq, par, cfg.engine.algorithm.name());
    }
}

#[test]
fn faulty_runs_are_bit_identical_too() {
    // The fault pipe draws from its own seeded generator, so an active
    // fault model must stay exactly as deterministic as a clean run —
    // sequentially and across worker threads.
    let cfgs = faulty_cfgs();
    let sequential: Vec<RunResult> = cfgs.iter().map(run).collect();
    for (cfg, first) in cfgs.iter().zip(&sequential) {
        let second = run(cfg);
        assert_identical(first, &second, cfg.engine.algorithm.name());
        assert!(
            first.faults.messages_lost > 0,
            "{}: the fault model must actually fire",
            cfg.engine.algorithm.name()
        );
    }

    set_jobs(4);
    let parallel = run_many(&cfgs);
    set_jobs(1);
    for ((cfg, seq), par) in cfgs.iter().zip(&sequential).zip(&parallel) {
        assert_identical(seq, par, cfg.engine.algorithm.name());
    }
}
