//! End-to-end socket suite: a quick experiment over real TCP loopback
//! sockets must deliver exactly what the in-memory simulator delivers at
//! the same seed, for every algorithm — on a perfect channel, and under
//! injected faults with the failure detector running. Every case is one
//! `compare` call, which drives the harness's loop on both backends.

use cq_engine::{Algorithm, FaultConfig, SuspicionConfig};
use cq_sim::cluster::compare;
use cq_sim::{QuerySource, RunConfig};

/// A socket-suite run: installation traffic stays in the counters and
/// notification bodies are kept, so every delivered set is compared.
fn small(
    algorithm: Algorithm,
    nodes: usize,
    queries: usize,
    tuples: usize,
    seed: u64,
) -> RunConfig {
    RunConfig {
        queries,
        tuples,
        measure_stream_only: false,
        ..RunConfig::new(algorithm).with_engine(|e| {
            e.with_nodes(nodes)
                .with_seed(seed)
                .with_retained_notifications(true)
        })
    }
}

#[test]
fn tcp_loopback_matches_simulator() {
    for algorithm in [Algorithm::Sai, Algorithm::DaiT] {
        compare(&small(algorithm, 24, 8, 60, 11)).unwrap_or_else(|d| panic!("{algorithm}: {d}"));
    }
}

#[test]
fn tcp_runs_deliver_notifications() {
    let report = compare(&small(Algorithm::DaiT, 16, 6, 50, 3)).unwrap();
    assert!(
        report.result.delivered_notifications > 0,
        "the socket run should produce notifications"
    );
    assert!(
        report.result.faults.total_bytes_sent() > 0,
        "frames crossed real sockets"
    );
}

#[test]
fn lossy_detector_schedules_match_the_simulator() {
    // Faults are drawn by the pump, not by the transport: under 10% loss
    // with duplication, delay and retransmits, k = 2 mirrors, the heartbeat
    // detector and one abrupt failure, a run whose surviving copies cross
    // real sockets must be indistinguishable from the in-memory run — same
    // deliveries in the same order, same detection and repair history, and
    // the same fault counters down to the bytes charged per transmission.
    for (i, algorithm) in Algorithm::ALL.into_iter().enumerate() {
        let seed = 20 + i as u64;
        let mut cfg = RunConfig {
            failures: 1,
            ..small(algorithm, 8, 4, 14, seed)
        };
        cfg.engine.fault = FaultConfig {
            replication: 2,
            ..FaultConfig::lossy(0.1, seed)
        };
        cfg.engine.suspicion = SuspicionConfig::active();
        let report =
            compare(&cfg).unwrap_or_else(|d| panic!("{algorithm}: the socket run diverged: {d}"));
        let r = &report.result;
        assert!(
            r.delivered_notifications > 0,
            "{algorithm}: nothing was delivered"
        );
        assert_eq!(
            r.recovery.detections, 1,
            "{algorithm}: the failure is detected"
        );
        assert!(
            r.faults.retransmissions > 0,
            "{algorithm}: the channel is lossy"
        );
    }
}

#[test]
fn t2_queries_match_the_simulator_under_dai_v() {
    let cfg = RunConfig {
        query_source: QuerySource::T2,
        ..small(Algorithm::DaiV, 16, 6, 50, 13)
    };
    let report = compare(&cfg).unwrap_or_else(|d| panic!("{d}"));
    assert!(
        report.result.delivered_notifications > 0,
        "T2 joins deliver"
    );
}

#[test]
fn warmup_and_stabilized_failures_match_the_simulator_under_sai() {
    // Two abrupt failures mid-stream, each repaired at once by oracle
    // stabilization (the detector is off), after a warm-up stream that
    // feeds the rewriters' arrival statistics.
    let cfg = RunConfig {
        warmup_tuples: 30,
        failures: 2,
        ..small(Algorithm::Sai, 16, 6, 50, 17)
    };
    let report = compare(&cfg).unwrap_or_else(|d| panic!("{d}"));
    assert_eq!(
        report.result.faults.nodes_failed, 2,
        "both failures happened"
    );
    assert!(
        report.result.delivered_notifications > 0,
        "the survivors deliver"
    );
}
