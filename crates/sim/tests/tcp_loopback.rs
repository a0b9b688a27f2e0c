//! End-to-end socket suite: a quick experiment over real TCP loopback
//! sockets must deliver exactly what the in-memory simulator delivers at
//! the same seed, for every algorithm — on a perfect channel, and under
//! injected faults with the failure detector running.

use cq_engine::Algorithm;
use cq_sim::cluster::{compare, run_once, ClusterConfig};

#[test]
fn tcp_loopback_matches_simulator() {
    for algorithm in [Algorithm::Sai, Algorithm::DaiT] {
        let cfg = ClusterConfig {
            algorithm,
            nodes: 24,
            queries: 8,
            tuples: 60,
            seed: 11,
        };
        compare(&cfg).unwrap_or_else(|d| panic!("{algorithm}: {d}"));
    }
}

#[test]
fn tcp_runs_deliver_notifications() {
    let cfg = ClusterConfig {
        nodes: 16,
        queries: 6,
        tuples: 50,
        seed: 3,
        ..ClusterConfig::default()
    };
    let run = run_once(&cfg, true);
    assert!(
        !run.delivered.is_empty(),
        "the socket run should produce notifications"
    );
    assert!(run.wire_bytes > 0, "frames crossed real sockets");
}

#[test]
fn lossy_detector_schedules_match_the_simulator() {
    // Faults are drawn by the pump, not by the transport: under 10% loss
    // with duplication, delay and retransmits, k = 2 mirrors, the heartbeat
    // detector and one abrupt failure, a run whose surviving copies cross
    // real sockets must be indistinguishable from the in-memory run — same
    // deliveries in the same order, same detection and repair history, and
    // the same fault counters down to the bytes charged per transmission.
    use cq_engine::{EngineConfig, FaultConfig, Network, SuspicionConfig};
    use cq_workload::{Workload, WorkloadConfig};

    for (i, algorithm) in Algorithm::ALL.into_iter().enumerate() {
        let seed = 20 + i as u64;
        let run = |tcp: bool| {
            let mut workload = Workload::new(WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            });
            let fault = FaultConfig {
                replication: 2,
                ..FaultConfig::lossy(0.1, seed)
            };
            let cfg = EngineConfig::new(algorithm)
                .with_nodes(8)
                .with_seed(seed)
                .with_fault(fault)
                .with_suspicion(SuspicionConfig::active());
            let mut net = Network::new(cfg, workload.catalog().clone());
            if tcp {
                net.enable_tcp_transport()
                    .expect("fault and suspicion configs accept the TCP transport");
            }
            for _ in 0..4 {
                let poser = net.random_node();
                let sql = workload.query_between(0, 1);
                net.pose_query_sql(poser, &sql).unwrap();
            }
            for t in 0..14 {
                if t == 7 {
                    net.node_fail(net.node_at(5)).unwrap(); // no stabilize
                }
                let rel = workload.next_stream_relation();
                let values = workload.random_tuple_values();
                let from = net.random_node();
                net.insert_tuple(from, &rel, values).unwrap();
            }
            net.settle().unwrap();
            let crossed_sockets = net.take_socket_stats().is_some_and(|s| s.frames_sent > 0);
            assert_eq!(crossed_sockets, tcp);
            let inboxes: Vec<_> = (0..net.alive_count())
                .map(|i| net.inbox(net.node_at(i)).to_vec())
                .collect();
            (
                net.delivered_set(),
                inboxes,
                net.metrics().recovery,
                net.metrics().faults,
            )
        };
        let (sim, tcp) = (run(false), run(true));
        assert!(!sim.0.is_empty(), "{algorithm}: nothing was delivered");
        assert_eq!(sim.2.detections, 1, "{algorithm}: the failure is detected");
        assert!(
            sim.3.retransmissions > 0,
            "{algorithm}: the channel is lossy"
        );
        assert_eq!(sim, tcp, "{algorithm}: the socket run diverged");
    }
}
