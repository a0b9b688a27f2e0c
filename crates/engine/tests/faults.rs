//! The robustness layer end to end: message loss, duplication and
//! reordering under reliable delivery, and k-successor replication across
//! abrupt failures.

pub mod common;

use common::{
    apply_all, assert_oracle, catalog, ef01_stream, replay, Command, JOIN, TWO_SUBSCRIBERS,
};
use cq_engine::{Algorithm, EngineConfig, FaultConfig, Network, RingBufferSink, TraceEvent};
use cq_relational::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn reliable_pump_with_zero_rates_matches_oracle() {
    // Acks force every message through the tick-based pump; without any
    // fault draw that must change nothing observable.
    for alg in Algorithm::ALL {
        let fault = FaultConfig {
            ack_timeout: 2,
            max_retries: 8,
            ..FaultConfig::default()
        };
        let config = EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(11)
            .with_fault(fault);
        let net = replay(config, &ef01_stream(TWO_SUBSCRIBERS, &[]));
        assert_eq!(net.metrics().faults.messages_lost, 0);
        assert_eq!(net.metrics().faults.retransmissions, 0);
        // In memory only the pump charges wire bytes.
        assert!(
            net.metrics().faults.total_bytes_sent() > 0,
            "{alg}: the pump ran"
        );
        assert_oracle(&net, "reliable");
    }
}

#[test]
fn delivery_survives_message_loss() {
    // 20% loss (plus the profile's mild duplication and delay): acks and
    // retransmissions must still get every notification through.
    for alg in Algorithm::ALL {
        let config = EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(12)
            .with_fault(FaultConfig::lossy(0.2, 21));
        let net = replay(config, &ef01_stream(TWO_SUBSCRIBERS, &[]));
        let f = net.metrics().faults;
        assert!(f.messages_lost > 0, "{alg}: losses must have been drawn");
        assert!(f.retransmissions > 0, "{alg}: losses force retransmissions");
        assert_oracle(&net, "lossy");
    }
}

#[test]
fn duplicates_are_suppressed_exactly_once() {
    for alg in Algorithm::ALL {
        let fault = FaultConfig {
            duplicate_rate: 0.5,
            ack_timeout: 2,
            max_retries: 8,
            seed: 31,
            ..FaultConfig::default()
        };
        let config = EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(13)
            .with_fault(fault);
        let net = replay(config, &ef01_stream(TWO_SUBSCRIBERS, &[]));
        let f = net.metrics().faults;
        assert!(f.messages_duplicated > 0, "{alg}: duplicates must be drawn");
        assert!(
            f.dedup_suppressed > 0,
            "{alg}: receiver windows must drop the copies"
        );
        assert_oracle(&net, "duplicated");
    }
}

#[test]
fn reordering_preserves_results() {
    // Pure delay-induced reordering, retries off: the protocol state
    // machines must be commutative over in-flight message order.
    for alg in Algorithm::ALL {
        let fault = FaultConfig {
            delay_rate: 0.6,
            max_delay: 5,
            seed: 41,
            ..FaultConfig::default()
        };
        let config = EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(14)
            .with_fault(fault);
        let net = replay(config, &ef01_stream(TWO_SUBSCRIBERS, &[]));
        assert_eq!(net.metrics().faults.messages_lost, 0);
        assert_oracle(&net, "reordered");
    }
}

#[test]
fn single_failure_with_replication_preserves_index_state() {
    // With k=2 replication, any single abrupt failure followed by
    // stabilization must lose no index entries: later tuples still join
    // against state the victim held, and the delivered set stays exactly
    // the oracle's.
    for alg in Algorithm::ALL {
        for victim_idx in [5usize, 13, 21, 29] {
            let fault = FaultConfig {
                replication: 2,
                ..FaultConfig::default()
            };
            let config = EngineConfig::new(alg).with_nodes(40).with_seed(15);
            let cmds = [
                Command::pose(0, JOIN),
                Command::r(0, 1, 7),
                Command::Fail(victim_idx),
                Command::Stabilize(2),
                Command::s(0, 2, 7),
            ];
            let net = replay(config.with_fault(fault), &cmds);
            assert_eq!(
                net.inbox(net.node_at(0)).len(),
                1,
                "{alg}: join must survive the failure of node {victim_idx}"
            );
            assert_oracle(&net, &format!("victim {victim_idx}"));
        }
    }
}

#[test]
fn failure_with_replication_preserves_offline_notifications() {
    // The Section 4.6 offline store is itself replicated: crash the node
    // holding a disconnected subscriber's notification, and the rejoining
    // subscriber must still receive it.
    for alg in Algorithm::ALL {
        let fault = FaultConfig {
            replication: 2,
            ..FaultConfig::default()
        };
        let config = EngineConfig::new(alg).with_nodes(40).with_seed(16);
        let setup = [Command::pose(0, JOIN), Command::r(5, 1, 7)];
        let mut net = replay(config.with_fault(fault), &setup);
        let (a, b) = (net.node_at(0), net.node_at(5));
        net.node_leave(a).unwrap();
        net.stabilize(2).unwrap();
        net.insert_tuple(b, "S", vec![Value::Int(2), Value::Int(7)])
            .unwrap();

        // Crash whichever node holds the stored notification.
        let owner = net
            .ring()
            .alive_nodes()
            .find(|&h| !net.node_state(h).tables.offline.is_empty())
            .expect("one node stores the offline notification");
        net.node_fail(owner).unwrap();
        net.stabilize(2).unwrap();
        assert!(
            net.metrics().faults.replicas_promoted > 0,
            "{alg}: the successor must promote the replicated notification"
        );

        net.node_rejoin(a).unwrap();
        assert_eq!(
            net.inbox(a).len(),
            1,
            "{alg}: missed notification must survive the store owner's crash"
        );
    }
}

#[test]
fn offline_storage_metrics_count_arrivals_once() {
    // `notifications_delivered` counts actual arrivals (inbox or offline
    // store), and `notifications_stored_offline` counts only the latter.
    let config = EngineConfig::new(Algorithm::Sai)
        .with_nodes(40)
        .with_seed(17);
    let setup = [
        Command::pose(0, JOIN),
        Command::r(5, 1, 7),
        Command::s(5, 2, 7),
    ];
    let mut net = replay(config, &setup);
    let (a, b) = (net.node_at(0), net.node_at(5));
    assert_eq!(net.metrics().notifications_delivered, 1);
    assert_eq!(
        net.metrics().notifications_stored_offline,
        0,
        "online delivery is not offline storage"
    );

    net.node_leave(a).unwrap();
    net.stabilize(2).unwrap();
    net.insert_tuple(b, "S", vec![Value::Int(3), Value::Int(7)])
        .unwrap();
    assert_eq!(
        net.metrics().notifications_delivered,
        2,
        "the stored notification counts as delivered exactly once"
    );
    assert_eq!(net.metrics().notifications_stored_offline, 1);
}

#[test]
fn retransmission_backoff_schedule_is_exponential_with_a_cap() {
    // Total loss pins the whole retry schedule: every window exhausts all
    // its retries, and the gap between attempt n and n+1 must be exactly
    // `ack_timeout << n`, with the shift capped at 6.
    let fault = FaultConfig {
        loss_rate: 1.0,
        ack_timeout: 1,
        max_retries: 9,
        seed: 51,
        ..FaultConfig::default()
    };
    let mut net = Network::new(
        EngineConfig::new(Algorithm::Sai)
            .with_nodes(16)
            .with_seed(19)
            .with_fault(fault),
        catalog(),
    );
    let sink = Arc::new(RingBufferSink::new(8192));
    net.set_tracer(sink.clone());
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();

    let mut sent: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut retries: BTreeMap<(u32, u64), Vec<(u64, u32)>> = BTreeMap::new();
    for ev in sink.events() {
        match ev {
            TraceEvent::MsgSend { tick, id, .. } => {
                sent.entry(id).or_insert(tick);
            }
            TraceEvent::Retransmit {
                tick, id, attempt, ..
            } => retries.entry(id).or_default().push((tick, attempt)),
            _ => {}
        }
    }
    assert!(!retries.is_empty(), "total loss must force retransmissions");
    for (id, seq) in retries {
        let attempts: Vec<u32> = seq.iter().map(|&(_, a)| a).collect();
        let expected: Vec<u32> = (1..=9).collect();
        assert_eq!(
            attempts, expected,
            "msg {id:?}: window exhausts all retries"
        );
        let t0 = sent[&id];
        assert_eq!(
            seq[0].0 - t0,
            1,
            "msg {id:?}: first retry after ack_timeout"
        );
        for w in seq.windows(2) {
            let [(t_prev, a_prev), (t_next, _)] = [w[0], w[1]];
            // backoff(n) = ack_timeout << min(n, 6)
            let gap = 1u64 << a_prev.min(6);
            assert_eq!(
                t_next - t_prev,
                gap,
                "msg {id:?}: gap after attempt {a_prev} must be {gap}"
            );
        }
    }
}

#[test]
fn exhausted_retry_windows_give_up_without_livelock() {
    // Sustained total loss: every window must stop after `max_retries`
    // attempts, the pump must still terminate, and nothing may be
    // delivered (or fabricated).
    let fault = FaultConfig {
        loss_rate: 1.0,
        ack_timeout: 2,
        max_retries: 3,
        seed: 52,
        ..FaultConfig::default()
    };
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(16)
            .with_seed(20)
            .with_fault(fault),
        catalog(),
    );
    let sink = Arc::new(RingBufferSink::new(8192));
    net.set_tracer(sink.clone());
    apply_all(&mut net, &ef01_stream(TWO_SUBSCRIBERS, &[]));

    let mut max_attempt: BTreeMap<(u32, u64), u32> = BTreeMap::new();
    for ev in sink.events() {
        if let TraceEvent::Retransmit { id, attempt, .. } = ev {
            let e = max_attempt.entry(id).or_default();
            *e = (*e).max(attempt);
        }
    }
    assert!(!max_attempt.is_empty());
    assert!(
        max_attempt.values().all(|&a| a <= 3),
        "no window may exceed max_retries"
    );
    let f = net.metrics().faults;
    assert_eq!(
        f.retransmissions,
        3 * max_attempt.len() as u64,
        "every opened window retries exactly max_retries times"
    );
    assert!(
        net.delivered_set().is_empty(),
        "nothing can get through total loss"
    );
}

#[test]
fn dedup_absorbs_retransmit_racing_a_late_ack() {
    // An aggressive ack timeout under heavy delay: originals are still in
    // flight when their retransmissions fire, so receivers see both copies
    // and acks arrive after the next retry was already scheduled. The
    // dedup window must absorb every such race without fault-injected
    // duplicates being involved at all.
    let fault = FaultConfig {
        delay_rate: 0.9,
        max_delay: 6,
        ack_timeout: 1,
        max_retries: 8,
        seed: 53,
        ..FaultConfig::default()
    };
    for alg in Algorithm::ALL {
        let config = EngineConfig::new(alg)
            .with_nodes(24)
            .with_seed(21)
            .with_fault(fault.clone());
        let net = replay(config, &ef01_stream(TWO_SUBSCRIBERS, &[]));
        let f = net.metrics().faults;
        assert_eq!(f.messages_duplicated, 0, "{alg}: no duplication was drawn");
        assert!(
            f.retransmissions > 0,
            "{alg}: delayed acks must trigger spurious retransmissions"
        );
        assert!(
            f.dedup_suppressed > 0,
            "{alg}: the second copy of a raced message must be suppressed"
        );
        assert_oracle(&net, "retransmit/ack race");
    }
}

#[test]
fn replica_load_is_not_storage_load() {
    let fault = FaultConfig {
        replication: 2,
        ..FaultConfig::default()
    };
    let config = EngineConfig::new(Algorithm::DaiT)
        .with_nodes(40)
        .with_seed(18);
    let setup = [Command::pose(0, JOIN), Command::r(0, 1, 7)];
    let net = replay(config.clone().with_fault(fault), &setup);
    let baseline = replay(config, &setup);
    assert_eq!(
        net.storage_loads(),
        baseline.storage_loads(),
        "replicas never count toward storage load"
    );
    let replicas: usize = net
        .ring()
        .alive_nodes()
        .map(|h| net.node_state(h).replica_load())
        .sum();
    assert!(replicas > 0, "replication must actually mirror state");
    assert!(net.metrics().faults.replica_messages > 0);
}

#[test]
fn receive_side_dedup_state_is_bounded_by_message_lifetime() {
    // The `churn_dait` fault profile with nobody failing: 32 nodes, 5 %
    // loss, k = 2, detector on. Sequence numbers are allocated per sender
    // and every receiver sees a sparse subsequence of them, so dedup state
    // must expire by message lifetime — a low-water mark never advances and
    // keeps one entry per message ever received.
    use cq_engine::SuspicionConfig;
    let mut fault = FaultConfig::lossy(0.05, 12);
    fault.replication = 2;
    let suspicion = SuspicionConfig::active()
        .with_suspect_after(4)
        .with_confirm_after(4);
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(32)
            .with_seed(12)
            .with_fault(fault)
            .with_suspicion(suspicion),
        catalog(),
    );
    apply_all(&mut net, &ef01_stream(TWO_SUBSCRIBERS, &[]));
    let probes_per_round = 2 * 32 * cq_overlay::DEFAULT_SUCCESSOR_LIST_LEN;
    let mut at_2000 = 0;
    for tick in 1..=4000 {
        net.tick_now().unwrap();
        let entries = net.dedup_entries();
        // Only a copy that may have a twin is remembered: of the probes,
        // the 5 % the pump duplicates. Such an entry lives `1 + max_delay`
        // = 4 ticks and a round fires every 4 ticks, so entries of at most
        // two rounds are alive at once; 4 whole rounds leaves room for the
        // data messages false confirmations send (replica promotion,
        // repair), which are acked and remembered longer.
        assert!(
            entries <= 4 * probes_per_round,
            "tick {tick}: {entries} dedup entries"
        );
        if tick == 2000 {
            at_2000 = entries;
        }
    }
    assert!(net.metrics().recovery.heartbeats_sent > 100_000);
    let at_4000 = net.dedup_entries();
    assert!(
        at_4000 <= at_2000 + probes_per_round,
        "dedup state grew from {at_2000} to {at_4000} entries over 2000 idle ticks"
    );
}
