//! Dynamicity: voluntary leaves with key transfer, failures, rejoins, and
//! the Section 4.6 offline-notification scenario.

pub mod common;

use common::{apply_all, assert_oracle, expected, matching_s, replay, subscribed_r, Command, JOIN};
use cq_engine::{Algorithm, EngineConfig, FaultConfig};
use cq_relational::Value;

#[test]
fn voluntary_leave_transfers_state_and_preserves_results() {
    for alg in Algorithm::ALL {
        let config = EngineConfig::new(alg).with_nodes(40).with_seed(1);
        let mut net = replay(config, &[Command::pose(0, JOIN), Command::r(0, 1, 7)]);
        let a = net.node_at(0);

        // Every node except the subscriber leaves — whatever nodes hold the
        // query, the rewritten query or the stored tuple, their state must
        // survive through successor transfers.
        let victims: Vec<_> = net
            .ring()
            .alive_nodes()
            .filter(|&h| h != a)
            .step_by(2)
            .collect();
        for v in victims {
            net.node_leave(v).unwrap();
        }
        apply_all(&mut net, &[Command::Stabilize(3), Command::s(0, 2, 7)]);
        assert_eq!(net.inbox(a).len(), 1, "{alg}: join must survive departures");
        assert_oracle(&net, "departures");
    }
}

#[test]
fn offline_subscriber_receives_missed_notifications_on_rejoin() {
    // The Section 4.6 scenario: the subscriber disconnects, a notification
    // is produced meanwhile and stored at Successor(Id(n)); on reconnection
    // the subscriber "will receive all data related to Id(n) including the
    // missed notifications".
    for alg in Algorithm::ALL {
        let config = EngineConfig::new(alg).with_nodes(40).with_seed(2);
        let mut net = replay(config, &[Command::pose(0, JOIN), Command::r(5, 1, 7)]);
        let (a, b) = (net.node_at(0), net.node_at(5));

        // Subscriber goes offline (voluntarily, transferring its keys).
        net.node_leave(a).unwrap();
        net.stabilize(2).unwrap();

        // The matching tuple arrives while the subscriber is away.
        net.insert_tuple(b, "S", vec![Value::Int(2), Value::Int(7)])
            .unwrap();
        assert!(
            net.inbox(a).is_empty(),
            "{alg}: offline node has no inbox yet"
        );
        let stored: usize = net
            .ring()
            .alive_nodes()
            .map(|h| net.node_state(h).tables.offline.len())
            .sum();
        assert_eq!(
            stored, 1,
            "{alg}: notification must be stored for the offline node"
        );

        // Reconnection delivers the missed notification.
        net.node_rejoin(a).unwrap();
        assert_eq!(
            net.inbox(a).len(),
            1,
            "{alg}: missed notification delivered on rejoin"
        );
    }
}

#[test]
fn failures_lose_at_most_the_failed_nodes_state() {
    // Best-effort semantics: a failure may lose notifications, but the
    // network must keep routing and never produce *wrong* notifications.
    let cmds = [
        Command::pose(0, JOIN),
        Command::r(0, 1, 7),
        Command::Fail(20),
        Command::Stabilize(3),
        Command::s(0, 2, 7),
    ];
    let net = replay(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(40)
            .with_seed(3),
        &cmds,
    );
    // Delivered notifications are a subset of the oracle's expectation.
    let expected = expected(&net);
    for n in net.delivered_set() {
        assert!(expected.contains(&n), "spurious notification {n}");
    }
}

#[test]
fn replication_turns_lossy_failures_into_lossless_ones() {
    // The same failure scenario twice: without replication the network may
    // only *miss* notifications (never fabricate them); with k=1 the
    // successor's promoted replicas make the failure invisible.
    for alg in Algorithm::ALL {
        let build = |k: usize| {
            let fault = FaultConfig {
                replication: k,
                ..FaultConfig::default()
            };
            let config = EngineConfig::new(alg).with_nodes(40).with_seed(7);
            let failures = [8, 16, 24, 32].map(|i| [Command::Fail(i), Command::Stabilize(2)]);
            let cmds: Vec<Command> = subscribed_r(8)
                .into_iter()
                .chain(failures.into_iter().flatten())
                .chain(matching_s(8))
                .collect();
            replay(config.with_fault(fault), &cmds)
        };

        let unreplicated = build(0);
        let expected = expected(&unreplicated);
        let delivered = unreplicated.delivered_set();
        assert!(
            delivered.is_subset(&expected),
            "{alg}: failures must never fabricate notifications"
        );

        let replicated = build(1);
        assert_eq!(
            replicated.delivered_set(),
            expected,
            "{alg}: k=1 replication must lose nothing in the same scenario"
        );
    }
}

#[test]
fn departing_replica_holder_hands_copies_to_its_successor() {
    // Regression: a voluntary leave used to drop the replica entries the
    // departing node held *for other primaries*. If such a primary then
    // failed before its next re-mirroring, k=1 redundancy was silently
    // gone and its state was lost. The leave must hand the held copies to
    // the successor so the later failure stays lossless.
    for alg in Algorithm::ALL {
        let fault = FaultConfig {
            replication: 1,
            ..FaultConfig::default()
        };
        let config = EngineConfig::new(alg).with_nodes(40).with_seed(9);
        let mut net = replay(config.with_fault(fault), &subscribed_r(8));
        let a = net.node_at(0);
        // Pick a primary that holds state, whose k=1 replica therefore
        // lives exactly on its first alive successor.
        let (victim, holder) = net
            .ring()
            .alive_nodes()
            .filter(|&h| h != a)
            .filter_map(|h| {
                let st = net.node_state(h);
                let busy = st.tables.len() > st.tables.offline.len();
                let succ = net.ring().first_alive_successor(h)?;
                (busy && succ != a && succ != h).then_some((h, succ))
            })
            .next()
            .expect("some non-subscriber primary holds state");
        // The replica holder leaves, then the primary fails before any
        // re-mirroring could run.
        net.node_leave(holder).unwrap();
        net.node_fail(victim).unwrap();
        net.stabilize(3).unwrap();
        apply_all(&mut net, &matching_s(8));
        assert_oracle(&net, "replica hand-over");
    }
}

#[test]
fn a_leave_hands_over_copies_it_had_not_promoted_yet() {
    // Regression: a primary fails, and its replica holder leaves before any
    // stabilization promoted the copies. They lie in the range the holder's
    // successor takes over; sent to that successor's k-th successor as
    // mirrors instead, nobody ever promoted them and the state was lost.
    for alg in Algorithm::ALL {
        let fault = FaultConfig {
            replication: 1,
            ..FaultConfig::default()
        };
        let config = EngineConfig::new(alg).with_nodes(40).with_seed(9);
        let mut net = replay(config.with_fault(fault), &subscribed_r(8));
        let a = net.node_at(0);
        let held: usize = net.storage_loads().iter().sum();
        let (victim, holder) = net
            .ring()
            .alive_nodes()
            .filter(|&h| h != a && net.node_state(h).storage_load() > 0)
            .filter_map(|h| {
                let succ = net.ring().first_alive_successor(h)?;
                (succ != a && succ != h).then_some((h, succ))
            })
            .next()
            .expect("some non-subscriber primary holds state");
        net.node_fail(victim).unwrap();
        net.node_leave(holder).unwrap();
        net.stabilize(3).unwrap();
        let now: usize = net.storage_loads().iter().sum();
        assert_eq!(now, held, "{alg}: every item survives, held once");

        apply_all(&mut net, &matching_s(8));
        // Every (query, R, S) triple yields a distinct notification, so the
        // oracle's set size is the count to deliver.
        let want = expected(&net).len();
        assert_eq!(net.inbox(a).len(), want, "{alg}: multiplicity");
        assert_oracle(&net, "unpromoted hand-over");
    }
}

#[test]
fn replicated_leaves_hand_each_item_over_once() {
    // Regression: with k ≥ 1 a leave handed the leaver's state to its
    // successor, and the next stabilization also promoted the successor's
    // mirrors of the same items — they were stored twice, and the next
    // match was delivered twice. Compared as a set, the inbox looked right.
    for alg in Algorithm::ALL {
        for k in [1, 2] {
            let fault = FaultConfig {
                replication: k,
                ..FaultConfig::default()
            };
            let config = EngineConfig::new(alg).with_nodes(40).with_seed(1);
            let setup = [Command::pose(0, JOIN), Command::r(0, 1, 7)];
            let mut net = replay(config.with_fault(fault), &setup);
            let a = net.node_at(0);
            let held: usize = net.storage_loads().iter().sum();
            let holders: Vec<_> = net
                .ring()
                .alive_nodes()
                .filter(|&h| h != a && net.node_state(h).storage_load() > 0)
                .collect();
            assert!(!holders.is_empty());
            for v in holders {
                net.node_leave(v).unwrap();
            }
            net.stabilize(3).unwrap();
            let context = format!("{alg}, k = {k}");
            let now: usize = net.storage_loads().iter().sum();
            assert_eq!(now, held, "{context}: every item is held once");

            apply_all(&mut net, &[Command::s(0, 2, 7)]);
            // Every (query, R, S) triple here yields a distinct notification,
            // so the oracle's set size is the count to deliver.
            let want = expected(&net).len();
            assert_eq!(net.inbox(a).len(), want, "{context}: multiplicity");
            for pair in net.digest_pairs().unwrap() {
                let agree = pair.primary_digest == pair.successor_digest;
                assert!(agree, "{context}: redundancy not restored: {pair:?}");
            }
        }
    }
}

#[test]
fn join_after_start_takes_over_range() {
    // Node 10 leaves, then rejoins (same identifier) — its former range
    // moves back to it, and the protocol keeps working end to end.
    let cmds = [
        Command::pose(0, JOIN),
        Command::r(0, 1, 7),
        Command::Leave(10),
        Command::Stabilize(2),
        Command::r(0, 3, 8),
        Command::Rejoin(0),
        Command::s(0, 2, 7),
        Command::s(0, 4, 8),
    ];
    let net = replay(
        EngineConfig::new(Algorithm::Sai)
            .with_nodes(30)
            .with_seed(4),
        &cmds,
    );
    assert_eq!(net.inbox(net.node_at(0)).len(), 2);
    assert_oracle(&net, "join after start");
}
