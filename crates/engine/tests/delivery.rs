//! One delivery path, pinned from two sides.
//!
//! * `tests/fixtures/delivery_v1/*.jsonl` are the complete traces of a small
//!   seeded workload, written by commit 252ede7 — the last build that
//!   enqueued one envelope per logical message whenever a tracer or a fault
//!   pipe was installed. The bundled path must reproduce them byte for
//!   byte: dispatch order, message ids, targets and every fault draw.
//!   **Never regenerate them from the current build.**
//! * The observer must not move the observed: installing a trace sink
//!   changes no metric, no inbox sequence and — over TCP — no frame.

pub mod common;

use std::sync::Arc;

use common::{apply_all, catalog, Command, JOIN};
use cq_engine::{Algorithm, EngineConfig, FaultConfig, Network, RingBufferSink};
use cq_relational::Notification;

const NODES: usize = 8;

/// Two queries, then interleaved `R`/`S` inserts from rotating nodes. On an
/// 8-node ring most tuple batches put several identifiers on one owner, so
/// multi-member bundles are the common case.
fn commands() -> Vec<Command> {
    let queries = [
        Command::pose(0, JOIN),
        Command::pose(3, "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 1"),
    ];
    let inserts = (0..6i64).flat_map(|i| {
        let from = i as usize;
        [
            Command::r(from % NODES, i, i % 3),
            Command::s((from + 5) % NODES, i % 2, i % 3),
        ]
    });
    queries.into_iter().chain(inserts).collect()
}

/// The two delivery modes the fixtures cover: the perfect queue, and the
/// fault pump with loss, duplication, delay, retransmits and k = 2 mirrors.
fn modes() -> [(&'static str, FaultConfig); 2] {
    let lossy = FaultConfig {
        replication: 2,
        ..FaultConfig::lossy(0.2, 23)
    };
    [("perfect", FaultConfig::default()), ("lossy", lossy)]
}

fn network(alg: Algorithm, fault: FaultConfig) -> Network {
    let config = EngineConfig::new(alg)
        .with_nodes(NODES)
        .with_seed(11)
        .with_fault(fault);
    Network::new(config, catalog())
}

/// The whole run's trace as JSONL text.
fn traced_run(alg: Algorithm, fault: FaultConfig) -> String {
    let ring = Arc::new(RingBufferSink::new(1 << 20));
    let mut net = network(alg, fault);
    net.set_tracer(ring.clone());
    apply_all(&mut net, &commands());
    let mut out = String::new();
    for ev in ring.events() {
        ev.to_jsonl(&mut out);
        out.push('\n');
    }
    out
}

fn fixture_path(alg: Algorithm, mode: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/delivery_v1")
        .join(format!("{}_{mode}.jsonl", alg.name().to_lowercase()))
}

#[test]
fn bundled_delivery_replays_the_per_message_fixtures() {
    for alg in Algorithm::ALL {
        for (mode, fault) in modes() {
            let path = fixture_path(alg, mode);
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let got = traced_run(alg, fault);
            let first_diff = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            assert!(
                got == want,
                "{alg} {mode}: trace diverges from {} at line {}:\n  got  {:?}\n  want {:?}",
                path.display(),
                first_diff + 1,
                got.lines().nth(first_diff),
                want.lines().nth(first_diff),
            );
            assert!(
                want.lines().filter(|l| l.contains("\"msg-send\"")).count() > 40,
                "{alg} {mode}: the fixture must carry real traffic"
            );
        }
    }
}

/// What a run leaves behind for an outside observer: the full metrics
/// block, every inbox in delivery order, and — over TCP — the frames and
/// bytes that crossed the sockets.
type Outcome = (String, Vec<Vec<Notification>>, Option<(u64, u64)>);

fn outcome(alg: Algorithm, tcp: bool, traced: bool) -> Outcome {
    let mut net = network(alg, FaultConfig::default());
    if tcp {
        net.enable_tcp_transport().unwrap();
    }
    if traced {
        net.set_tracer(Arc::new(RingBufferSink::new(1 << 20)));
    }
    apply_all(&mut net, &commands());
    let inboxes = (0..net.alive_count())
        .map(|i| net.inbox(net.node_at(i)).to_vec())
        .collect();
    let socket = net
        .take_socket_stats()
        .map(|s| (s.frames_sent, s.bytes_written));
    (format!("{:?}", net.metrics()), inboxes, socket)
}

#[test]
fn the_observer_does_not_move_the_observed() {
    for alg in Algorithm::ALL {
        for tcp in [false, true] {
            let quiet = outcome(alg, tcp, false);
            let traced = outcome(alg, tcp, true);
            assert!(
                quiet.1.iter().any(|inbox| !inbox.is_empty()),
                "{alg}: the workload must deliver notifications"
            );
            assert_eq!(quiet.2.is_some(), tcp);
            assert_eq!(
                quiet, traced,
                "{alg} (tcp: {tcp}): installing a trace sink changed the run"
            );
        }
    }
}
