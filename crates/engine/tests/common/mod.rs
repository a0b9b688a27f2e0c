//! The harness the engine's integration tests share: a two-relation
//! catalog, one workload language — a [`Command`] list and its one
//! interpreter, [`apply`] — a generator of random command lists, and the
//! oracle checks.
//!
//! Test files declare it `pub mod common;`, so a file that uses only part of
//! it builds without dead-code warnings.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use cq_engine::{EngineConfig, Network, Oracle};
use cq_overlay::NodeHandle;
use cq_relational::{Catalog, DataType, Notification, RelationSchema, Tuple, Value};
use proptest::prelude::*;

/// `R(A, B)` and `S(D, E)`, all integers.
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(RelationSchema::of("R", &[("A", DataType::Int), ("B", DataType::Int)]).unwrap())
        .unwrap();
    c.register(RelationSchema::of("S", &[("D", DataType::Int), ("E", DataType::Int)]).unwrap())
        .unwrap();
    c
}

/// The plain T1 join most workloads pose.
pub const JOIN: &str = "SELECT R.A, S.D FROM R, S WHERE R.B = S.E";

/// The join with a filter `S.D = v`, for `v` in `-2..2`.
pub const FILTERED: [&str; 4] = [
    "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = -2",
    "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = -1",
    "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 0",
    "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 1",
];

/// One step of a workload. `from` and a pick index the alive nodes in slot
/// order, and `Rejoin`'s pick the departed ones, each modulo the list's
/// length, so that any command applies to any network. A list's `Debug`
/// form is Rust that rebuilds it under `use Command::*`.
#[derive(Clone, Debug)]
pub enum Command {
    /// Pose `sql` at a node.
    Pose { from: usize, sql: &'static str },
    /// Insert `values` into `rel` (`"R"` or `"S"`) at a node.
    Insert {
        from: usize,
        rel: &'static str,
        values: [i64; 2],
    },
    /// An abrupt failure.
    Fail(usize),
    /// A voluntary leave with key transfer.
    Leave(usize),
    /// A departed node comes back; nothing happens when none has departed.
    Rejoin(usize),
    /// That many stabilization rounds.
    Stabilize(usize),
    /// Ticks until the failure detector has nothing left to do.
    Settle,
    /// One anti-entropy round.
    AntiEntropy,
}

impl Command {
    /// `sql`, posed at node `from`.
    pub fn pose(from: usize, sql: &'static str) -> Self {
        Command::Pose { from, sql }
    }

    /// `R(a, b)`, inserted at node `from`.
    pub fn r(from: usize, a: i64, b: i64) -> Self {
        Command::Insert {
            from,
            rel: "R",
            values: [a, b],
        }
    }

    /// `S(d, e)`, inserted at node `from`.
    pub fn s(from: usize, d: i64, e: i64) -> Self {
        Command::Insert {
            from,
            rel: "S",
            values: [d, e],
        }
    }
}

/// Runs one command on `net`.
pub fn apply(net: &mut Network, cmd: &Command) -> cq_engine::Result<()> {
    let alive = |net: &Network, i: usize| net.node_at(i % net.alive_count());
    match cmd {
        Command::Pose { from, sql } => net.pose_query_sql(alive(net, *from), sql).map(drop),
        Command::Insert { from, rel, values } => net
            .insert_tuple(alive(net, *from), rel, values.map(Value::Int).to_vec())
            .map(drop),
        Command::Fail(pick) => net.node_fail(alive(net, *pick)),
        Command::Leave(pick) => net.node_leave(alive(net, *pick)),
        Command::Rejoin(pick) => {
            let ring = net.ring();
            let departed: Vec<NodeHandle> = (0..ring.slot_count())
                .map(NodeHandle::from_index)
                .filter(|&h| !ring.node(h).is_alive())
                .collect();
            match departed.len() {
                0 => Ok(()),
                n => net.node_rejoin(departed[pick % n]),
            }
        }
        Command::Stabilize(rounds) => net.stabilize(*rounds),
        Command::Settle => net.settle(),
        Command::AntiEntropy => net.anti_entropy_now(),
    }
}

/// Runs `cmds` in order on `net`, panicking on the first that fails.
pub fn apply_all(net: &mut Network, cmds: &[Command]) {
    for (i, cmd) in cmds.iter().enumerate() {
        if let Err(e) = apply(net, cmd) {
            panic!("command {i}, {cmd:?}: {e}");
        }
    }
}

/// A network of `config` over [`catalog`] that has run `cmds`.
pub fn replay(config: EngineConfig, cmds: &[Command]) -> Network {
    let mut net = Network::new(config, catalog());
    apply_all(&mut net, cmds);
    net
}

/// Node 0 subscribes to [`JOIN`], then inserts `R(i, i % 3)` for `i` in
/// `0..n`.
pub fn subscribed_r(n: i64) -> Vec<Command> {
    let tuples = (0..n).map(|i| Command::r(0, i, i % 3));
    [Command::pose(0, JOIN)].into_iter().chain(tuples).collect()
}

/// `S(i, i % 3)` for `i` in `0..n`, inserted at node 0: each joins the `R`
/// tuples of [`subscribed_r`] with the same `i % 3`.
pub fn matching_s(n: i64) -> Vec<Command> {
    (0..n).map(|i| Command::s(0, i, i % 3)).collect()
}

/// Two subscribers, nodes 0 and 7, with one query each.
pub const TWO_SUBSCRIBERS: &[(usize, &str)] = &[
    (0, JOIN),
    (7, "SELECT R.A FROM R, S WHERE R.B = S.E AND S.D = 2"),
];

/// The ef01-style stream: `queries` posed up front, then twelve rounds of
/// one `R` and one `S` insert from rotating nodes among the first 20, with
/// several join matches per round; `mid` runs after the sixth round.
pub fn ef01_stream(queries: &[(usize, &'static str)], mid: &[Command]) -> Vec<Command> {
    let round = |i: i64| {
        let from = (i % 20) as usize;
        [
            Command::r(from, i, i % 4),
            Command::s((from + 3) % 20, 2 + i % 2, i % 3),
        ]
    };
    queries
        .iter()
        .map(|&(from, sql)| Command::pose(from, sql))
        .chain((0..6).flat_map(round))
        .chain(mid.iter().cloned())
        .chain((6..12).flat_map(round))
        .collect()
}

/// Random lists of pose and insert commands, four inserts to every pose,
/// command `n` issued from node `n % 32`.
pub fn command_lists(len: Range<usize>) -> impl Strategy<Value = Vec<Command>> {
    let command = prop_oneof![
        1 => Just(Command::pose(0, JOIN)),
        1 => (-2i64..2).prop_map(|v| Command::pose(0, FILTERED[(v + 2) as usize])),
        4 => ((-20i64..20), (-3i64..3)).prop_map(|(a, b)| Command::r(0, a, b)),
        4 => ((-20i64..20), (-3i64..3)).prop_map(|(d, e)| Command::s(0, d, e)),
    ];
    prop::collection::vec(command, len).prop_map(|cmds| {
        let from_node = |(n, cmd)| match cmd {
            Command::Pose { sql, .. } => Command::Pose { from: n % 32, sql },
            Command::Insert { rel, values, .. } => Command::Insert {
                from: n % 32,
                rel,
                values,
            },
            other => other,
        };
        cmds.into_iter().enumerate().map(from_node).collect()
    })
}

/// The oracle's notification set for every query `net` has posed, over
/// `tuples`.
fn oracle(net: &Network, tuples: &[Arc<Tuple>]) -> HashSet<Notification> {
    let mut oracle = Oracle::new();
    oracle.ingest(net.posed_queries(), tuples);
    oracle.expected().unwrap()
}

/// The oracle's notification set for every query `net` has posed and tuple
/// it has inserted.
pub fn expected(net: &Network) -> HashSet<Notification> {
    oracle(net, net.inserted_tuples())
}

/// Asserts that `net` delivered exactly the oracle's notification set;
/// `context` names the case in the failure message.
pub fn assert_oracle(net: &Network, context: &str) {
    assert_eq!(
        net.delivered_set(),
        expected(net),
        "{context}: {} diverged from the oracle",
        net.config().algorithm
    );
}

/// The check for a run whose failures a detector finds: nothing delivered
/// is spurious, and every notification the oracle expects from the tuples
/// published outside all detection windows is delivered. Returns how many
/// tuples were published inside a window.
pub fn assert_oracle_outside_windows(net: &Network, context: &str) -> usize {
    let delivered = net.delivered_set();
    let all = expected(net);
    for n in &delivered {
        assert!(all.contains(n), "{context}: spurious notification {n}");
    }
    let windows = net.detection_windows();
    let outside: Vec<Arc<Tuple>> = net
        .inserted_tuples()
        .iter()
        .filter(|t| {
            let p = t.pub_time().0;
            windows.iter().all(|&(lo, hi)| p < lo || p > hi)
        })
        .cloned()
        .collect();
    for n in oracle(net, &outside) {
        assert!(
            delivered.contains(&n),
            "{context}: notification expected outside all detection windows was lost: {n}"
        );
    }
    net.inserted_tuples().len() - outside.len()
}
