//! Sim-vs-socket equivalence runs: execute the same seeded experiment on
//! the in-memory simulator transport and on real TCP loopback sockets, and
//! compare what arrived.
//!
//! The TCP backend queues envelope metadata in userspace while the message
//! payloads cross real sockets, so a socket run dispatches the identical
//! message sequence as the simulator at the same seed — the delivered
//! notification set and every transport-independent metric must match
//! exactly. [`compare`] runs both and reports the first divergence; the
//! `tcp_cluster` binary and the `socket-suite` CI test are thin wrappers
//! around it.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cq_engine::{Algorithm, EngineConfig, Network, SocketStats, TrafficKind};
use cq_relational::{Catalog, DataType, Notification, RelationSchema, Value};
use cq_workload::{Workload, WorkloadConfig};

/// Shape of one equivalence experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Evaluation algorithm.
    pub algorithm: Algorithm,
    /// Network size (one TCP listener per node in the socket run).
    pub nodes: usize,
    /// Continuous queries to install.
    pub queries: usize,
    /// Tuples to stream after installation.
    pub tuples: usize,
    /// Workload and engine seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            algorithm: Algorithm::DaiT,
            nodes: 32,
            queries: 10,
            tuples: 80,
            seed: 7,
        }
    }
}

/// What one run produced: everything the equivalence check compares.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterRun {
    /// The distinct notifications delivered to inboxes and offline stores.
    pub delivered: HashSet<Notification>,
    /// Notifications delivered with multiplicity.
    pub notifications: u64,
    /// Total logical messages routed.
    pub messages: u64,
    /// Total overlay hops consumed.
    pub hops: u64,
    /// Per-category `(messages, hops)` in [`TrafficKind::ALL`] order.
    pub traffic: Vec<(u64, u64)>,
    /// Total wire bytes counted by the transport (zero on the default
    /// simulator path, which never serializes).
    pub wire_bytes: u64,
}

/// Timing and socket-level statistics of one run (everything the
/// throughput summary reports but the equivalence checks must *not*
/// compare — wall time and syscall counts are scheduling-dependent).
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Wall time of the query + tuple phases.
    pub wall: Duration,
    /// Aggregate socket statistics (`None` on the in-memory transport).
    pub socket: Option<SocketStats>,
}

/// Executes the experiment once, over sockets when `tcp` is set.
pub fn run_once(cfg: &ClusterConfig, tcp: bool) -> ClusterRun {
    run_once_timed(cfg, tcp).0
}

/// [`run_once`] plus wall time and drained socket statistics.
pub fn run_once_timed(cfg: &ClusterConfig, tcp: bool) -> (ClusterRun, RunStats) {
    let mut workload = Workload::new(WorkloadConfig {
        seed: cfg.seed,
        ..WorkloadConfig::default()
    });
    let engine_cfg = EngineConfig::new(cfg.algorithm)
        .with_nodes(cfg.nodes)
        .with_seed(cfg.seed)
        .with_retained_notifications(true);
    let mut net = Network::new(engine_cfg, workload.catalog().clone());
    if tcp {
        net.enable_tcp_transport().expect("loopback listeners bind");
    }
    let start = Instant::now();
    for _ in 0..cfg.queries {
        let poser = net.random_node();
        let sql = workload.query_between(0, 1);
        net.pose_query_sql(poser, &sql)
            .expect("generated queries are valid");
    }
    for _ in 0..cfg.tuples {
        let rel = workload.next_stream_relation();
        let values = workload.random_tuple_values();
        let from = net.random_node();
        net.insert_tuple(from, &rel, values)
            .expect("generated tuples are valid");
    }
    let stats = RunStats {
        wall: start.elapsed(),
        socket: net.take_socket_stats(),
    };
    (collect_run(&net), stats)
}

/// Snapshots everything the equivalence checks compare from a finished run.
fn collect_run(net: &Network) -> ClusterRun {
    let m = net.metrics();
    let total = m.total_traffic();
    ClusterRun {
        delivered: net.delivered_set(),
        notifications: m.notifications_delivered,
        messages: total.messages,
        hops: total.hops,
        traffic: TrafficKind::ALL
            .iter()
            .map(|&k| {
                let t = m.traffic(k);
                (t.messages, t.hops)
            })
            .collect(),
        wire_bytes: m.faults.total_bytes_sent(),
    }
}

/// What an equivalence [`compare`] proved and measured: the checked
/// fields come from the socket run (the simulator run matched them
/// exactly), the stats fields describe only the socket run.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Wire bytes counted by the TCP transport.
    pub wire_bytes: u64,
    /// Logical messages routed (identical on both transports).
    pub messages: u64,
    /// Wall time of the socket run.
    pub wall: Duration,
    /// Socket-level statistics drained from the TCP transport.
    pub socket: SocketStats,
}

/// Runs the experiment on both transports and returns the socket run's
/// report on success, or a description of the first divergence.
pub fn compare(cfg: &ClusterConfig) -> Result<CompareReport, String> {
    let sim = run_once(cfg, false);
    let (tcp, tcp_stats) = run_once_timed(cfg, true);
    if sim.delivered != tcp.delivered {
        let sim_only = sim.delivered.difference(&tcp.delivered).count();
        let tcp_only = tcp.delivered.difference(&sim.delivered).count();
        return Err(format!(
            "delivered sets diverge: {} notifications only in sim, {} only in tcp",
            sim_only, tcp_only
        ));
    }
    if sim.notifications != tcp.notifications {
        return Err(format!(
            "delivery multiplicity diverges: sim {} vs tcp {}",
            sim.notifications, tcp.notifications
        ));
    }
    if (sim.messages, sim.hops) != (tcp.messages, tcp.hops) {
        return Err(format!(
            "total traffic diverges: sim {}msg/{}hops vs tcp {}msg/{}hops",
            sim.messages, sim.hops, tcp.messages, tcp.hops
        ));
    }
    if sim.traffic != tcp.traffic {
        return Err(format!(
            "per-kind traffic diverges: sim {:?} vs tcp {:?}",
            sim.traffic, tcp.traffic
        ));
    }
    if sim.wire_bytes != 0 {
        return Err(format!(
            "simulator counted wire bytes ({}) without serializing",
            sim.wire_bytes
        ));
    }
    if tcp.wire_bytes == 0 {
        return Err("tcp transport counted no wire bytes".to_string());
    }
    let socket = tcp_stats
        .socket
        .ok_or_else(|| "tcp run produced no socket stats".to_string())?;
    if socket.frames_sent == 0 || socket.frames_received == 0 {
        return Err(format!(
            "socket stats counted no frames: {} sent, {} received",
            socket.frames_sent, socket.frames_received
        ));
    }
    Ok(CompareReport {
        wire_bytes: tcp.wire_bytes,
        messages: tcp.messages,
        wall: tcp_stats.wall,
        socket,
    })
}

// =====================================================================
// Loopback throughput harness
// =====================================================================

/// Shape of one loopback throughput run: a wide two-relation catalog
/// (six indexed `Int` attributes plus one `Str` payload column per
/// relation) streamed through the real TCP reactor. Few nodes and many
/// indexed attributes concentrate traffic on few streams, so each poll
/// drain coalesces many frames per vectored flush.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Network size (one TCP stream pair per node pair; 2 maximises
    /// per-stream coalescing).
    pub nodes: usize,
    /// Bytes of string payload carried by every tuple.
    pub payload: usize,
    /// Tuples streamed through the network.
    pub tuples: usize,
    /// Engine seed.
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            nodes: 2,
            payload: 64,
            tuples: 2000,
            seed: 7,
        }
    }
}

/// What one throughput run moved and how fast.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputReport {
    /// Network size.
    pub nodes: usize,
    /// Tuples streamed.
    pub tuples: usize,
    /// Payload bytes per tuple.
    pub payload: usize,
    /// Logical messages routed.
    pub messages: u64,
    /// Wire bytes counted by the transport.
    pub wire_bytes: u64,
    /// Wall time of the tuple-streaming phase.
    pub wall: Duration,
    /// Socket-level statistics drained from the transport.
    pub socket: SocketStats,
}

impl ThroughputReport {
    /// Logical messages per second of wall time.
    pub fn msgs_per_sec(&self) -> f64 {
        self.messages as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Wire megabytes per second of wall time.
    pub fn mb_per_sec(&self) -> f64 {
        self.wire_bytes as f64 / (1024.0 * 1024.0) / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Streams `cfg.tuples` wide tuples through the TCP loopback reactor
/// under a handful of standing join queries and measures throughput.
/// Join keys are distinct per tuple, so the indexing and rewriting
/// traffic dominates and the notification volume stays flat.
pub fn run_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let mut catalog = Catalog::new();
    catalog
        .register(
            RelationSchema::of(
                "R",
                &[
                    ("A", DataType::Int),
                    ("B", DataType::Int),
                    ("C", DataType::Int),
                    ("D", DataType::Int),
                    ("E", DataType::Int),
                    ("F", DataType::Int),
                    ("P", DataType::Str),
                ],
            )
            .expect("valid schema"),
        )
        .expect("fresh catalog");
    catalog
        .register(
            RelationSchema::of(
                "S",
                &[
                    ("G", DataType::Int),
                    ("H", DataType::Int),
                    ("I", DataType::Int),
                    ("J", DataType::Int),
                    ("K", DataType::Int),
                    ("L", DataType::Int),
                    ("Q", DataType::Str),
                ],
            )
            .expect("valid schema"),
        )
        .expect("fresh catalog");
    let engine_cfg = EngineConfig::new(Algorithm::DaiT)
        .with_nodes(cfg.nodes)
        .with_seed(cfg.seed)
        .with_retained_notifications(true);
    let mut net = Network::new(engine_cfg, catalog);
    net.enable_tcp_transport().expect("loopback listeners bind");
    for sql in [
        "SELECT R.A, S.H FROM R, S WHERE R.B = S.G",
        "SELECT R.C, S.J FROM R, S WHERE R.D = S.I",
        "SELECT R.E, S.L FROM R, S WHERE R.F = S.K",
        "SELECT R.B, S.I FROM R, S WHERE R.A = S.L",
    ] {
        let poser = net.random_node();
        net.pose_query_sql(poser, sql)
            .expect("throughput queries are valid");
    }
    let pad = "x".repeat(cfg.payload);
    let start = Instant::now();
    for i in 0..cfg.tuples {
        let k = 1_000_000 + 2 * i as i64;
        let (rel, base) = if i % 2 == 0 {
            ("R", k)
        } else {
            ("S", k + 1) // odd keys: never meets an R key, joins stay dry
        };
        let values = vec![
            Value::Int(base),
            Value::Int(base + 10_000_000),
            Value::Int(base + 20_000_000),
            Value::Int(base + 30_000_000),
            Value::Int(base + 40_000_000),
            Value::Int(base + 50_000_000),
            Value::Str(pad.clone()),
        ];
        let from = net.random_node();
        net.insert_tuple(from, rel, values)
            .expect("throughput tuples are valid");
    }
    let wall = start.elapsed();
    let socket = net
        .take_socket_stats()
        .expect("tcp transport reports socket stats");
    let m = net.metrics();
    ThroughputReport {
        nodes: cfg.nodes,
        tuples: cfg.tuples,
        payload: cfg.payload,
        messages: m.total_traffic().messages,
        wire_bytes: m.faults.total_bytes_sent(),
        wall,
        socket,
    }
}
