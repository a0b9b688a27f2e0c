//! Sim-vs-socket equivalence runs: drive one [`RunConfig`] through the
//! harness's loop on the in-memory simulator transport and on real TCP
//! loopback sockets, and compare the two finished networks.
//!
//! The TCP backend queues envelope metadata in userspace while the message
//! payloads cross real sockets, so a socket run dispatches the identical
//! message sequence as the simulator at the same seed — under injected
//! faults and the failure detector too, since the fault pump, not the
//! transport, draws every fault. The delivered notifications and every
//! transport-independent metric must match exactly. [`compare`] runs both
//! and reports the first divergence; the `tcp_cluster` binary and the
//! `socket-suite` CI test are thin wrappers around it.

use std::time::{Duration, Instant};

use cq_engine::{Algorithm, EngineConfig, Network, SocketStats};
use cq_overlay::NodeHandle;
use cq_relational::{Catalog, DataType, Notification, RelationSchema, Value};

use crate::harness::{drive, Backend, RunConfig, RunResult};

/// What an equivalence [`compare`] proved and measured: the socket run's
/// result (the simulator run matched every checked field of it) and the
/// statistics that describe only the socket run.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// The socket run's metric vectors and counters.
    pub result: RunResult,
    /// Wall time of the socket run, from building the network to
    /// collecting its result.
    pub wall: Duration,
    /// Socket-level statistics drained from the TCP transport.
    pub socket: SocketStats,
}

/// Every inbox in slot order, each in delivery order.
fn inboxes(net: &Network) -> Vec<&[Notification]> {
    (0..net.ring().slot_count())
        .map(|i| net.inbox(NodeHandle::from_index(i)))
        .collect()
}

/// Drives `cfg` once on each transport and returns the socket run's
/// report on success, or a description of the first divergence.
///
/// Without a fault pump the simulator never serializes, so it must count
/// no wire bytes while the socket run counts some; with one (a fault
/// config that perturbs delivery, or the detector), the pump charges the
/// bytes of every transmission on both and they must be equal.
pub fn compare(cfg: &RunConfig) -> Result<CompareReport, String> {
    let (sim_net, sim) = drive(cfg, Backend::Sim);
    let start = Instant::now();
    let (mut tcp_net, tcp) = drive(cfg, Backend::Tcp);
    let wall = start.elapsed();
    let (sim_set, tcp_set) = (sim_net.delivered_set(), tcp_net.delivered_set());
    if sim_set != tcp_set {
        return Err(format!(
            "delivered sets diverge: {} notifications only in sim, {} only in tcp",
            sim_set.difference(&tcp_set).count(),
            tcp_set.difference(&sim_set).count()
        ));
    }
    if sim.notifications != tcp.notifications {
        return Err(format!(
            "delivery multiplicity diverges: sim {} vs tcp {}",
            sim.notifications, tcp.notifications
        ));
    }
    let sim_inboxes = inboxes(&sim_net);
    if let Some(i) = inboxes(&tcp_net)
        .iter()
        .zip(&sim_inboxes)
        .position(|(t, s)| t != s)
    {
        return Err(format!(
            "inbox of node slot {i} diverges in content or order"
        ));
    }
    if sim.total_traffic != tcp.total_traffic {
        return Err(format!(
            "total traffic diverges: sim {:?} vs tcp {:?}",
            sim.total_traffic, tcp.total_traffic
        ));
    }
    if sim.traffic != tcp.traffic {
        return Err(format!(
            "per-kind traffic diverges: sim {:?} vs tcp {:?}",
            sim.traffic, tcp.traffic
        ));
    }
    let mut tcp_faults = tcp.faults;
    if !(cfg.engine.fault.perturbs_delivery() || cfg.engine.suspicion.enabled) {
        if sim.faults.total_bytes_sent() != 0 {
            return Err(format!(
                "simulator counted wire bytes ({}) without serializing",
                sim.faults.total_bytes_sent()
            ));
        }
        if tcp.faults.total_bytes_sent() == 0 {
            return Err("tcp transport counted no wire bytes".to_string());
        }
        tcp_faults.bytes_sent = sim.faults.bytes_sent;
    }
    if sim.faults != tcp_faults {
        return Err(format!(
            "fault counters diverge: sim {:?} vs tcp {:?}",
            sim.faults, tcp.faults
        ));
    }
    if sim.recovery != tcp.recovery {
        return Err(format!(
            "recovery counters diverge: sim {:?} vs tcp {:?}",
            sim.recovery, tcp.recovery
        ));
    }
    let socket = tcp_net
        .take_socket_stats()
        .ok_or_else(|| "tcp run produced no socket stats".to_string())?;
    if socket.frames_sent == 0 || socket.frames_received == 0 {
        return Err(format!(
            "socket stats counted no frames: {} sent, {} received",
            socket.frames_sent, socket.frames_received
        ));
    }
    Ok(CompareReport {
        result: tcp,
        wall,
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
/// drain coalesces many frames per flush.
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
