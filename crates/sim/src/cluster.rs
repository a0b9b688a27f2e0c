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
//!
//! [`run_multi_client`] is the concurrent variant: one server event loop
//! (the same [`cq_poll::Poller`] + [`FrameConn`] machinery the engine's TCP
//! backend uses) owns the network, while N client threads stream the
//! workload's commands over their own sockets concurrently. Frames arrive
//! interleaved and out of global order; the server reassembles them by
//! global sequence number and applies them in order, so the outcome is
//! deterministic — and must equal a sequential run of the same command
//! list. The server answers each client with a deliberately large
//! completion frame through a tiny `SO_SNDBUF`, forcing the write path
//! into userspace backpressure.

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use cq_engine::frames::{BufPool, FrameConn};
use cq_engine::{Algorithm, EngineConfig, Network, SocketStats, TrafficKind};
use cq_poll::{Event, Interest, Poller};
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

// =====================================================================
// Multi-client concurrent harness
// =====================================================================

/// Commands are applied strictly in global sequence order however they
/// arrive, so a multi-client run is comparable against a sequential one.
enum Command {
    /// Pose a continuous query at a node.
    Query {
        /// Posing node slot.
        node: u32,
        /// The query SQL.
        sql: String,
    },
    /// Insert a streamed tuple at a node.
    Tuple {
        /// Inserting node slot.
        node: u32,
        /// Target relation.
        rel: String,
        /// The tuple values.
        values: Vec<Value>,
    },
}

/// Deterministic node spread for command `i` (a multiplicative hash — the
/// engine's own RNG must not be consulted, or the baseline and the
/// multi-client run would draw different protocol streams).
fn spread(i: usize, nodes: usize) -> u32 {
    (((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % nodes) as u32
}

/// Generates the experiment's command list from the seeded workload.
fn command_list(cfg: &ClusterConfig) -> (Workload, Vec<Command>) {
    let mut workload = Workload::new(WorkloadConfig {
        seed: cfg.seed,
        ..WorkloadConfig::default()
    });
    let mut cmds = Vec::with_capacity(cfg.queries + cfg.tuples);
    for i in 0..cfg.queries {
        cmds.push(Command::Query {
            node: spread(i, cfg.nodes),
            sql: workload.query_between(0, 1),
        });
    }
    for i in 0..cfg.tuples {
        cmds.push(Command::Tuple {
            node: spread(cfg.queries + i, cfg.nodes),
            rel: workload.next_stream_relation(),
            values: workload.random_tuple_values(),
        });
    }
    (workload, cmds)
}

impl Command {
    /// Serializes the command as a length-prefixed frame body (the shape
    /// [`FrameConn::queue_frame`] expects).
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        match self {
            Command::Query { node, sql } => {
                body.push(0u8);
                body.extend_from_slice(&node.to_le_bytes());
                body.extend_from_slice(&(sql.len() as u32).to_le_bytes());
                body.extend_from_slice(sql.as_bytes());
            }
            Command::Tuple { node, rel, values } => {
                body.push(1u8);
                body.extend_from_slice(&node.to_le_bytes());
                body.extend_from_slice(&(rel.len() as u32).to_le_bytes());
                body.extend_from_slice(rel.as_bytes());
                body.extend_from_slice(&(values.len() as u16).to_le_bytes());
                for v in values {
                    match v {
                        Value::Int(i) => {
                            body.push(0u8);
                            body.extend_from_slice(&i.to_le_bytes());
                        }
                        Value::Str(s) => {
                            body.push(1u8);
                            body.extend_from_slice(&(s.len() as u32).to_le_bytes());
                            body.extend_from_slice(s.as_bytes());
                        }
                    }
                }
            }
        }
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame
    }

    /// Decodes a command from a frame body (without the length prefix).
    fn decode(body: &[u8]) -> Result<Command, String> {
        struct Cursor<'a>(&'a [u8], usize);
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
                if self.0.len() - self.1 < n {
                    return Err("truncated command frame".to_string());
                }
                let s = &self.0[self.1..self.1 + n];
                self.1 += n;
                Ok(s)
            }
            fn u8(&mut self) -> Result<u8, String> {
                Ok(self.take(1)?[0])
            }
            fn u16(&mut self) -> Result<u16, String> {
                Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
            }
            fn u32(&mut self) -> Result<u32, String> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn i64(&mut self) -> Result<i64, String> {
                Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
            fn string(&mut self) -> Result<String, String> {
                let len = self.u32()? as usize;
                String::from_utf8(self.take(len)?.to_vec())
                    .map_err(|_| "command frame carries invalid utf-8".to_string())
            }
        }
        let mut c = Cursor(body, 0);
        let cmd = match c.u8()? {
            0 => Command::Query {
                node: c.u32()?,
                sql: c.string()?,
            },
            1 => {
                let node = c.u32()?;
                let rel = c.string()?;
                let n = c.u16()? as usize;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(match c.u8()? {
                        0 => Value::Int(c.i64()?),
                        1 => Value::Str(c.string()?),
                        t => return Err(format!("unknown value tag {t}")),
                    });
                }
                Command::Tuple { node, rel, values }
            }
            t => return Err(format!("unknown command tag {t}")),
        };
        if c.1 != body.len() {
            return Err("trailing bytes after command".to_string());
        }
        Ok(cmd)
    }
}

/// Applies one command to the network.
fn apply(net: &mut Network, cmd: &Command) -> Result<(), String> {
    match cmd {
        Command::Query { node, sql } => net
            .pose_query_sql(net.node_at(*node as usize), sql)
            .map(|_| ())
            .map_err(|e| format!("pose query: {e}")),
        Command::Tuple { node, rel, values } => net
            .insert_tuple(net.node_at(*node as usize), rel, values.clone())
            .map(|_| ())
            .map_err(|e| format!("insert tuple: {e}")),
    }
}

/// What a [`run_multi_client`] run produced and proved.
#[derive(Clone, Debug)]
pub struct MultiClientReport {
    /// Concurrent client connections served by the one event loop.
    pub clients: usize,
    /// Commands shipped over the client sockets.
    pub commands: usize,
    /// Wire bytes moved by the engine's own TCP transport during the run.
    pub wire_bytes: u64,
    /// Times the harness server's completion-frame writes hit a full
    /// kernel buffer and parked bytes in userspace (the partial-write
    /// backpressure path; the report is only produced if this exercised).
    pub server_backpressure_events: u64,
}

/// Size of the completion frame the server sends each client — large
/// enough that, pushed through a [`SMALL_SNDBUF`]-byte kernel buffer at a
/// client that is deliberately not reading yet, the write *must* park
/// bytes in userspace.
const COMPLETION_LEN: usize = 512 * 1024;

/// Kernel send-buffer size applied to the server side of every client
/// connection.
const SMALL_SNDBUF: usize = 4096;

/// Wall-clock budget for the whole multi-client exchange.
const MULTI_DEADLINE: Duration = Duration::from_secs(120);

/// Runs the experiment with one server event loop and `clients` concurrent
/// client connections streaming the command list (round-robin partitioned,
/// so frames genuinely interleave), applies commands in global order, and
/// checks the outcome against a sequential in-memory run of the same
/// commands. The completion exchange forces write backpressure on the
/// server; the report carries the observed event count.
pub fn run_multi_client(cfg: &ClusterConfig, clients: usize) -> Result<MultiClientReport, String> {
    assert!(clients > 0, "at least one client");
    let (workload, cmds) = command_list(cfg);
    let engine_cfg = || {
        EngineConfig::new(cfg.algorithm)
            .with_nodes(cfg.nodes)
            .with_seed(cfg.seed)
            .with_retained_notifications(true)
    };

    // Baseline: the same commands, applied sequentially, in-memory.
    let mut baseline_net = Network::new(engine_cfg(), workload.catalog().clone());
    for cmd in &cmds {
        apply(&mut baseline_net, cmd)?;
    }
    let baseline = collect_run(&baseline_net);

    // Concurrent run: the server's network itself runs over TCP loopback.
    let mut net = Network::new(engine_cfg(), workload.catalog().clone());
    net.enable_tcp_transport()
        .map_err(|e| format!("enable tcp transport: {e}"))?;

    let listener =
        TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind harness listener: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking listener: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    // Round-robin partition: client `c` carries global sequences c, c+N, …
    let mut parts: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); clients];
    for (i, cmd) in cmds.iter().enumerate() {
        parts[i % clients].push((i as u64, cmd.encode()));
    }
    let handles: Vec<_> = parts
        .into_iter()
        .map(|part| std::thread::spawn(move || client_thread(addr, part)))
        .collect();

    let total = cmds.len();
    let result = serve_multi(&mut net, &listener, clients, total);
    let mut client_errors = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => client_errors.push(format!("client {i}: {e}")),
            Err(_) => client_errors.push(format!("client {i}: panicked")),
        }
    }
    let backpressure = result?;
    if !client_errors.is_empty() {
        return Err(client_errors.join("; "));
    }

    let run = collect_run(&net);
    if run.delivered != baseline.delivered {
        let base_only = baseline.delivered.difference(&run.delivered).count();
        let multi_only = run.delivered.difference(&baseline.delivered).count();
        return Err(format!(
            "delivered sets diverge: {base_only} notifications only in the sequential baseline, \
             {multi_only} only in the multi-client run"
        ));
    }
    if run.notifications != baseline.notifications {
        return Err(format!(
            "delivery multiplicity diverges: baseline {} vs multi-client {}",
            baseline.notifications, run.notifications
        ));
    }
    if (run.messages, run.hops) != (baseline.messages, baseline.hops) {
        return Err(format!(
            "traffic diverges: baseline {}msg/{}hops vs multi-client {}msg/{}hops",
            baseline.messages, baseline.hops, run.messages, run.hops
        ));
    }
    if run.traffic != baseline.traffic {
        return Err(format!(
            "per-kind traffic diverges: baseline {:?} vs multi-client {:?}",
            baseline.traffic, run.traffic
        ));
    }
    if run.wire_bytes == 0 {
        return Err("engine tcp transport counted no wire bytes".to_string());
    }
    if backpressure == 0 {
        return Err("completion exchange never hit write backpressure".to_string());
    }
    Ok(MultiClientReport {
        clients,
        commands: total,
        wire_bytes: run.wire_bytes,
        server_backpressure_events: backpressure,
    })
}

/// One harness-server connection.
struct HarnessConn {
    fc: FrameConn,
    /// The client finished sending (clean EOF observed).
    eof: bool,
    /// The completion frame has been queued.
    done_queued: bool,
}

/// The server event loop: accept `clients` connections, reassemble command
/// frames, apply them in global order, then push the oversized completion
/// frames. Returns the total backpressure events observed on the harness
/// connections.
fn serve_multi(
    net: &mut Network,
    listener: &TcpListener,
    clients: usize,
    total: usize,
) -> Result<u64, String> {
    let mut poller = Poller::new().map_err(|e| format!("harness poller: {e}"))?;
    poller
        .register(listener, 0, Interest::READ)
        .map_err(|e| format!("register listener: {e}"))?;
    let completion = {
        let body = vec![0u8; COMPLETION_LEN];
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        frame
    };
    let mut conns: Vec<HarnessConn> = Vec::with_capacity(clients);
    let mut events: Vec<Event> = Vec::new();
    let mut raw = Vec::new();
    let mut pool = BufPool::new();
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut next_apply = 0u64;
    let mut applied = 0usize;
    let deadline = Instant::now() + MULTI_DEADLINE;
    loop {
        let finished = applied == total
            && conns.len() == clients
            && conns.iter().all(|c| c.done_queued && !c.fc.wants_write());
        if finished {
            return Ok(conns.iter().map(|c| c.fc.blocked_writes()).sum());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "multi-client exchange timed out: {applied}/{total} commands applied, \
                 {} connections",
                conns.len()
            ));
        }
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .map_err(|e| format!("harness wait: {e}"))?;
        for ev in events.drain(..) {
            if ev.token == 0 {
                // Accept every pending client; tiny SO_SNDBUF on the server
                // side so the completion frame cannot fit in the kernel.
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            cq_poll::set_send_buffer(&stream, SMALL_SNDBUF)
                                .map_err(|e| format!("shrink sndbuf: {e}"))?;
                            let fc = FrameConn::new(stream, cq_engine::wire::MAX_FRAME)
                                .map_err(|e| format!("accept: {e}"))?;
                            let token = 1 + conns.len() as u64;
                            poller
                                .register(fc.stream(), token, Interest::READ)
                                .map_err(|e| format!("register conn: {e}"))?;
                            conns.push(HarnessConn {
                                fc,
                                eof: false,
                                done_queued: false,
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) => return Err(format!("accept: {e}")),
                    }
                }
                continue;
            }
            let idx = ev.token as usize - 1;
            let conn = &mut conns[idx];
            if ev.readable && !conn.eof {
                raw.clear();
                match conn.fc.read_frames(&mut raw, &mut pool) {
                    Ok(true) => {}
                    Ok(false) => {
                        conn.eof = true;
                        // Mask read interest: a half-closed socket would
                        // otherwise level-trigger forever.
                        poller
                            .modify(
                                conn.fc.stream(),
                                ev.token,
                                Interest {
                                    readable: false,
                                    writable: conn.fc.wants_write(),
                                },
                            )
                            .map_err(|e| format!("mask conn: {e}"))?;
                    }
                    Err(e) => return Err(format!("client frames: {e}")),
                }
                for (seq, frame) in raw.drain(..) {
                    pending.insert(seq, frame);
                }
            }
            if ev.writable && conn.fc.wants_write() {
                let drained = conn.fc.flush().map_err(|e| format!("flush: {e}"))?;
                if drained {
                    poller
                        .modify(
                            conn.fc.stream(),
                            ev.token,
                            Interest {
                                readable: !conn.eof,
                                writable: false,
                            },
                        )
                        .map_err(|e| format!("unmask write: {e}"))?;
                }
            }
        }
        // Apply every command whose global order has arrived; the frame
        // buffers go back to the pool once decoded.
        while let Some(frame) = pending.remove(&next_apply) {
            let cmd = Command::decode(&frame[4..]);
            pool.put(frame);
            apply(net, &cmd?)?;
            next_apply += 1;
            applied += 1;
        }
        // Everything applied: answer each finished client with the
        // oversized completion frame (this is where backpressure bites).
        if applied == total {
            for (idx, conn) in conns.iter_mut().enumerate() {
                if conn.eof && !conn.done_queued {
                    conn.done_queued = true;
                    conn.fc.queue_frame(0, &completion);
                    let _ = conn.fc.flush().map_err(|e| format!("completion: {e}"))?;
                    poller
                        .modify(
                            conn.fc.stream(),
                            1 + idx as u64,
                            Interest {
                                readable: false,
                                writable: conn.fc.wants_write(),
                            },
                        )
                        .map_err(|e| format!("arm write: {e}"))?;
                }
            }
        }
    }
}

/// One client: stream the assigned command frames, half-close, hold off
/// reading briefly (so the server's completion write is guaranteed to meet
/// a full pipe), then consume the completion frame.
fn client_thread(
    addr: std::net::SocketAddr,
    part: Vec<(u64, Vec<u8>)>,
) -> Result<(), std::io::Error> {
    // The client reads at full speed once it starts; backpressure is
    // guaranteed by COMPLETION_LEN dwarfing the server's SO_SNDBUF while
    // this thread is still in its pre-read sleep.
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut buf = Vec::new();
    for (seq, frame) in &part {
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(frame);
    }
    stream.write_all(&buf)?;
    stream.shutdown(Shutdown::Write)?;
    std::thread::sleep(Duration::from_millis(100));
    let mut header = [0u8; 12];
    stream.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if len != COMPLETION_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("completion frame announces {len} bytes"),
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(())
}
