//! The experiment harness: builds a network + workload from a [`RunConfig`],
//! installs queries, streams tuples and collects the metric vectors the
//! figures are built from. Its loop drives every figure but one, and the
//! sim-vs-socket check in [`crate::cluster`] drives it on both backends.
//! Two loops of their own remain, each needing what a [`RunConfig`] does
//! not express: A1 (`experiments::a01_dai_v_keyed`) needs the keyed DAI-V
//! variant and one fixed join condition for every query, and
//! [`crate::cluster::run_throughput`] streams wide tuples over its own
//! catalog.
//!
//! With a trace directory set ([`set_trace_dir`]), each run also streams
//! its events into one trace file through a [`FileSink`]; the file is the
//! whole record, and the run's result is the same with or without it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cq_engine::{
    Algorithm, EngineConfig, FaultConfig, FaultCounters, IndexStrategy, Network, Oracle,
    RecoveryCounters, SuspicionConfig, TrafficKind,
};
use cq_overlay::TrafficStats;
use cq_workload::{Workload, WorkloadConfig};

use crate::trace::{FileSink, TraceFormat};

/// Directory trace files are written into when tracing is enabled via
/// [`set_trace_dir`] (the experiments binary's `--trace <dir>` flag).
static TRACE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
/// The serialization the trace files use (`--trace-format`).
static TRACE_FORMAT: Mutex<TraceFormat> = Mutex::new(TraceFormat::Jsonl);
/// Monotonic counter making trace file names unique across runs (and across
/// `--jobs` workers; the assignment order — not the file contents — depends
/// on scheduling under parallelism).
static TRACE_RUN: AtomicU64 = AtomicU64::new(0);

/// Enables tracing for every subsequent [`run`]: each run writes
/// `trace-NNNN-<alg>-<nodes>n-seed<seed>.<ext>` into `dir` through a
/// [`FileSink`]. Pass `None` to disable. The extension and encoding follow
/// [`set_trace_format`].
///
/// Tracing observes only — metric vectors and report output are identical
/// with it on or off (goldens are generated with it off).
pub fn set_trace_dir(dir: Option<PathBuf>) {
    *TRACE_DIR.lock().expect("trace dir lock") = dir;
}

/// Selects the trace-file serialization for every subsequent [`run`]
/// (default [`TraceFormat::Jsonl`]). Takes effect only while a trace
/// directory is set.
pub fn set_trace_format(format: TraceFormat) {
    *TRACE_FORMAT.lock().expect("trace format lock") = format;
}

fn trace_dir() -> Option<PathBuf> {
    TRACE_DIR.lock().expect("trace dir lock").clone()
}

fn trace_format() -> TraceFormat {
    *TRACE_FORMAT.lock().expect("trace format lock")
}

fn trace_file_name(dir: &Path, cfg: &RunConfig, format: TraceFormat) -> PathBuf {
    let n = TRACE_RUN.fetch_add(1, Ordering::Relaxed);
    dir.join(format!(
        "trace-{n:04}-{}-{}n-seed{}.{}",
        cfg.algorithm.to_string().to_lowercase(),
        cfg.nodes,
        cfg.workload.seed,
        format.extension()
    ))
}

/// Parameters of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Evaluation algorithm.
    pub algorithm: Algorithm,
    /// Network size `N`.
    pub nodes: usize,
    /// Number of continuous queries to install.
    pub queries: usize,
    /// Number of tuples to stream in the measured window.
    pub tuples: usize,
    /// Warm-up tuples streamed *before* queries are installed (builds the
    /// rewriters' arrival statistics for the probing strategies and fills
    /// value-level stores).
    pub warmup_tuples: usize,
    /// SAI index-attribute strategy.
    pub strategy: IndexStrategy,
    /// JFRT on/off.
    pub use_jfrt: bool,
    /// Attribute-level replication factor.
    pub replication: usize,
    /// Generate type-T2 queries (requires DAI-V).
    pub t2_queries: bool,
    /// Reset traffic/load counters after installation, so results cover only
    /// the measured tuple window.
    pub measure_stream_only: bool,
    /// Workload shape (domain, skew, bos ratio, ...).
    pub workload: WorkloadConfig,
    /// Fault model for the run (message loss/duplication/delay, reliable
    /// delivery, k-successor replication). Inert by default.
    pub fault: FaultConfig,
    /// In-protocol failure detection (heartbeats, suspicion, anti-entropy).
    /// Disabled by default: failures are then repaired by oracle
    /// `stabilize` calls, the seed behavior. When enabled, the harness
    /// never stabilizes for the detector — it `settle`s at the end of the
    /// stream instead and reports recall against the oracle both overall
    /// and restricted to tuples published outside detection windows.
    pub suspicion: SuspicionConfig,
    /// Abrupt node failures injected at evenly spaced points across the
    /// measured tuple window, each followed by two stabilization rounds.
    pub failures: usize,
    /// Retain notification bodies so recall against the oracle can be
    /// computed (needed by the fault experiment; off by default because
    /// bodies dominate memory at full scale).
    pub retain_notifications: bool,
}

impl RunConfig {
    /// A small, fast default over two relations.
    pub fn new(algorithm: Algorithm) -> Self {
        RunConfig {
            algorithm,
            nodes: 128,
            queries: 50,
            tuples: 300,
            warmup_tuples: 0,
            strategy: IndexStrategy::LowestRate,
            use_jfrt: true,
            replication: 1,
            t2_queries: false,
            measure_stream_only: true,
            workload: WorkloadConfig::default(),
            fault: FaultConfig::default(),
            suspicion: SuspicionConfig::default(),
            failures: 0,
            retain_notifications: false,
        }
    }
}

/// The metric vectors collected by one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-node total filtering load (rewriter + evaluator), by node slot.
    pub filtering: Vec<f64>,
    /// Per-node rewriter-only filtering load.
    pub rewriter_filtering: Vec<f64>,
    /// Per-node evaluator-only filtering load.
    pub evaluator_filtering: Vec<f64>,
    /// Per-node storage load.
    pub storage: Vec<f64>,
    /// Per-node evaluator storage (value-level items only).
    pub evaluator_storage: Vec<f64>,
    /// Total rewritten queries stored at evaluators (VLQT sizes).
    pub stored_rewritten: u64,
    /// Total tuples stored at evaluators (VLTT + DAI-V store sizes).
    pub stored_tuples: u64,
    /// Traffic per category.
    pub traffic: Vec<(TrafficKind, TrafficStats)>,
    /// Total traffic.
    pub total_traffic: TrafficStats,
    /// Notifications delivered (with multiplicity).
    pub notifications: u64,
    /// Tuples actually streamed in the measured window.
    pub streamed: usize,
    /// Traffic of the installation phase (warm-up + query indexing),
    /// captured before any reset — e.g. the strategy probes of E4.
    pub install_traffic: Vec<(TrafficKind, TrafficStats)>,
    /// Fault-layer counters (loss, duplication, retransmissions, dedup
    /// suppressions, failures, promotions).
    pub faults: FaultCounters,
    /// Failure-detection counters (heartbeats, suspicions, detections,
    /// anti-entropy repair work); all zero unless suspicion was enabled.
    pub recovery: RecoveryCounters,
    /// Recall restricted to tuples published *outside* detection windows —
    /// the deliveries the detector-based engine actually guarantees.
    /// Equals `recall` when no window opened (or recall was not computed).
    pub recall_outside_windows: f64,
    /// Distinct notification contents the oracle expects (only computed
    /// when `retain_notifications` is set; zero otherwise).
    pub expected_notifications: u64,
    /// Of those, how many were actually delivered to an inbox or offline
    /// store (set semantics).
    pub delivered_notifications: u64,
    /// `delivered / expected` (1.0 when nothing was expected or recall was
    /// not computed).
    pub recall: f64,
}

impl RunResult {
    /// Traffic of one category.
    pub fn traffic_of(&self, kind: TrafficKind) -> TrafficStats {
        self.traffic
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Installation-phase traffic of one category.
    pub fn install_traffic_of(&self, kind: TrafficKind) -> TrafficStats {
        self.install_traffic
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Average overlay hops consumed per streamed tuple (the paper's
    /// traffic-cost metric).
    pub fn hops_per_tuple(&self) -> f64 {
        if self.streamed == 0 {
            0.0
        } else {
            self.total_traffic.hops as f64 / self.streamed as f64
        }
    }

    /// Total filtering load over all nodes (`TF`).
    pub fn total_filtering(&self) -> f64 {
        self.filtering.iter().sum()
    }

    /// Total storage load over all nodes (`TS`).
    pub fn total_storage(&self) -> f64 {
        self.storage.iter().sum()
    }

    /// Total evaluator storage.
    pub fn total_evaluator_storage(&self) -> f64 {
        self.evaluator_storage.iter().sum()
    }

    /// Total evaluator filtering.
    pub fn total_evaluator_filtering(&self) -> f64 {
        self.evaluator_filtering.iter().sum()
    }
}

/// The transport a driven run's node-to-node messages cross.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Backend {
    /// The in-memory simulator queue, which every figure runs on.
    Sim,
    /// Real TCP loopback sockets, one listener per node.
    Tcp,
}

/// Executes one run.
pub fn run(cfg: &RunConfig) -> RunResult {
    drive(cfg, Backend::Sim).1
}

/// Executes one run over `backend`: warm-up, query installation, the
/// measured stream with its failures, and the detector's `settle`. Returns
/// the finished network beside the run's result, so a caller can inspect
/// what the metric vectors do not carry (inboxes, socket statistics).
pub(crate) fn drive(cfg: &RunConfig, backend: Backend) -> (Network, RunResult) {
    let mut workload = Workload::new(cfg.workload.clone());
    let engine_cfg = EngineConfig::new(cfg.algorithm)
        .with_nodes(cfg.nodes)
        .with_strategy(cfg.strategy)
        .with_jfrt(cfg.use_jfrt)
        .with_replication(cfg.replication)
        // Delivery traffic and counts are measured; retaining millions of
        // notification bodies would dominate simulator memory at full
        // scale, so bodies are kept only when a run needs recall.
        .with_retained_notifications(cfg.retain_notifications)
        .with_seed(cfg.workload.seed)
        .with_fault(cfg.fault.clone())
        .with_suspicion(cfg.suspicion);
    let mut net = Network::new(engine_cfg, workload.catalog().clone());
    if backend == Backend::Tcp {
        net.enable_tcp_transport().expect("loopback listeners bind");
    }

    // When tracing is enabled, stream every event into a trace file (JSONL
    // or wire-framed binary per `set_trace_format`). Sinks only observe: the
    // run's results are identical with or without them.
    let trace_sink = trace_dir().map(|dir| {
        let format = trace_format();
        let path = trace_file_name(&dir, cfg, format);
        let sink = Arc::new(FileSink::create(path, format).expect("create trace file"));
        net.set_tracer(sink.clone());
        sink
    });

    // Warm-up stream (before queries exist, so it only builds statistics
    // and value-level tuple stores).
    net.trace_phase("warmup");
    for _ in 0..cfg.warmup_tuples {
        stream_one(&mut net, &mut workload);
    }

    // Install queries over the focused pair (R0, R1).
    net.trace_phase("install");
    for _ in 0..cfg.queries {
        let poser = net.random_node();
        let sql = if cfg.t2_queries {
            workload.random_t2_query_sql()
        } else {
            workload.query_between(0, 1)
        };
        net.pose_query_sql(poser, &sql)
            .expect("generated queries are valid");
    }

    let install_traffic: Vec<(TrafficKind, TrafficStats)> = TrafficKind::ALL
        .iter()
        .map(|&k| (k, net.metrics().traffic(k)))
        .collect();
    if cfg.measure_stream_only {
        net.reset_metrics();
    }

    // The measured tuple window, with any requested abrupt failures spread
    // evenly across it (each immediately followed by stabilization, which
    // repairs the ring and promotes replicas).
    net.trace_phase("stream");
    let detect = cfg.suspicion.enabled;
    let mut failed = 0usize;
    for i in 0..cfg.tuples {
        while failed < cfg.failures && i * (cfg.failures + 1) >= (failed + 1) * cfg.tuples {
            fail_one(&mut net, detect);
            failed += 1;
        }
        stream_one(&mut net, &mut workload);
    }
    while failed < cfg.failures {
        fail_one(&mut net, detect);
        failed += 1;
    }
    if detect {
        // Let the detector confirm every outstanding failure and verify
        // its repair before measuring.
        net.settle().expect("failure detection converges");
    }

    let mut result = collect(&net, cfg.tuples, cfg.retain_notifications);
    result.install_traffic = install_traffic;
    if let Some(sink) = trace_sink {
        sink.flush().expect("flush trace file");
    }
    (net, result)
}

/// Abruptly fails one pseudo-random alive node (never the last one). With
/// `detect` off, the harness repairs immediately with oracle knowledge
/// (the seed behavior); with it on, the in-protocol detector must discover
/// the failure on its own.
fn fail_one(net: &mut Network, detect: bool) {
    if net.alive_count() <= 1 {
        return;
    }
    let victim = net.random_node();
    net.node_fail(victim).expect("victim is alive");
    if !detect {
        net.stabilize(2).expect("stabilization after failure");
    }
}

fn stream_one(net: &mut Network, workload: &mut Workload) {
    let rel = workload.next_stream_relation();
    let values = workload.random_tuple_values();
    let from = net.random_node();
    net.insert_tuple(from, &rel, values)
        .expect("generated tuples are valid");
}

fn collect(net: &Network, streamed: usize, with_recall: bool) -> RunResult {
    let loads = net.metrics().loads();
    let filtering: Vec<f64> = loads.iter().map(|l| l.filtering() as f64).collect();
    let rewriter_filtering: Vec<f64> = loads.iter().map(|l| l.rewriter_filtering as f64).collect();
    let evaluator_filtering: Vec<f64> =
        loads.iter().map(|l| l.evaluator_filtering as f64).collect();
    let storage: Vec<f64> = net.storage_loads().iter().map(|&s| s as f64).collect();
    let mut stored_rewritten = 0u64;
    let mut stored_tuples = 0u64;
    let evaluator_storage: Vec<f64> = (0..storage.len())
        .map(|i| {
            let st = net.node_state(cq_overlay::NodeHandle::from_index(i));
            stored_rewritten += st.tables.vlqt.len() as u64;
            stored_tuples += (st.tables.vltt.len() + st.tables.vstore.len()) as u64;
            st.evaluator_storage() as f64
        })
        .collect();
    let traffic: Vec<(TrafficKind, TrafficStats)> = TrafficKind::ALL
        .iter()
        .map(|&k| (k, net.metrics().traffic(k)))
        .collect();
    let (expected_notifications, delivered_notifications, recall, recall_outside_windows) =
        if with_recall {
            let mut oracle = Oracle::new();
            oracle.ingest(net.posed_queries(), net.inserted_tuples());
            let expected = oracle.expected().expect("oracle evaluation");
            let delivered = net.delivered_set();
            let hit = expected.iter().filter(|n| delivered.contains(*n)).count() as u64;
            let total = expected.len() as u64;
            let recall = if total == 0 {
                1.0
            } else {
                hit as f64 / total as f64
            };
            // Recall over the oracle restricted to tuples published outside
            // every detection window — the deliveries a detector-based
            // engine guarantees (tuples inside a window may have been
            // routed to a failed-but-undetected owner).
            let windows = net.detection_windows();
            let outside = if windows.is_empty() {
                recall
            } else {
                let tuples: Vec<_> = net
                    .inserted_tuples()
                    .iter()
                    .filter(|t| {
                        let p = t.pub_time().0;
                        windows.iter().all(|&(a, b)| p < a || p > b)
                    })
                    .cloned()
                    .collect();
                let mut o = Oracle::new();
                o.ingest(net.posed_queries(), &tuples);
                let exp = o.expected().expect("oracle evaluation");
                let hit = exp.iter().filter(|n| delivered.contains(*n)).count() as u64;
                if exp.is_empty() {
                    1.0
                } else {
                    hit as f64 / exp.len() as f64
                }
            };
            (total, hit, recall, outside)
        } else {
            (0, 0, 1.0, 1.0)
        };
    RunResult {
        filtering,
        rewriter_filtering,
        evaluator_filtering,
        storage,
        evaluator_storage,
        total_traffic: net.metrics().total_traffic(),
        traffic,
        notifications: net.metrics().notifications_delivered,
        streamed,
        install_traffic: Vec::new(),
        stored_rewritten,
        stored_tuples,
        faults: net.metrics().faults,
        recovery: net.metrics().recovery,
        expected_notifications,
        delivered_notifications,
        recall,
        recall_outside_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_consistent_vectors() {
        let cfg = RunConfig {
            nodes: 32,
            queries: 5,
            tuples: 40,
            ..RunConfig::new(Algorithm::Sai)
        };
        let r = run(&cfg);
        assert_eq!(r.filtering.len(), 32);
        assert_eq!(r.storage.len(), 32);
        assert!(r.total_traffic.hops > 0);
        assert!(r.hops_per_tuple() > 0.0);
        assert!(
            (r.total_filtering()
                - (r.rewriter_filtering.iter().sum::<f64>()
                    + r.evaluator_filtering.iter().sum::<f64>()))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn all_algorithms_run() {
        for alg in Algorithm::ALL {
            let cfg = RunConfig {
                nodes: 32,
                queries: 4,
                tuples: 30,
                ..RunConfig::new(alg)
            };
            let r = run(&cfg);
            assert!(r.total_traffic.messages > 0, "{alg}");
        }
    }

    #[test]
    fn t2_runs_under_dai_v() {
        let cfg = RunConfig {
            nodes: 32,
            queries: 4,
            tuples: 30,
            t2_queries: true,
            ..RunConfig::new(Algorithm::DaiV)
        };
        let r = run(&cfg);
        assert!(r.total_traffic.messages > 0);
    }

    #[test]
    fn measure_stream_only_excludes_installation() {
        let mk = |measure_stream_only| {
            let cfg = RunConfig {
                nodes: 32,
                queries: 20,
                tuples: 1,
                measure_stream_only,
                ..RunConfig::new(Algorithm::Sai)
            };
            run(&cfg).traffic_of(TrafficKind::QueryIndex).messages
        };
        assert_eq!(mk(true), 0);
        assert!(mk(false) >= 20);
    }
}
