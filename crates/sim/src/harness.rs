//! The experiment harness: builds a network + workload from a [`RunConfig`],
//! installs queries, streams tuples and collects the metric vectors the
//! figures are built from. Its loop drives every figure, and the
//! sim-vs-socket check in [`crate::cluster`] drives it on both backends.
//! One loop of its own remains, [`crate::cluster::run_throughput`], which
//! streams wide tuples over its own catalog.
//!
//! With a trace directory set ([`set_trace_dir`]), each run also streams
//! its events into one trace file through a [`FileSink`]; the file is the
//! whole record, and the run's result is the same with or without it.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cq_engine::{
    Algorithm, EngineConfig, FaultCounters, Network, Oracle, RecoveryCounters, TrafficKind,
};
use cq_overlay::TrafficStats;
use cq_relational::{Notification, Tuple};
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
        cfg.engine.algorithm.to_string().to_lowercase(),
        cfg.engine.nodes,
        cfg.engine.seed,
        format.extension()
    ))
}

/// Where a run's continuous queries come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuerySource {
    /// Generated two-way equi-joins over the focused pair (R0, R1).
    Pairs,
    /// Generated type-T2 queries (requires DAI-V).
    T2,
    /// The same SQL text for every query.
    Fixed(&'static str),
}

/// One simulation run: the engine it runs on plus the workload streamed
/// through it.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The engine the run builds, handed to [`Network::new`] unchanged.
    /// Its `seed` is the run's one seed: it also seeds the workload
    /// generator.
    pub engine: EngineConfig,
    /// Workload shape (domain, skew, bos ratio, ...). Its `seed` is not
    /// read; the generator is seeded from `engine.seed`.
    pub workload: WorkloadConfig,
    /// Number of continuous queries to install.
    pub queries: usize,
    /// What those queries are.
    pub query_source: QuerySource,
    /// Number of tuples to stream in the measured window.
    pub tuples: usize,
    /// Warm-up tuples streamed *before* queries are installed (builds the
    /// rewriters' arrival statistics for the probing strategies and fills
    /// value-level stores).
    pub warmup_tuples: usize,
    /// Reset traffic/load counters after installation, so results cover only
    /// the measured tuple window.
    pub measure_stream_only: bool,
    /// Abrupt node failures injected at evenly spaced points across the
    /// measured tuple window. With `engine.suspicion` disabled each is
    /// followed by two oracle stabilization rounds; with it enabled the
    /// harness never stabilizes, and `settle`s at the end of the stream
    /// instead.
    pub failures: usize,
}

impl RunConfig {
    /// A small, fast default over two relations: 128 nodes, 50 pair
    /// queries and 300 tuples. Notification bodies are not retained
    /// (they dominate memory at full scale), so recall is computed only
    /// when a caller turns `engine.retain_notifications` back on.
    pub fn new(algorithm: Algorithm) -> Self {
        RunConfig {
            engine: EngineConfig::new(algorithm)
                .with_nodes(128)
                .with_retained_notifications(false),
            workload: WorkloadConfig::default(),
            queries: 50,
            query_source: QuerySource::Pairs,
            tuples: 300,
            warmup_tuples: 0,
            measure_stream_only: true,
            failures: 0,
        }
    }

    /// The same run on the engine `f` makes of this one's, for example
    /// `cfg.with_engine(|e| e.with_jfrt(false))`.
    pub fn with_engine(self, f: impl FnOnce(EngineConfig) -> EngineConfig) -> Self {
        RunConfig {
            engine: f(self.engine),
            ..self
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
    let mut workload = Workload::new(WorkloadConfig {
        seed: cfg.engine.seed,
        ..cfg.workload.clone()
    });
    let mut net = Network::new(cfg.engine.clone(), workload.catalog().clone());
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
        let sql = match cfg.query_source {
            QuerySource::Pairs => workload.query_between(0, 1),
            QuerySource::T2 => workload.random_t2_query_sql(),
            QuerySource::Fixed(sql) => sql.to_string(),
        };
        net.pose_query_sql(poser, &sql)
            .expect("run queries are valid");
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
    let detect = cfg.engine.suspicion.enabled;
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

    let mut result = collect(&net, cfg.tuples, cfg.engine.retain_notifications);
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
            let delivered = net.delivered_set();
            let expected = oracle_expected(net, net.inserted_tuples());
            // Recall counts only expected deliveries, so a notification
            // the oracle never expects would leave it at 1.0: it fails the
            // run instead.
            let spurious: Vec<_> = delivered.difference(&expected).collect();
            if let Some(first) = spurious.iter().min() {
                panic!(
                    "{} delivered notifications the oracle does not expect; first: {first:?}",
                    spurious.len()
                );
            }
            let share = |hit: usize, total: usize| {
                if total == 0 {
                    1.0
                } else {
                    hit as f64 / total as f64
                }
            };
            let recall = share(delivered.len(), expected.len());
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
                let exp = oracle_expected(net, &tuples);
                share(
                    exp.iter().filter(|n| delivered.contains(*n)).count(),
                    exp.len(),
                )
            };
            (
                expected.len() as u64,
                delivered.len() as u64,
                recall,
                outside,
            )
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

/// The notifications the oracle derives from every posed query over `tuples`.
fn oracle_expected(net: &Network, tuples: &[Arc<Tuple>]) -> HashSet<Notification> {
    let mut oracle = Oracle::new();
    oracle.ingest(net.posed_queries(), tuples);
    oracle.expected().expect("oracle evaluation")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_consistent_vectors() {
        let cfg = RunConfig {
            queries: 5,
            tuples: 40,
            ..RunConfig::new(Algorithm::Sai).with_engine(|e| e.with_nodes(32))
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
                queries: 4,
                tuples: 30,
                ..RunConfig::new(alg).with_engine(|e| e.with_nodes(32))
            };
            let r = run(&cfg);
            assert!(r.total_traffic.messages > 0, "{alg}");
        }
    }

    #[test]
    fn t2_runs_under_dai_v() {
        let cfg = RunConfig {
            queries: 4,
            tuples: 30,
            query_source: QuerySource::T2,
            ..RunConfig::new(Algorithm::DaiV).with_engine(|e| e.with_nodes(32))
        };
        let r = run(&cfg);
        assert!(r.total_traffic.messages > 0);
    }

    #[test]
    fn measure_stream_only_excludes_installation() {
        let mk = |measure_stream_only| {
            let cfg = RunConfig {
                queries: 20,
                tuples: 1,
                measure_stream_only,
                ..RunConfig::new(Algorithm::Sai).with_engine(|e| e.with_nodes(32))
            };
            run(&cfg).traffic_of(TrafficKind::QueryIndex).messages
        };
        assert_eq!(mk(true), 0);
        assert!(mk(false) >= 20);
    }
}
