//! One round: build the network, replay the op list, time every op.
//!
//! The engine is synchronous and run-to-completion — `insert_tuple` returns
//! only after routing, rewriting, evaluation and delivery of every
//! notification the tuple causes — so the load model is a closed loop with
//! one client, and publish→notify latency is the wall time of one call.

use std::sync::Arc;
use std::time::Instant;

use cq_bench::alloc_count;
use cq_engine::{FaultCounters, Network, RecoveryCounters, SocketStats, TraceSink, TrafficKind};
use cq_overlay::NodeHandle;

use crate::trace::Recorder;
use crate::workloads::{Backend, Op, Spec, Stream};

/// How often a round sets up; the median is reported. A set-up takes 1-4 ms.
const SETUPS: usize = 9;

/// What one round measured. Timings are per op, in nanoseconds; counts
/// cover the stream phase only (metrics are reset after set-up).
#[derive(Clone, Debug, Default)]
pub struct RoundResult {
    /// `Network::new`, listener bind and the up-front poses: the median of
    /// [`SETUPS`] repetitions.
    pub setup_ns: u64,
    pub insert_ns: Vec<u64>,
    /// Every `pose_query_sql` call: the up-front poses, then the stream's.
    pub pose_ns: Vec<u64>,
    /// Timed `Network::settle` after the stream (0 without a detector).
    pub settle_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub msgs: u64,
    pub hops: u64,
    pub notifications: u64,
    pub allocs: u64,
    pub wire_bytes: u64,
    pub rewriter_filtering: u64,
    pub evaluator_filtering: u64,
    /// Share of all filtering load carried by the busiest tenth of the
    /// nodes (§5.1 load distribution).
    pub load_top10_share: f64,
    /// max ÷ mean of per-node filtering load.
    pub load_skew: f64,
    pub storage_entries: u64,
    /// max ÷ mean of per-node storage load.
    pub storage_skew: f64,
    /// `(messages, hops)` per `TrafficKind::ALL` entry.
    pub traffic: [(u64, u64); 5],
    pub faults: FaultCounters,
    pub recovery: RecoveryCounters,
    pub socket: Option<SocketStats>,
    pub peak_rss_kb: u64,
}

impl RoundResult {
    /// The scalars the parent process needs, in a fixed order (the float as
    /// its bit pattern). Everything else a child reports as `layer` lines.
    fn scalars(&self) -> [u64; 9] {
        [
            self.setup_ns,
            self.attempted,
            self.failed,
            self.msgs,
            self.hops,
            self.notifications,
            self.allocs,
            self.load_top10_share.to_bits(),
            self.peak_rss_kb,
        ]
    }

    fn from_scalars(v: &[u64]) -> Option<RoundResult> {
        let &[setup_ns, attempted, failed, msgs, hops, notifications, allocs, load_top10_share, peak_rss_kb] =
            v
        else {
            return None;
        };
        Some(RoundResult {
            setup_ns,
            attempted,
            failed,
            msgs,
            hops,
            notifications,
            allocs,
            load_top10_share: f64::from_bits(load_top10_share),
            peak_rss_kb,
            ..RoundResult::default()
        })
    }

    /// Three lines of space-separated integers: scalars, insert timings,
    /// pose timings. What a child round prints and the parent reads back.
    pub fn to_text(&self) -> String {
        let line = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        format!(
            "round {}\ninsert_ns {}\npose_ns {}\n",
            line(&self.scalars()),
            line(&self.insert_ns),
            line(&self.pose_ns)
        )
    }

    /// Inverse of [`RoundResult::to_text`]; lines with other prefixes are
    /// ignored (a traced child adds its own).
    pub fn from_text(text: &str) -> Result<RoundResult, String> {
        let numbers = |prefix: &str| -> Result<Vec<u64>, String> {
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix(prefix))
                .ok_or_else(|| format!("child output has no '{}' line", prefix.trim()))?;
            line.split_whitespace()
                .map(|t| {
                    t.parse()
                        .map_err(|_| format!("bad number '{t}' in child output"))
                })
                .collect()
        };
        let mut out = RoundResult::from_scalars(&numbers("round ")?)
            .ok_or("child output has a malformed 'round' line")?;
        out.insert_ns = numbers("insert_ns")?;
        out.pose_ns = numbers("pose_ns")?;
        Ok(out)
    }
}

/// max ÷ mean of a load vector (1.0 for an all-zero vector: no imbalance).
pub fn skew(loads: impl Iterator<Item = u64> + Clone) -> f64 {
    let n = loads.clone().count();
    let total: u64 = loads.clone().sum();
    if n == 0 || total == 0 {
        return 1.0;
    }
    let max = loads.max().unwrap_or(0);
    max as f64 * n as f64 / total as f64
}

/// Share of the total carried by the largest tenth (rounded up) of a load
/// vector; 0.0 for an all-zero vector.
pub fn top_tenth_share(loads: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = loads.collect();
    let total: u64 = v.iter().sum();
    if total == 0 {
        return 0.0;
    }
    v.sort_unstable_by(|a, b| b.cmp(a));
    let top: u64 = v.iter().take(v.len().div_ceil(10)).sum();
    top as f64 / total as f64
}

/// The process's peak resident set (`VmHWM`) in KiB; 0 when unreadable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One set-up: the network, its listeners on TCP, and the up-front poses.
/// Returns the network, each pose's latency and how many poses failed.
fn set_up(spec: &Spec, stream: &Stream, retain: bool) -> Result<(Network, Vec<u64>, u64), String> {
    let mut net = Network::new(spec.engine_config(retain), stream.catalog.clone());
    if spec.backend == Backend::Tcp {
        net.enable_tcp_transport()
            .map_err(|e| format!("enable TCP transport: {e}"))?;
    }
    let alive: Vec<NodeHandle> = net.ring().alive_nodes().collect();
    let mut pose_ns = Vec::with_capacity(stream.upfront.len());
    let mut failed = 0;
    for op in &stream.upfront {
        let Op::Pose { node, sql } = op else {
            unreachable!("set-up consists of poses only");
        };
        let t0 = Instant::now();
        let r = net.pose_query_sql(alive[node % alive.len()], sql);
        pose_ns.push(t0.elapsed().as_nanos() as u64);
        failed += r.is_err() as u64;
    }
    Ok((net, pose_ns, failed))
}

/// Replays `stream` on a fresh network and returns the measurements with
/// the final network (verification reads its delivered set).
///
/// `max_inserts` stops the stream early (verification prefixes); `retain`
/// keeps notification bodies; `tracer` installs the benchmark's sink.
pub fn run_round(
    spec: &Spec,
    stream: Stream,
    retain: bool,
    tracer: Option<Arc<Recorder>>,
    max_inserts: usize,
) -> Result<(RoundResult, Network), String> {
    let mut out = RoundResult {
        insert_ns: Vec::with_capacity(spec.inserts),
        pose_ns: Vec::with_capacity(
            stream.upfront.len() + stream.ops.len() - spec.inserts.min(stream.ops.len()),
        ),
        ..RoundResult::default()
    };
    // Set up several times and keep the last network: a fresh process runs
    // its first set-up cold (page faults, unmapped code), which says more
    // about the host than about the program.
    let mut setups = Vec::with_capacity(SETUPS);
    let (mut net, pose_ns, failed) = loop {
        let t0 = Instant::now();
        let built = set_up(spec, &stream, retain)?;
        setups.push(t0.elapsed().as_nanos() as u64);
        if setups.len() == SETUPS {
            break built;
        }
    };
    setups.sort_unstable();
    out.setup_ns = setups[SETUPS / 2];
    out.pose_ns.extend(pose_ns);
    out.attempted += stream.upfront.len() as u64;
    out.failed += failed;
    let mut alive: Vec<NodeHandle> = net.ring().alive_nodes().collect();

    net.reset_metrics();
    net.take_socket_stats();
    if let Some(t) = &tracer {
        net.set_tracer(Arc::clone(t) as Arc<dyn TraceSink>);
    }
    let allocs_before = alloc_count::allocations();
    let mut inserts = 0;
    for (i, op) in stream.ops.into_iter().enumerate() {
        out.attempted += 1;
        match op {
            Op::Insert {
                node,
                relation,
                values,
            } => {
                if inserts == max_inserts {
                    out.attempted -= 1;
                    break;
                }
                inserts += 1;
                let from = alive[node % alive.len()];
                if let Some(t) = &tracer {
                    t.op_start(i, true);
                }
                let t0 = Instant::now();
                let r = net.insert_tuple(from, relation, values);
                out.insert_ns.push(t0.elapsed().as_nanos() as u64);
                if let Some(t) = &tracer {
                    t.op_end();
                }
                out.failed += r.is_err() as u64;
            }
            Op::Pose { node, sql } => {
                let from = alive[node % alive.len()];
                if let Some(t) = &tracer {
                    t.op_start(i, false);
                }
                let t0 = Instant::now();
                let r = net.pose_query_sql(from, &sql);
                out.pose_ns.push(t0.elapsed().as_nanos() as u64);
                if let Some(t) = &tracer {
                    t.op_end();
                }
                out.failed += r.is_err() as u64;
            }
            Op::Fail { node } => {
                let victim = alive[node % alive.len()];
                out.failed += net.node_fail(victim).is_err() as u64;
                alive = net.ring().alive_nodes().collect();
            }
        }
    }
    out.allocs = alloc_count::allocations() - allocs_before;
    if spec.backend == Backend::SimFaults {
        let t0 = Instant::now();
        out.attempted += 1;
        out.failed += net.settle().is_err() as u64;
        out.settle_ns = t0.elapsed().as_nanos() as u64;
    }
    net.clear_tracer();

    let m = net.metrics();
    let total = m.total_traffic();
    out.msgs = total.messages;
    out.hops = total.hops;
    out.notifications = m.notifications_delivered;
    out.wire_bytes = m.faults.total_bytes_sent();
    out.rewriter_filtering = m.loads().iter().map(|l| l.rewriter_filtering).sum();
    out.evaluator_filtering = m.loads().iter().map(|l| l.evaluator_filtering).sum();
    out.load_skew = skew(m.loads().iter().map(|l| l.filtering()));
    out.load_top10_share = top_tenth_share(m.loads().iter().map(|l| l.filtering()));
    for (slot, kind) in TrafficKind::ALL.iter().enumerate() {
        let t = m.traffic(*kind);
        out.traffic[slot] = (t.messages, t.hops);
    }
    out.faults = m.faults;
    out.recovery = m.recovery;
    let storage = net.storage_loads();
    out.storage_entries = storage.iter().map(|&s| s as u64).sum();
    out.storage_skew = skew(storage.iter().map(|&s| s as u64));
    out.socket = net.take_socket_stats();
    out.peak_rss_kb = peak_rss_kb();
    Ok((out, net))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_form_round_trips() {
        let r = RoundResult {
            setup_ns: 12,
            insert_ns: vec![5, 6, 7],
            load_top10_share: 0.625,
            peak_rss_kb: 99,
            failed: 1,
            ..RoundResult::default()
        };
        let back = RoundResult::from_text(&format!("layer x 1\n{}", r.to_text())).unwrap();
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
        assert!(RoundResult::from_text("round 1 2 3\ninsert_ns\npose_ns\n").is_err());
        assert!(RoundResult::from_text("insert_ns 1\n").is_err());
    }

    #[test]
    fn top_tenth_share_takes_the_busiest_nodes() {
        // 20 nodes: the top 2 carry 30 + 20 of 100
        let loads = [30u64, 20].into_iter().chain([50u64 / 18; 18]);
        let total = 50 + (50 / 18) * 18;
        assert_eq!(top_tenth_share(loads), 50.0 / total as f64);
        // 5 nodes round up to one node
        assert_eq!(top_tenth_share([6u64, 1, 1, 1, 1].into_iter()), 0.6);
        assert_eq!(top_tenth_share([0u64, 0].into_iter()), 0.0);
    }

    #[test]
    fn skew_is_max_over_mean() {
        assert_eq!(skew([1u64, 1, 1, 1].into_iter()), 1.0);
        assert_eq!(skew([4u64, 0, 0, 0].into_iter()), 4.0);
        assert_eq!(skew([0u64, 0].into_iter()), 1.0);
        assert_eq!(skew(std::iter::empty()), 1.0);
    }
}
