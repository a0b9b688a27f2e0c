//! The six workload definitions and the seeded op-list generator.
//!
//! A workload is a fixed list of operations against `cq_engine::Network`
//! (pose a query, insert a tuple, fail a node). The list is a pure function
//! of `(spec, seed)`: every round of a run replays the identical list, which
//! is what licenses taking the per-op minimum across rounds.
//!
//! A workload is a fixed *deployment* plus a seeded *stream*. The deployment
//! — ring size, the up-front query population, which nodes fail and when,
//! the engine's and the fault layer's own RNG — is part of the definition,
//! like the sizes, and comes from [`DEPLOYMENT_SEED`], and so are the queries
//! `pose_mix_daiv` poses beside its tuples. `--seed` draws the stream: tuple
//! values, relations and inserting nodes. With ten queries or four failures a workload is too small
//! for those draws to average out, and metrics then differ more from seed
//! to seed (15 % on `churn_dait` throughput) than any bound could allow.

use std::time::Instant;

use cq_engine::{Algorithm, EngineConfig, FaultConfig, SuspicionConfig};
use cq_relational::{Catalog, Value};
use cq_workload::{Workload, WorkloadConfig};

/// Which transport and fault profile a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// In-memory FIFO transport, perfect delivery.
    Sim,
    /// Framed TCP over `127.0.0.1`, perfect delivery.
    Tcp,
    /// In-memory transport behind the fault pump: 5 % loss, k = 2 successor
    /// replication, heartbeat detector, scripted node failures.
    SimFaults,
}

/// One workload's shape. Sizes are part of the benchmark's definition.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub algorithm: Algorithm,
    pub backend: Backend,
    pub nodes: usize,
    /// Queries posed before the stream (part of set-up).
    pub upfront_queries: usize,
    pub inserts: usize,
    pub domain: i64,
    pub zipf_theta: f64,
    /// Pose one more query before every `pose_every`-th insert (0 = never).
    pub pose_every: usize,
    /// `node_fail` calls spread evenly across the stream.
    pub node_fails: usize,
    /// Inserts replayed by the verification round.
    pub verify_prefix: usize,
    /// Measured rounds of a [`crate::RUN_SECONDS`]-second run. Fixed here,
    /// not fitted to the clock at run time, so that two commits of different
    /// speed get the same per-op-minimum reduction; sized so that
    /// verification and the rounds end inside the run length on a quiet
    /// 2-vCPU host.
    pub rounds: usize,
}

/// The workloads, in report order.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "match_sai",
        why: "Match-heavy SAI: evaluator VLQT and VLTT store-and-scan plus notification creation dominate; routing is a small share",
        algorithm: Algorithm::Sai,
        backend: Backend::Sim,
        nodes: 256,
        upfront_queries: 200,
        inserts: 4000,
        domain: 1000,
        zipf_theta: 0.9,
        pose_every: 0,
        node_fails: 0,
        verify_prefix: 500,
        rounds: 10,
    },
    Spec {
        name: "match_daiq",
        why: "Same input as match_sai under DAI-Q: tuples stored in VLTT and scanned by arriving rewritten queries; VLQT is never touched",
        algorithm: Algorithm::DaiQ,
        backend: Backend::Sim,
        nodes: 256,
        upfront_queries: 200,
        inserts: 4000,
        domain: 1000,
        zipf_theta: 0.9,
        pose_every: 0,
        node_fails: 0,
        verify_prefix: 500,
        rounds: 12,
    },
    Spec {
        name: "route_dait",
        why: "Almost match-free DAI-T on 1024 nodes: overlay routing, multisend, rewrite and the transport queue do nearly all the work; table buckets are near-empty",
        algorithm: Algorithm::DaiT,
        backend: Backend::Sim,
        nodes: 1024,
        upfront_queries: 50,
        inserts: 8000,
        domain: 100_000,
        zipf_theta: 0.0,
        pose_every: 0,
        node_fails: 0,
        verify_prefix: 1000,
        rounds: 10,
    },
    Spec {
        name: "tcp_dait",
        why: "route_dait's message mix over loopback TCP: every message is wire-encoded, flushed, read and decoded, so wire, frames, transport_tcp and cq-poll dominate",
        algorithm: Algorithm::DaiT,
        backend: Backend::Tcp,
        nodes: 32,
        upfront_queries: 50,
        inserts: 1000,
        domain: 100_000,
        zipf_theta: 0.0,
        pose_every: 0,
        node_fails: 0,
        verify_prefix: 1000,
        rounds: 19,
    },
    Spec {
        name: "churn_dait",
        why: "DAI-T under 5% loss, k=2 replication, heartbeat detector and 4 node failures: fault pump, retransmits, anti-entropy digests and mirroring dominate",
        algorithm: Algorithm::DaiT,
        backend: Backend::SimFaults,
        nodes: 32,
        upfront_queries: 10,
        inserts: 500,
        domain: 1000,
        zipf_theta: 0.9,
        pose_every: 0,
        node_fails: 4,
        verify_prefix: 500,
        rounds: 10,
    },
    Spec {
        name: "pose_mix_daiv",
        why: "DAI-V with a query posed before every 2nd insert: parser, pose path, ALQT inserts and the value store work beside the tuple stream",
        algorithm: Algorithm::DaiV,
        backend: Backend::Sim,
        nodes: 256,
        upfront_queries: 50,
        inserts: 2400,
        domain: 1000,
        zipf_theta: 0.9,
        pose_every: 2,
        node_fails: 0,
        verify_prefix: 500,
        rounds: 10,
    },
];

/// Seeds everything that defines a deployment (see the module docs).
pub const DEPLOYMENT_SEED: u64 = 0x00C0_FFEE_5EED;

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The spec shrunk by `divisor` (the `--check` smoke mode); node counts
    /// and distributions stay, stream lengths shrink.
    pub fn scaled_down(mut self, divisor: usize) -> Spec {
        self.upfront_queries = (self.upfront_queries / divisor).max(2);
        self.inserts = (self.inserts / divisor).max(20);
        self.verify_prefix = self.verify_prefix.min(self.inserts);
        self
    }

    /// Engine configuration for one round. `retain` keeps notification
    /// bodies (verification rounds only).
    pub fn engine_config(&self, retain: bool) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.algorithm)
            .with_nodes(self.nodes)
            .with_seed(DEPLOYMENT_SEED)
            .with_retained_notifications(retain);
        if self.backend == Backend::SimFaults {
            let mut fault = FaultConfig::lossy(0.05, DEPLOYMENT_SEED);
            fault.replication = 2;
            cfg = cfg.with_fault(fault).with_suspicion(
                SuspicionConfig::active()
                    .with_suspect_after(4)
                    .with_confirm_after(4),
            );
        }
        cfg
    }

    /// The workload on the plain simulator: perfect delivery, no detector.
    /// With [`Stream::without_fails`] it is the reference side of
    /// `recovery.fault_tax` and `socket.wire_share`.
    pub fn on_plain_sim(mut self) -> Spec {
        self.backend = Backend::Sim;
        self
    }
}

/// One replayed operation. `node` is an index into the *alive* nodes at the
/// time the op runs (taken modulo the alive count).
#[derive(Clone, Debug)]
pub enum Op {
    Pose {
        node: usize,
        sql: String,
    },
    Insert {
        node: usize,
        relation: &'static str,
        values: Vec<Value>,
    },
    Fail {
        node: usize,
    },
}

/// A generated workload: set-up poses, then the measured stream.
pub struct Stream {
    pub catalog: Catalog,
    pub upfront: Vec<Op>,
    pub ops: Vec<Op>,
    /// Generator wall time per generated op (`workload.gen_ns_per_op`).
    pub gen_ns_per_op: f64,
}

impl Stream {
    /// Drops the scripted node failures; every pose and insert stays, so
    /// ops line up one to one with the original stream.
    pub fn without_fails(mut self) -> Stream {
        self.ops.retain(|op| !matches!(op, Op::Fail { .. }));
        self
    }
}

/// splitmix64: node choices come from here, tuple and query content from
/// `cq_workload::Workload`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Generates the op list of `spec` for `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Stream {
    let t0 = Instant::now();
    let content = |seed| {
        Workload::new(WorkloadConfig {
            relations: 2,
            attrs_per_relation: 4,
            domain: spec.domain,
            zipf_theta: spec.zipf_theta,
            filter_probability: 0.0,
            bos_ratio: 0.5,
            seed,
        })
    };
    let pose = |w: &mut Workload, rng: &mut SplitMix| Op::Pose {
        node: rng.below(spec.nodes),
        sql: w.query_between(0, 1),
    };
    // the deployment: who asks what before the stream, and who fails
    let mut deployed = content(DEPLOYMENT_SEED);
    let mut placement = SplitMix(DEPLOYMENT_SEED);
    let upfront: Vec<Op> = (0..spec.upfront_queries)
        .map(|_| pose(&mut deployed, &mut placement))
        .collect();
    // the stream
    let mut w = content(seed);
    let mut rng = SplitMix(seed);
    let mut ops = Vec::with_capacity(spec.inserts * 2);
    let mut failed = 0;
    for i in 0..spec.inserts {
        // failures split the stream into `node_fails + 1` equal stretches
        while failed < spec.node_fails && i * (spec.node_fails + 1) >= (failed + 1) * spec.inserts {
            ops.push(Op::Fail {
                node: placement.below(spec.nodes),
            });
            failed += 1;
        }
        if spec.pose_every > 0 && i % spec.pose_every == 0 {
            // queries arriving beside the tuples belong to the deployment
            // too: drawn from the seed they moved `pose_mix_daiv` by 6-8 %
            // from seed to seed, twice as much as any other workload
            ops.push(pose(&mut deployed, &mut placement));
        }
        let relation = if w.next_stream_relation() == "R0" {
            "R0"
        } else {
            "R1"
        };
        ops.push(Op::Insert {
            node: rng.below(spec.nodes),
            relation,
            values: w.random_tuple_values(),
        });
    }
    let generated = (upfront.len() + ops.len()).max(1);
    Stream {
        catalog: w.catalog().clone(),
        upfront,
        ops,
        gen_ns_per_op: t0.elapsed().as_nanos() as f64 / generated as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let spec = find("pose_mix_daiv").unwrap().scaled_down(20);
        let a = generate(&spec, 7);
        let b = generate(&spec, 7);
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        let c = generate(&spec, 8);
        assert_ne!(format!("{:?}", a.ops), format!("{:?}", c.ops));
        // the deployment does not move with the seed: not the up-front
        // queries, and not the ones posed beside the tuples
        assert_eq!(format!("{:?}", a.upfront), format!("{:?}", c.upfront));
        let poses = |s: &Stream| {
            let p: Vec<_> = s
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Pose { .. }))
                .collect();
            format!("{p:?}")
        };
        assert_eq!(poses(&a), poses(&c));
    }

    #[test]
    fn stream_has_the_declared_shape() {
        let spec = find("churn_dait").unwrap();
        let s = generate(&spec, 1);
        let fails = s
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Fail { .. }))
            .count();
        let inserts = s
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Insert { .. }))
            .count();
        assert_eq!((fails, inserts), (4, 500));
        assert_eq!(s.upfront.len(), 10);
        let spec = find("pose_mix_daiv").unwrap();
        let s = generate(&spec, 1);
        let poses = s
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Pose { .. }))
            .count();
        assert_eq!(poses, 1200);
    }

    #[test]
    fn every_workload_has_enough_inserts_for_its_bounded_tail() {
        for s in WORKLOADS {
            // insert_p95_us needs ten samples beyond it
            assert!(
                crate::stats::samples_beyond(s.inserts, 950) >= 10,
                "{}",
                s.name
            );
            assert!(s.verify_prefix <= s.inserts, "{}", s.name);
        }
    }
}
