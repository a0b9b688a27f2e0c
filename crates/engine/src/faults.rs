//! Fault injection and reliable delivery (the robustness layer).
//!
//! The paper leaves "all the handling of failures … to the underlying DHT"
//! (Section 3.2); this module is the engine's answer for growing beyond that
//! assumption. A seeded [`FaultConfig`] injects message loss, duplication
//! and delay (reordering) into the protocol-message pump, plus abrupt node
//! failures per simulated tick. A reliable-delivery layer keeps the engine
//! correct under those faults:
//!
//! * every transmitted protocol message carries a `(sender, seq)` identifier;
//! * senders keep an outstanding-ack window and retransmit on timeout with
//!   exponential backoff (all in simulated ticks);
//! * receivers keep a per-sender dedup window so duplicates and
//!   retransmissions never double-index a tuple or query and never
//!   double-deliver a notification.
//!
//! With [`FaultConfig::default`] the layer is completely inert: messages take
//! the original perfect-FIFO path and every run is byte-identical to a build
//! without this module.
//!
//! The pump is not part of any transport: `FaultPipe` is state the network
//! owns, it decides *what* is transmitted and *when*, and every copy that
//! survives its draws is carried by whichever backend is installed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cq_fasthash::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cq_overlay::{Id, NodeHandle};

use crate::messages::Message;
use crate::transport::Envelope;

/// Fault-injection knobs. All rates are probabilities in `[0, 1]`; all
/// durations are simulated ticks (one tick ≈ one message-delivery round).
///
/// The default configuration disables everything: no faults, no replication,
/// no retries — the engine behaves exactly as before this layer existed.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that one transmission copy of a message is dropped.
    pub loss_rate: f64,
    /// Probability that a transmission is duplicated (two copies sent).
    pub duplicate_rate: f64,
    /// Probability that a transmission is delayed by extra ticks, causing
    /// reordering relative to later messages.
    pub delay_rate: f64,
    /// Maximum extra delay in ticks for a delayed transmission (the actual
    /// delay is drawn uniformly from `1..=max_delay`).
    pub max_delay: u64,
    /// Per-tick probability of one abrupt node failure while the message
    /// pump runs.
    pub failure_rate: f64,
    /// Upper bound on rate-driven abrupt failures per run.
    pub max_failures: usize,
    /// Explicit failure schedule: at each listed pump tick one pseudo-random
    /// alive node fails abruptly. Must be sorted ascending.
    pub scheduled_failures: Vec<u64>,
    /// Replication factor `k`: every index-table entry and offline-store
    /// notification is mirrored on the node's `k` first alive successors and
    /// promoted by the successor when the primary fails (`0` disables).
    pub replication: usize,
    /// Ticks before the first retransmission of an unacknowledged message;
    /// `0` disables acks and retransmissions (fire-and-forget).
    pub ack_timeout: u64,
    /// Maximum retransmission attempts per message (exponential backoff:
    /// the n-th retry waits `ack_timeout << n` ticks, capped).
    pub max_retries: u32,
    /// Route every message through the tick-based reliable pump even when
    /// all fault rates are zero (used by tests to pin the layer's
    /// transparency).
    pub reliable: bool,
    /// How abrupt failures arrive over time: the classic rate/schedule
    /// knobs above, or an empirical session-length distribution.
    pub churn: ChurnModel,
    /// RNG seed for all fault draws (independent of the engine seed, so
    /// injecting faults never perturbs protocol-level random choices).
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 0,
            failure_rate: 0.0,
            max_failures: 0,
            scheduled_failures: Vec::new(),
            replication: 0,
            ack_timeout: 0,
            max_retries: 0,
            reliable: false,
            churn: ChurnModel::Rate,
            seed: 0,
        }
    }
}

/// How abrupt node failures are generated while the pump runs.
///
/// [`ChurnModel::Rate`] is the PR 2 behavior: `failure_rate` per tick plus
/// the explicit `scheduled_failures` list. [`ChurnModel::Empirical`] samples
/// one session length per node slot from a fitted distribution at pipe
/// construction — the trace-driven shape measurement studies report for
/// peer-to-peer populations — and fails each node when its session expires.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnModel {
    /// Rate-driven and scheduled failures (`failure_rate`,
    /// `scheduled_failures`, `max_failures`).
    Rate,
    /// Session-length churn: every node draws one session length (in pump
    /// ticks) from `session` when the pipe is built and fails abruptly when
    /// it expires, up to `max_events` failures per run.
    Empirical {
        /// The fitted session-length distribution.
        session: SessionDist,
        /// Upper bound on session-expiry failures per run.
        max_events: usize,
    },
}

impl ChurnModel {
    /// Whether this model generates failures on its own (and therefore
    /// needs the tick pump).
    pub fn is_active(&self) -> bool {
        matches!(self, ChurnModel::Empirical { max_events, .. } if *max_events > 0)
    }
}

/// Session-length distributions with published fits for peer uptime traces.
/// Sampled with hand-rolled inverse-transform / Box–Muller draws so the
/// vendored minimal `rand` suffices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SessionDist {
    /// Log-normal: `exp(mu + sigma * Z)` with `Z ~ N(0, 1)`.
    LogNormal {
        /// Mean of the underlying normal (log-ticks).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Weibull with the usual shape/scale parameterization; shape < 1 gives
    /// the heavy-tailed sessions measurement studies observe.
    Weibull {
        /// Shape parameter `k`.
        shape: f64,
        /// Scale parameter `lambda` (ticks).
        scale: f64,
    },
}

impl SessionDist {
    /// Draws one session length in ticks (always >= 1).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let len = match *self {
            SessionDist::LogNormal { mu, sigma } => {
                // Box–Muller: two uniforms -> one standard normal.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp()
            }
            SessionDist::Weibull { shape, scale } => {
                // Inverse transform: scale * (-ln(1 - U))^(1/shape).
                let u: f64 = rng.gen::<f64>().min(1.0 - f64::EPSILON);
                scale * (-(1.0 - u).ln()).powf(1.0 / shape)
            }
        };
        len.round().max(1.0).min(u64::MAX as f64) as u64
    }
}

impl FaultConfig {
    /// A lossy-but-recoverable profile: the given loss rate plus mild
    /// duplication and delay, with acks and retransmissions enabled.
    pub fn lossy(loss_rate: f64, seed: u64) -> Self {
        FaultConfig {
            loss_rate,
            duplicate_rate: 0.05,
            delay_rate: 0.2,
            max_delay: 3,
            ack_timeout: 2,
            max_retries: 16,
            seed,
            ..FaultConfig::default()
        }
    }

    /// Whether message delivery must go through the tick-based reliable
    /// pump (any delivery perturbation, in-pump failures, or the explicit
    /// `reliable` pin).
    pub fn perturbs_delivery(&self) -> bool {
        self.reliable
            || self.loss_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.delay_rate > 0.0
            || self.failure_rate > 0.0
            || !self.scheduled_failures.is_empty()
            || self.churn.is_active()
    }

    /// Whether any part of the robustness layer is active (fault pump or
    /// replication).
    pub fn is_active(&self) -> bool {
        self.perturbs_delivery() || self.replication > 0
    }

    /// Whether acks + retransmissions are enabled.
    pub fn retries_enabled(&self) -> bool {
        self.ack_timeout > 0
    }
}

/// A message identifier: `(sender slot, per-sender sequence number)`.
pub type MsgId = (u32, u64);

/// Per-sender receive-side dedup window: a low-water mark plus the set of
/// out-of-order sequence numbers seen above it. Memory stays proportional to
/// the reordering window, not to the total message count.
#[derive(Clone, Debug, Default)]
pub struct DedupWindow {
    /// Every sequence number `< floor` has been seen.
    floor: u64,
    /// Seen sequence numbers `>= floor` (sparse, above the water mark).
    above: BTreeSet<u64>,
}

impl DedupWindow {
    /// Records `seq`; returns `true` if it was seen before (a duplicate).
    pub fn check_and_record(&mut self, seq: u64) -> bool {
        if seq < self.floor || self.above.contains(&seq) {
            return true;
        }
        self.above.insert(seq);
        while self.above.remove(&self.floor) {
            self.floor += 1;
        }
        false
    }

    /// Number of out-of-order entries currently buffered above the mark.
    pub fn pending(&self) -> usize {
        self.above.len()
    }
}

/// A message a sender still awaits an ack for.
#[derive(Clone, Debug)]
pub(crate) struct Outstanding {
    /// The sending node (retransmissions originate here).
    pub from: NodeHandle,
    /// The identifier the message targets; retransmissions of routed
    /// messages re-resolve the owner so they survive ownership changes.
    pub target: Id,
    /// Whether retransmission re-routes by `target` (`true`) or re-sends to
    /// the original receiver only (`false`, for node-addressed messages such
    /// as replicas and direct notifications).
    pub reroute: bool,
    /// The last receiver the message was sent to.
    pub to: NodeHandle,
    /// The payload, kept for retransmission.
    pub msg: Message,
    /// Retransmission attempts so far.
    pub attempt: u32,
}

/// One scheduled arrival at a node.
#[derive(Clone, Debug)]
pub(crate) enum Delivery {
    /// A data message copy, as the envelope that will ride the transport
    /// (its `id` is always set: the reliable-delivery identifier).
    Data(Envelope),
    /// An acknowledgement for `id`, returning to the sender.
    Ack {
        /// The acknowledged message.
        id: MsgId,
        /// The original sender (receiver of this ack).
        to: NodeHandle,
    },
}

impl Delivery {
    /// Whether this copy carries a heartbeat probe (ping or pong). Probes
    /// are fire-and-forget and excluded from [`FaultPipe::busy`].
    pub fn is_probe(&self) -> bool {
        matches!(
            self,
            Delivery::Data(Envelope {
                msg: Message::Ping { .. } | Message::Pong { .. },
                ..
            })
        )
    }
}

/// The runtime state of the fault-injection + reliable-delivery layer.
/// Owned by the network (`Network::pump`) when
/// [`FaultConfig::perturbs_delivery`] is true or the detector is enabled.
#[derive(Debug)]
pub(crate) struct FaultPipe {
    /// The configuration (rates, timeouts, schedule).
    pub cfg: FaultConfig,
    /// Dedicated RNG for fault draws.
    pub rng: StdRng,
    /// Current simulated tick (monotonic across pumps).
    pub tick: u64,
    /// Per-sender-slot next sequence number.
    pub next_seq: Vec<u64>,
    /// Deliveries scheduled per tick, in deterministic insertion order.
    pub in_flight: BTreeMap<u64, Vec<Delivery>>,
    /// What is left of the current tick's deliveries, in schedule order
    /// (the pump hands data copies to the transport run by run).
    pub arriving: VecDeque<Delivery>,
    /// Retransmission checks scheduled per tick.
    pub retry_at: BTreeMap<u64, Vec<MsgId>>,
    /// Unacknowledged messages by identifier.
    pub outstanding: FxHashMap<MsgId, Outstanding>,
    /// Per-receiver-slot, per-sender-slot dedup windows.
    pub dedup: Vec<FxHashMap<u32, DedupWindow>>,
    /// Index into `cfg.scheduled_failures` already consumed.
    pub sched_idx: usize,
    /// Rate-driven failures injected so far.
    pub failures_injected: usize,
    /// Empirical-churn session expiries: pump tick -> node slots whose
    /// sessions end there (sampled once at construction).
    pub session_ends: BTreeMap<u64, Vec<u32>>,
    /// Session-expiry failures injected so far.
    pub churn_events: usize,
    /// Scheduled deliveries that are *not* heartbeat probes. [`busy`]
    /// counts only these, so in-flight pings and pongs never keep the
    /// pump spinning on their own — probe traffic progresses passively
    /// on ticks real protocol work (or `Network::settle`) forces.
    ///
    /// [`busy`]: FaultPipe::busy
    pub nonprobe_in_flight: usize,
}

impl FaultPipe {
    /// A fresh pipe for `slots` node slots. Under [`ChurnModel::Empirical`]
    /// every slot draws its session length here, before any fault draw, so
    /// the schedule is a pure function of the seed and the slot count.
    pub fn new(cfg: FaultConfig, slots: usize) -> Self {
        let seed = cfg.seed;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut session_ends: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        if let ChurnModel::Empirical {
            session,
            max_events,
        } = &cfg.churn
        {
            if *max_events > 0 {
                for slot in 0..slots {
                    let end = 1 + session.sample(&mut rng);
                    session_ends.entry(end).or_default().push(slot as u32);
                }
            }
        }
        FaultPipe {
            cfg,
            rng,
            tick: 0,
            next_seq: vec![0; slots],
            in_flight: BTreeMap::new(),
            arriving: VecDeque::new(),
            retry_at: BTreeMap::new(),
            outstanding: FxHashMap::default(),
            dedup: (0..slots).map(|_| FxHashMap::default()).collect(),
            sched_idx: 0,
            failures_injected: 0,
            session_ends,
            churn_events: 0,
            nonprobe_in_flight: 0,
        }
    }

    /// Allocates the next sequence number for a sender.
    pub fn alloc_seq(&mut self, sender: NodeHandle) -> MsgId {
        let slot = sender.index();
        if slot >= self.next_seq.len() {
            self.next_seq.resize(slot + 1, 0);
        }
        let seq = self.next_seq[slot];
        self.next_seq[slot] += 1;
        (slot as u32, seq)
    }

    /// Records a data arrival `(sender, seq)` at receiver `to`; returns
    /// `true` when it is a duplicate that must be suppressed.
    pub fn record_arrival(&mut self, id: MsgId, to: NodeHandle) -> bool {
        let slot = to.index();
        if slot >= self.dedup.len() {
            self.dedup.resize_with(slot + 1, FxHashMap::default);
        }
        self.dedup[slot]
            .entry(id.0)
            .or_default()
            .check_and_record(id.1)
    }

    /// Opens an ack window for a fresh send: the message is retransmitted
    /// until acknowledged or the retry budget runs out.
    pub fn open_window(
        &mut self,
        id: MsgId,
        from: &NodeHandle,
        target: Id,
        reroute: bool,
        to: &NodeHandle,
        msg: &Message,
    ) {
        self.outstanding.insert(
            id,
            Outstanding {
                from: *from,
                target,
                reroute,
                to: *to,
                msg: msg.clone(),
                attempt: 0,
            },
        );
    }

    /// Removes and returns the outstanding entry for `id`, if any.
    pub fn take_outstanding(&mut self, id: MsgId) -> Option<Outstanding> {
        self.outstanding.remove(&id)
    }

    /// Puts an outstanding entry back (the retry check keeps the window
    /// open until an ack arrives).
    pub fn reopen_window(&mut self, id: MsgId, o: Outstanding) {
        self.outstanding.insert(id, o);
    }

    /// Schedules a delivery at an absolute tick.
    pub fn schedule(&mut self, at: u64, delivery: Delivery) {
        if !delivery.is_probe() {
            self.nonprobe_in_flight += 1;
        }
        self.in_flight.entry(at).or_default().push(delivery);
    }

    /// Accounts for deliveries just removed from `in_flight` (the pump
    /// calls this with each tick's batch before handing copies out).
    pub fn note_removed(&mut self, deliveries: &[Delivery]) {
        let nonprobe = deliveries.iter().filter(|d| !d.is_probe()).count();
        self.nonprobe_in_flight -= nonprobe;
    }

    /// Schedules a retransmission check for `id` at an absolute tick.
    pub fn schedule_retry(&mut self, at: u64, id: MsgId) {
        self.retry_at.entry(at).or_default().push(id);
    }

    /// Whether any non-probe deliveries or retransmission checks remain.
    /// In-flight heartbeat probes deliberately do not count: a probe reply
    /// schedules the next probe, so counting them would keep the pump
    /// spinning forever once detection is enabled.
    pub fn busy(&self) -> bool {
        self.nonprobe_in_flight > 0 || !self.retry_at.is_empty()
    }

    /// The backoff delay before the n-th retransmission:
    /// `ack_timeout << attempt`, with the shift capped so ticks stay sane.
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.cfg.ack_timeout << attempt.min(6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(!cfg.perturbs_delivery());
        assert!(!cfg.is_active());
        assert!(!cfg.retries_enabled());
    }

    #[test]
    fn lossy_profile_enables_retries() {
        let cfg = FaultConfig::lossy(0.2, 7);
        assert!(cfg.perturbs_delivery());
        assert!(cfg.retries_enabled());
        assert_eq!(cfg.loss_rate, 0.2);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn replication_alone_activates_without_perturbing() {
        let cfg = FaultConfig {
            replication: 2,
            ..FaultConfig::default()
        };
        assert!(!cfg.perturbs_delivery());
        assert!(cfg.is_active());
    }

    #[test]
    fn dedup_window_detects_duplicates_and_advances_floor() {
        let mut w = DedupWindow::default();
        assert!(!w.check_and_record(0));
        assert!(!w.check_and_record(1));
        assert!(w.check_and_record(0), "retransmission of 0 is a duplicate");
        // out of order: 3 before 2
        assert!(!w.check_and_record(3));
        assert_eq!(w.pending(), 1, "3 buffered above the water mark");
        assert!(!w.check_and_record(2));
        assert_eq!(w.pending(), 0, "floor advanced past 3");
        assert!(w.check_and_record(2));
        assert!(w.check_and_record(3));
    }

    #[test]
    fn seq_allocation_is_per_sender() {
        let mut pipe = FaultPipe::new(FaultConfig::default(), 2);
        let a = NodeHandle::from_index(0);
        let b = NodeHandle::from_index(1);
        assert_eq!(pipe.alloc_seq(a), (0, 0));
        assert_eq!(pipe.alloc_seq(a), (0, 1));
        assert_eq!(pipe.alloc_seq(b), (1, 0));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let pipe = FaultPipe::new(
            FaultConfig {
                ack_timeout: 2,
                ..FaultConfig::default()
            },
            1,
        );
        assert_eq!(pipe.backoff(0), 2);
        assert_eq!(pipe.backoff(1), 4);
        assert_eq!(pipe.backoff(3), 16);
        assert_eq!(pipe.backoff(60), 2 << 6, "shift capped");
    }
}
