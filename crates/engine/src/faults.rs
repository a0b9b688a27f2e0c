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
//! * receivers remember every identifier for as long as a copy of it can
//!   still arrive, so duplicates and retransmissions never double-index a
//!   tuple or query and never double-deliver a notification.
//!
//! With [`FaultConfig::default`] the layer is completely inert: messages take
//! the original perfect-FIFO path and every run is byte-identical to a build
//! without this module.
//!
//! The pump is not part of any transport: `FaultPipe` is state the network
//! owns, and its loop (the `impl Network` block below) decides *what* is
//! transmitted and *when*; every copy that survives its draws is carried by
//! whichever backend is installed. Every draw is one `FaultDecider` call.

use std::collections::{BTreeMap, VecDeque};

use cq_fasthash::{FxHashMap, FxHashSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cq_overlay::{Id, NodeHandle};

use crate::error::Result;
use crate::messages::Message;
use crate::network::Network;
use crate::trace::TraceEvent;
use crate::transport::{Envelope, Pending};
use crate::wire;

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
    /// How abrupt failures arrive over time: the classic rate knobs above,
    /// or an empirical session-length distribution.
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
            replication: 0,
            ack_timeout: 0,
            max_retries: 0,
            churn: ChurnModel::Rate,
            seed: 0,
        }
    }
}

/// How abrupt node failures are generated while the pump runs.
///
/// [`ChurnModel::Rate`] draws `failure_rate` per tick.
/// [`ChurnModel::Empirical`] samples one session length per node slot from a
/// fitted distribution at pipe construction — the trace-driven shape
/// measurement studies report for peer-to-peer populations — and fails each
/// node when its session expires.
#[derive(Clone, Debug, PartialEq)]
pub enum ChurnModel {
    /// Rate-driven failures (`failure_rate`, `max_failures`).
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

/// Session-length distributions with published fits for peer uptime traces,
/// sampled by the pump's fault decider.
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
    /// pump (any delivery perturbation, in-pump failures, or acks, which
    /// only the pump sends).
    pub fn perturbs_delivery(&self) -> bool {
        self.retries_enabled()
            || self.loss_rate > 0.0
            || self.duplicate_rate > 0.0
            || self.delay_rate > 0.0
            || self.failure_rate > 0.0
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

    /// The backoff delay before the n-th retransmission:
    /// `ack_timeout << attempt`, with the shift capped so ticks stay sane.
    fn backoff(&self, attempt: u32) -> u64 {
        self.ack_timeout << attempt.min(6)
    }

    /// Upper bound on the ticks between a message's first transmission and
    /// its last retransmission: the first retry check fires after
    /// `ack_timeout`, the check after the n-th retransmission `backoff(n)`
    /// later, and the sender gives up once `max_retries` attempts are spent.
    /// Saturating.
    fn retransmit_span(&self) -> u64 {
        let capped = self.max_retries.min(6);
        let flat = u64::from(self.max_retries - capped);
        (1..=capped)
            .map(|attempt| self.backoff(attempt))
            .fold(self.ack_timeout, u64::saturating_add)
            .saturating_add(flat.saturating_mul(self.backoff(6)))
    }
}

/// A message identifier: `(sender slot, per-sender sequence number)`.
pub type MsgId = (u32, u64);

/// Receive-side dedup: per receiver, the identifiers whose copies can still
/// arrive. Only a copy marked `twin` (a windowed message, or a duplicated
/// transmission) is recorded; any other message arrives once or not at all.
/// Sequence numbers are allocated per *sender* across all of its receivers,
/// so one receiver sees a sparse subsequence of them and no low-water mark
/// ever advances; entries expire by message lifetime instead.
/// A copy of a message first transmitted at tick `t` arrives in
/// `t + 1 ..= t + 1 + max_delay` if nobody retransmits it, and no later than
/// `t + ack_timeout + Σ backoff(1..max_retries) + 1 + max_delay` if its sender
/// does ([`FaultPipe::new`] computes both lifetimes). The first arrival is
/// later than `t`, so forgetting an identifier that many ticks after its
/// first arrival never changes a verdict. Each class has one constant
/// lifetime and ticks are monotone, so the two expiry queues stay sorted by
/// being appended to.
#[derive(Debug, Default)]
struct Dedup {
    /// Per-receiver-slot identifiers seen and not yet expired.
    seen: Vec<FxHashSet<MsgId>>,
    /// `(expiry tick, receiver slot, identifier)` of fire-and-forget
    /// arrivals, in arrival order.
    unacked_expiry: VecDeque<(u64, u32, MsgId)>,
    /// The same for messages their sender retransmits until acknowledged.
    acked_expiry: VecDeque<(u64, u32, MsgId)>,
    /// Every identifier that ever arrived, per receiver: debug builds check
    /// each verdict of the expiring set against the set that never forgets,
    /// and that a copy without a twin is the first of its identifier.
    #[cfg(debug_assertions)]
    ever: Vec<FxHashSet<MsgId>>,
}

impl Dedup {
    /// Records the arrival of `id` at receiver slot `to`; returns `true` if
    /// it was seen before (a duplicate). A copy with a twin (`Some`) is
    /// remembered until tick `expires` on the `acked` or the fire-and-forget
    /// expiry queue; a copy without one (`None`) is not remembered.
    fn check_and_record(&mut self, id: MsgId, to: usize, twin: Option<(u64, bool)>) -> bool {
        let fresh = twin.is_none_or(|(expires, acked)| {
            if to >= self.seen.len() {
                self.seen.resize_with(to + 1, FxHashSet::default);
            }
            let fresh = self.seen[to].insert(id);
            if fresh {
                let queue = if acked {
                    &mut self.acked_expiry
                } else {
                    &mut self.unacked_expiry
                };
                debug_assert!(queue.back().is_none_or(|&(at, ..)| at <= expires));
                queue.push_back((expires, to as u32, id));
            }
            fresh
        });
        #[cfg(debug_assertions)]
        {
            if to >= self.ever.len() {
                self.ever.resize_with(to + 1, FxHashSet::default);
            }
            assert_eq!(
                fresh,
                self.ever[to].insert(id),
                "copy {id:?} at receiver {to}: a second arrival without a twin, \
                 or a dedup entry expired while a copy was still in flight"
            );
        }
        !fresh
    }

    /// Forgets every entry whose expiry tick is `<= now`.
    fn expire(&mut self, now: u64) {
        for queue in [&mut self.unacked_expiry, &mut self.acked_expiry] {
            while let Some(&(at, to, id)) = queue.front() {
                if at > now {
                    break;
                }
                queue.pop_front();
                self.seen[to as usize].remove(&id);
            }
        }
    }

    /// Identifiers currently remembered, summed over receivers.
    pub fn len(&self) -> usize {
        self.unacked_expiry.len() + self.acked_expiry.len()
    }
}

/// A tick-indexed timer wheel: items scheduled for a tick later than the
/// current one, handed back tick by tick in the order they were scheduled.
/// Slot `t & (len - 1)` holds tick `t`; the wheel doubles until it spans the
/// farthest distance anyone schedules (`1 + max_delay` for deliveries,
/// `ack_timeout << 6` for retry checks) and stays that size. Taking a tick
/// swaps its slot with the caller's drained buffer, so buffers circulate and
/// a steady-state tick neither allocates nor frees.
#[derive(Debug)]
struct Wheel<T> {
    /// Power-of-two many slots.
    slots: Vec<VecDeque<T>>,
    /// Items scheduled and not yet taken.
    len: usize,
}

impl<T> Wheel<T> {
    fn new() -> Self {
        Wheel {
            slots: vec![VecDeque::new(), VecDeque::new()],
            len: 0,
        }
    }

    /// Schedules `item` for tick `at`, which must be later than `now` (the
    /// last tick taken).
    pub fn schedule(&mut self, now: u64, at: u64, item: T) {
        assert!(at > now, "the wheel only schedules into the future");
        let distance = usize::try_from(at - now).expect("wheel horizon fits in memory");
        if distance >= self.slots.len() {
            self.grow(now, distance);
        }
        let mask = self.slots.len() - 1;
        self.slots[at as usize & mask].push_back(item);
        self.len += 1;
    }

    /// Re-files the pending ticks `now + 1 ..` on a wheel wide enough for
    /// `distance`.
    fn grow(&mut self, now: u64, distance: usize) {
        let mut old = std::mem::take(&mut self.slots);
        let (span, wider) = (old.len() as u64, (distance + 1).next_power_of_two());
        self.slots.resize_with(wider, VecDeque::new);
        for tick in now + 1..=now + span {
            let slot = std::mem::take(&mut old[(tick & (span - 1)) as usize]);
            self.slots[tick as usize & (wider - 1)] = slot;
        }
    }

    /// Moves everything scheduled for `tick` into `out` (which must be
    /// empty; its buffer becomes the slot's), in schedule order. Every tick
    /// must be taken, in order, before the next one is scheduled past.
    pub fn take_due(&mut self, tick: u64, out: &mut VecDeque<T>) {
        debug_assert!(out.is_empty(), "the previous tick was drained");
        let mask = self.slots.len() - 1;
        std::mem::swap(out, &mut self.slots[tick as usize & mask]);
        self.len -= out.len();
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A message a sender still awaits an ack for.
#[derive(Clone, Debug)]
struct Outstanding {
    /// The sending node (retransmissions originate here).
    from: NodeHandle,
    /// The identifier the message targets; retransmissions of routed
    /// messages re-resolve the owner so they survive ownership changes.
    target: Id,
    /// Whether retransmission re-routes by `target` (`true`) or re-sends to
    /// the original receiver only (`false`, for node-addressed messages such
    /// as replicas and direct notifications).
    reroute: bool,
    /// The last receiver the message was sent to.
    to: NodeHandle,
    /// The payload, kept for retransmission.
    msg: Message,
    /// Retransmission attempts so far.
    attempt: u32,
}

/// One scheduled arrival at a node.
#[derive(Clone, Debug)]
enum Delivery {
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
        matches!(self, Delivery::Data(copy) if copy.msg.is_probe())
    }
}

/// Every fault decision the pump takes, one method each: the only holder of
/// the fault RNG, and the only code that draws against the rates. A decision
/// whose rate is zero draws nothing, so which draws a run makes follows from
/// the seed and from which rates are set.
#[derive(Debug)]
struct FaultDecider {
    /// Seeded with [`FaultConfig::seed`], so injecting faults never perturbs
    /// the engine's own random choices.
    rng: StdRng,
    /// The pipe's configuration, of which only the rates are read here.
    cfg: FaultConfig,
}

impl FaultDecider {
    fn new(cfg: FaultConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        FaultDecider { rng, cfg }
    }

    /// The pump tick at which a node drawing its session from `session`
    /// fails (drawn once per slot when the pipe is built). Hand-rolled
    /// Box–Muller and inverse-transform draws, so the vendored minimal
    /// `rand` suffices; a session lasts at least one tick.
    fn session_end(&mut self, session: &SessionDist) -> u64 {
        let len = match *session {
            SessionDist::LogNormal { mu, sigma } => {
                // Box–Muller: two uniforms -> one standard normal.
                let u1: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = self.rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp()
            }
            SessionDist::Weibull { shape, scale } => {
                // Inverse transform: scale * (-ln(1 - U))^(1/shape).
                let u: f64 = self.rng.gen::<f64>().min(1.0 - f64::EPSILON);
                scale * (-(1.0 - u).ln()).powf(1.0 / shape)
            }
        };
        1 + len.round().max(1.0).min(u64::MAX as f64) as u64
    }

    /// Whether one copy of a transmission, or one ack, is lost.
    fn lose(&mut self) -> bool {
        self.cfg.loss_rate > 0.0 && self.rng.gen::<f64>() < self.cfg.loss_rate
    }

    /// Whether a transmission is sent twice.
    fn duplicate(&mut self) -> bool {
        let rate = self.cfg.duplicate_rate;
        rate > 0.0 && self.rng.gen::<f64>() < rate
    }

    /// Extra ticks one copy is held back: `1..=max_delay` with probability
    /// `delay_rate`, else `0`.
    fn delay(&mut self) -> u64 {
        let (rate, max) = (self.cfg.delay_rate, self.cfg.max_delay);
        if rate > 0.0 && max > 0 && self.rng.gen::<f64>() < rate {
            self.rng.gen_range(1..=max)
        } else {
            0
        }
    }

    /// Whether a rate-driven failure strikes this tick, `injected` having
    /// struck so far.
    fn strike(&mut self, injected: usize) -> bool {
        let rate = self.cfg.failure_rate;
        rate > 0.0 && injected < self.cfg.max_failures && self.rng.gen::<f64>() < rate
    }

    /// Which of `alive` nodes, in alive order, a failure strikes.
    fn victim(&mut self, alive: usize) -> usize {
        self.rng.gen_range(0..alive)
    }
}

/// The runtime state of the fault-injection + reliable-delivery layer.
/// Owned by the network (`Network::pump`) when
/// [`FaultConfig::perturbs_delivery`] is true or the detector is enabled.
#[derive(Debug)]
pub(crate) struct FaultPipe {
    /// Timeouts, retry budget and churn model (the rates are `decide`'s).
    cfg: FaultConfig,
    /// Every fault draw.
    decide: FaultDecider,
    /// Current simulated tick (monotonic across pumps).
    tick: u64,
    /// Per-sender-slot next sequence number.
    next_seq: Vec<u64>,
    /// Deliveries scheduled per tick, in deterministic insertion order.
    in_flight: Wheel<Delivery>,
    /// What is left of the current tick's deliveries, in schedule order
    /// (the pump hands data copies to the transport run by run).
    arriving: VecDeque<Delivery>,
    /// Retransmission checks scheduled per tick.
    retry_at: Wheel<MsgId>,
    /// What is left of the current tick's retry checks, in schedule order.
    retrying: VecDeque<MsgId>,
    /// Unacknowledged messages by identifier.
    outstanding: FxHashMap<MsgId, Outstanding>,
    /// Receive-side dedup state.
    dedup: Dedup,
    /// Ticks a fire-and-forget arrival is remembered: no copy of it is
    /// scheduled later than `max_delay` ticks after its first.
    unacked_life: u64,
    /// Ticks an arrival whose sender awaits an ack is remembered: the last
    /// retransmission fires `ack_timeout + Σ backoff(1..max_retries)` ticks
    /// after the first transmission at the latest (saturating: `u64::MAX`
    /// never expires).
    acked_life: u64,
    /// Rate-driven failures injected so far.
    failures_injected: usize,
    /// Empirical-churn session expiries: pump tick -> node slots whose
    /// sessions end there (sampled once at construction).
    session_ends: BTreeMap<u64, Vec<u32>>,
    /// Session-expiry failures injected so far.
    churn_events: usize,
    /// Scheduled deliveries that are *not* heartbeat probes. [`busy`]
    /// counts only these, so in-flight pings and pongs never keep the
    /// pump spinning on their own — probe traffic progresses passively
    /// on ticks real protocol work (or `Network::settle`) forces.
    ///
    /// [`busy`]: FaultPipe::busy
    nonprobe_in_flight: usize,
}

impl FaultPipe {
    /// A fresh pipe for `slots` node slots. Under [`ChurnModel::Empirical`]
    /// every slot draws its session length here, before any fault draw, so
    /// the schedule is a pure function of the seed and the slot count.
    pub(crate) fn new(cfg: FaultConfig, slots: usize) -> Self {
        let mut decide = FaultDecider::new(cfg.clone());
        let mut session_ends: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        if let ChurnModel::Empirical {
            session,
            max_events: 1..,
        } = &cfg.churn
        {
            for slot in 0..slots {
                let end = decide.session_end(session);
                session_ends.entry(end).or_default().push(slot as u32);
            }
        }
        let unacked_life = cfg.max_delay.saturating_add(1);
        let acked_life = cfg.retransmit_span().saturating_add(unacked_life);
        FaultPipe {
            cfg,
            decide,
            tick: 0,
            next_seq: vec![0; slots],
            in_flight: Wheel::new(),
            arriving: VecDeque::new(),
            retry_at: Wheel::new(),
            retrying: VecDeque::new(),
            outstanding: FxHashMap::default(),
            dedup: Dedup::default(),
            unacked_life,
            acked_life,
            failures_injected: 0,
            session_ends,
            churn_events: 0,
            nonprobe_in_flight: 0,
        }
    }

    /// Allocates the next sequence number for a sender.
    fn alloc_seq(&mut self, sender: NodeHandle) -> MsgId {
        let slot = sender.index();
        if slot >= self.next_seq.len() {
            self.next_seq.resize(slot + 1, 0);
        }
        let seq = self.next_seq[slot];
        self.next_seq[slot] += 1;
        (slot as u32, seq)
    }

    /// Moves the clock to the next tick and forgets the dedup entries whose
    /// messages can no longer arrive.
    fn advance(&mut self) {
        self.tick += 1;
        self.dedup.expire(self.tick);
    }

    /// Whether a message keeps an ack window open until acknowledged: while
    /// retries are enabled, every one but a heartbeat probe.
    fn windowed(&self, probe: bool) -> bool {
        !probe && self.cfg.retries_enabled()
    }

    /// Records a data arrival `(sender, seq)` at receiver `to`; returns
    /// `true` when it is a duplicate that must be suppressed. Only a `twin`
    /// copy is remembered.
    fn record_arrival(&mut self, id: MsgId, to: NodeHandle, probe: bool, twin: bool) -> bool {
        let acked = self.windowed(probe);
        let life = if acked {
            self.acked_life
        } else {
            self.unacked_life
        };
        let twin = twin.then(|| (self.tick.saturating_add(life), acked));
        self.dedup.check_and_record(id, to.index(), twin)
    }

    /// Schedules a delivery at an absolute tick (later than the current).
    fn schedule(&mut self, at: u64, delivery: Delivery) {
        if !delivery.is_probe() {
            self.nonprobe_in_flight += 1;
        }
        self.in_flight.schedule(self.tick, at, delivery);
    }

    /// Makes the current tick's deliveries `arriving` (drained by then).
    fn take_arrivals(&mut self) {
        self.in_flight.take_due(self.tick, &mut self.arriving);
        let nonprobe = self.arriving.iter().filter(|d| !d.is_probe()).count();
        self.nonprobe_in_flight -= nonprobe;
    }

    /// Whether any non-probe deliveries or retransmission checks remain.
    /// In-flight heartbeat probes deliberately do not count: a probe reply
    /// schedules the next probe, so counting them would keep the pump
    /// spinning forever once detection is enabled.
    pub(crate) fn busy(&self) -> bool {
        self.nonprobe_in_flight > 0 || !self.retry_at.is_empty()
    }

    /// Receive-side dedup entries currently held, summed over receivers.
    pub(crate) fn dedup_len(&self) -> usize {
        self.dedup.len()
    }
}

// The pump loop, as inherent methods of `Network` like the churn and recovery
// steps it interleaves; `engine::transport`'s drain loop calls into it.
impl Network {
    /// Advances the fault pump until it has put at least one copy on the
    /// transport (`true`: drain, then call again) or has nothing left to do
    /// (`false`). Sends pass through loss/duplication/delay draws, receivers
    /// dedup on `(sender, seq)`, unacknowledged messages retransmit with
    /// exponential backoff, and abrupt node failures strike between ticks.
    ///
    /// One tick is: advance the clock, inject failures, run the failure
    /// detector, walk this tick's arrivals in schedule order — data copies
    /// ride the transport and come back through [`Network::arrive`], acks are
    /// handled here — then fire retry checks. An ack is never overtaken by a
    /// copy scheduled behind it (nor the reverse): whether a late copy still
    /// finds its ack window open decides a fault draw.
    pub(crate) fn pump_step(
        &mut self,
        pipe: &mut FaultPipe,
        one_tick: bool,
        ticked: &mut bool,
    ) -> Result<bool> {
        loop {
            let mut handed = false;
            while let Some(delivery) = pipe.arriving.pop_front() {
                match delivery {
                    Delivery::Data(copy) => {
                        // `transmit` charged this copy's bytes already.
                        self.transport.enqueue(copy);
                        handed = true;
                    }
                    Delivery::Ack { .. } if handed => {
                        pipe.arriving.push_front(delivery);
                        break;
                    }
                    Delivery::Ack { id, to } => {
                        // An ack addressed to a node that died in flight
                        // never closes the window; `maybe_retransmit` drops
                        // the dead sender's window on its next firing.
                        if self.ring.node(to).is_alive() {
                            pipe.outstanding.remove(&id);
                        }
                    }
                }
            }
            if handed {
                return Ok(true);
            }
            // The tick's arrivals are all in: fire its retry checks (none
            // are left when this is reached a second time for one tick).
            pipe.retry_at.take_due(pipe.tick, &mut pipe.retrying);
            while let Some(id) = pipe.retrying.pop_front() {
                self.maybe_retransmit(pipe, id);
            }
            if one_tick && *ticked {
                return Ok(false);
            }
            // Fold freshly produced sends into the pipe (handlers, the
            // detector and promotions staged them during the tick).
            // (`transmit` only schedules, so nothing looks for `staged`
            // while it is out; putting it back keeps its capacity.)
            let mut fresh = self.staged.take().unwrap_or_default();
            for p in fresh.drain(..) {
                self.transmit(pipe, p);
            }
            self.staged = Some(fresh);
            if !one_tick && !pipe.busy() {
                // In-flight heartbeat probes may remain; they deliver
                // passively on ticks later work (or `Network::settle`)
                // forces.
                return Ok(false);
            }
            *ticked = true;
            pipe.advance();
            self.inject_failures(pipe)?;
            self.recovery_tick(pipe.tick)?;
            pipe.take_arrivals();
        }
    }

    /// One data copy came off the transport under the pump: drop it at a
    /// dead receiver, suppress it as a duplicate or dispatch it, then ack.
    pub(crate) fn arrive(&mut self, pipe: &mut FaultPipe, e: Envelope) -> Result<()> {
        let (now, to, msg) = (pipe.tick, e.to, e.msg);
        // Invariant: `pump_step` stamps every copy it hands to the transport.
        let id = e.id.expect("pump copies carry their identifier");
        let node = to.index() as u32;
        let probe = msg.is_probe();
        if !self.ring.node(to).is_alive() {
            self.metrics.faults.messages_lost += 1;
            // A non-probe message swallowed by a failed-but-undetected
            // receiver is the recovery blind spot.
            if !probe
                && self
                    .recovery
                    .as_ref()
                    .is_some_and(|r| r.undetected.contains_key(&node))
            {
                self.metrics.recovery.lost_in_detection_window += 1;
                if matches!(
                    msg,
                    Message::Notify { .. } | Message::StoreNotifications { .. }
                ) {
                    self.metrics.recovery.notifications_lost_in_window += 1;
                }
            }
            self.trace(|| TraceEvent::FaultDrop {
                tick: now,
                node,
                id,
            });
            return Ok(());
        }
        if pipe.record_arrival(id, to, probe, e.twin) {
            self.metrics.faults.dedup_suppressed += 1;
            self.trace(|| TraceEvent::DedupSuppressed {
                tick: now,
                node,
                id,
            });
        } else {
            let kind = msg.kind();
            self.trace(|| TraceEvent::MsgDeliver {
                tick: now,
                node,
                id,
                kind,
            });
            self.dispatch(to, msg)?;
        }
        // Ack every arrival whose sender keeps a window open (a duplicate
        // usually means the previous ack was lost). Acks are subject to loss
        // like any transmission. Windows exist only while retries are
        // enabled, and never for probes, so those are never looked up.
        let window = pipe.windowed(probe).then(|| pipe.outstanding.get(&id));
        if let Some(sender) = window.flatten().map(|o| o.from) {
            if pipe.decide.lose() {
                self.metrics.faults.messages_lost += 1;
                self.trace(|| TraceEvent::FaultDrop {
                    tick: now,
                    node: sender.index() as u32,
                    id,
                });
            } else {
                pipe.schedule(now + 1, Delivery::Ack { id, to: sender });
            }
        }
        Ok(())
    }

    /// Registers the logical messages of one fresh send with the pipe: each
    /// gets its `(sender, seq)` identifier, an ack window when retries are
    /// enabled, and its transmission copies scheduled through the fault
    /// draws. The logical message — not the envelope — is the unit of loss.
    fn transmit(&mut self, pipe: &mut FaultPipe, p: Pending) {
        let (from, to, reroute, mut path) = (p.from, p.to, p.reroute, p.trace_path);
        p.msg.for_each_logical(p.target, |target, msg| {
            let id = pipe.alloc_seq(from);
            self.trace_send(pipe.tick, id, to, target, &msg, path.take());
            // Exact wire cost of this transmission (acks are not payload
            // frames and are not counted), charged here for every backend.
            self.metrics.faults.bytes_sent[msg.kind_index()] += wire::encoded_len(&msg);
            // Heartbeat probes are fire-and-forget: no ack window, no
            // retransmission — an unanswered probe *is* the detector's signal.
            if pipe.windowed(msg.is_probe()) {
                let window = Outstanding {
                    from,
                    target,
                    reroute,
                    to,
                    msg: msg.clone(),
                    attempt: 0,
                };
                pipe.outstanding.insert(id, window);
                let at = pipe.tick + pipe.cfg.ack_timeout;
                pipe.retry_at.schedule(pipe.tick, at, id);
            }
            self.schedule_copies(pipe, id, to, msg);
        });
    }

    /// Draws duplication, loss and delay for one logical transmission and
    /// schedules the surviving copies, each marked `twin` when another copy
    /// may arrive too: a windowed message is resent until acked.
    fn schedule_copies(&mut self, pipe: &mut FaultPipe, id: MsgId, to: NodeHandle, msg: Message) {
        let (tick, node) = (pipe.tick, to.index() as u32);
        let copies = if pipe.decide.duplicate() {
            self.metrics.faults.messages_duplicated += 1;
            self.trace(|| TraceEvent::FaultDuplicate { tick, node, id });
            2
        } else {
            1
        };
        let twin = copies == 2 || pipe.windowed(msg.is_probe());
        // The last copy carries the payload itself; only a surviving first
        // copy of a duplicated transmission clones it.
        let mut msg = Some(msg);
        for copy in 0..copies {
            if pipe.decide.lose() {
                self.metrics.faults.messages_lost += 1;
                self.trace(|| TraceEvent::FaultDrop { tick, node, id });
                continue;
            }
            let extra = pipe.decide.delay();
            if extra > 0 {
                self.trace(|| TraceEvent::FaultDelay {
                    tick,
                    node,
                    id,
                    extra,
                });
            }
            let payload = if copy + 1 == copies {
                msg.take()
            } else {
                msg.clone()
            };
            // Invariant: only the final iteration takes the payload.
            let msg = payload.expect("payload outlives every copy but the last");
            let copy = Envelope {
                from: NodeHandle::from_index(id.0 as usize),
                to,
                id: Some(id),
                twin,
                msg,
            };
            pipe.schedule(tick + 1 + extra, Delivery::Data(copy));
        }
    }

    /// A retry check fired for `id`: if the message is still unacknowledged,
    /// retransmit it (re-resolving the owner for identifier-routed messages)
    /// and schedule the next check with exponential backoff.
    fn maybe_retransmit(&mut self, pipe: &mut FaultPipe, id: MsgId) {
        let Some(mut o) = pipe.outstanding.remove(&id) else {
            return; // acknowledged in the meantime
        };
        if !self.ring.node(o.from).is_alive() || o.attempt >= pipe.cfg.max_retries {
            return; // sender died, or we give up
        }
        let now = pipe.tick;
        o.attempt += 1;
        let next = now + pipe.cfg.backoff(o.attempt);
        let receiver = if o.reroute {
            self.ring.route_owner(o.from, o.target).ok()
        } else if self.ring.node(o.to).is_alive() {
            Some((o.to, 1))
        } else {
            return; // node-addressed and the receiver is gone
        };
        // A routed message that finds no owner (the overlay is mid-repair)
        // keeps its window open and tries again after the backoff.
        if let Some((owner, hops)) = receiver {
            o.to = owner;
            self.metrics.faults.retransmission_hops += hops as u64;
            self.metrics.faults.retransmissions += 1;
            self.metrics.faults.bytes_sent[o.msg.kind_index()] += wire::encoded_len(&o.msg);
            let (node, attempt) = (o.from.index() as u32, o.attempt);
            self.trace(|| TraceEvent::Retransmit {
                tick: now,
                node,
                id,
                attempt,
            });
            self.schedule_copies(pipe, id, o.to, o.msg.clone());
        }
        pipe.outstanding.insert(id, o);
        pipe.retry_at.schedule(now, next, id);
    }

    /// Injects rate-driven and session-expiry abrupt node failures for the
    /// current tick, then repairs pointers and promotes replicas.
    fn inject_failures(&mut self, pipe: &mut FaultPipe) -> Result<()> {
        let mut failed = false;
        // One pseudo-random alive node, never the last one.
        if pipe.decide.strike(pipe.failures_injected) && self.ring.len() > 1 {
            let i = pipe.decide.victim(self.ring.len());
            // Invariant: the victim is drawn below the alive count.
            let victim = self.ring.alive_nodes().nth(i).expect("index in range");
            if self.node_fail(victim).is_ok() {
                pipe.failures_injected += 1;
                failed = true;
            }
        }
        // Empirical churn: sessions sampled at pipe construction expire.
        if let ChurnModel::Empirical { max_events, .. } = pipe.cfg.churn {
            let mut due = pipe.session_ends.split_off(&(pipe.tick + 1));
            std::mem::swap(&mut due, &mut pipe.session_ends);
            for slot in due.into_values().flatten() {
                if pipe.churn_events >= max_events || self.ring.len() <= 1 {
                    break;
                }
                let h = NodeHandle::from_index(slot as usize);
                if !self.ring.node(h).is_alive() {
                    continue;
                }
                if self.node_fail(h).is_ok() {
                    pipe.churn_events += 1;
                    failed = true;
                }
            }
        }
        // Without a detector, failures are repaired with oracle knowledge
        // on the very tick they happen — the seed behavior. With one, the
        // suspicion state machine must *discover* them first.
        if failed && !self.recovery_active() {
            self.ring.stabilize_all(1);
            self.promote_replicas()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A delivery that carries `n`: a probe, or an ack (which is not one).
    fn numbered(probe: bool, n: u64) -> Delivery {
        let node = NodeHandle::from_index(0);
        if probe {
            Delivery::Data(Envelope {
                from: node,
                to: node,
                id: Some((0, n)),
                twin: false,
                msg: Message::Ping { from: 0, seq: n },
            })
        } else {
            Delivery::Ack {
                id: (0, n),
                to: node,
            }
        }
    }

    fn number_of(d: &Delivery) -> (bool, u64) {
        match d {
            Delivery::Data(copy) => (true, copy.id.expect("numbered").1),
            Delivery::Ack { id, .. } => (false, id.1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both wheels against `BTreeMap<tick, Vec<_>>`: every tick hands out
        /// exactly what was scheduled for it, in schedule order — whatever
        /// the horizon (`max_delay = 0` is distance 1, a capped backoff of
        /// `ack_timeout = 2` is 128), across growth, through empty ticks and
        /// through recycled buffers.
        #[test]
        fn wheels_agree_with_an_ordered_map(
            ops in prop::collection::vec((0u8..10, 0u64..1000, prop::bool::ANY), 1..400),
        ) {
            let mut pipe = FaultPipe::new(FaultConfig::default(), 1);
            let mut deliveries: BTreeMap<u64, Vec<(bool, u64)>> = BTreeMap::new();
            let mut retries: BTreeMap<u64, Vec<MsgId>> = BTreeMap::new();
            for (n, (op, a, probe)) in ops.into_iter().enumerate() {
                let n = n as u64;
                match op {
                    0..=3 => {
                        // next tick mostly, a short delay often, far rarely
                        let delay = [0, 0, a % 4, a % 4, a % 7, a % 200][a as usize % 6];
                        let at = pipe.tick + 1 + delay;
                        pipe.schedule(at, numbered(probe, n));
                        deliveries.entry(at).or_default().push((probe, n));
                    }
                    4 | 5 => {
                        let at = pipe.tick + 1 + [a % 3, (2 << (a % 7)) - 1][a as usize % 2];
                        pipe.retry_at.schedule(pipe.tick, at, (0, n));
                        retries.entry(at).or_default().push((0, n));
                    }
                    _ => {
                        pipe.advance();
                        pipe.take_arrivals();
                        let got: Vec<_> = pipe.arriving.drain(..).map(|d| number_of(&d)).collect();
                        prop_assert_eq!(got, deliveries.remove(&pipe.tick).unwrap_or_default());
                        pipe.retry_at.take_due(pipe.tick, &mut pipe.retrying);
                        let got: Vec<_> = pipe.retrying.drain(..).collect();
                        prop_assert_eq!(got, retries.remove(&pipe.tick).unwrap_or_default());
                        pipe.retry_at.take_due(pipe.tick, &mut pipe.retrying);
                        prop_assert!(pipe.retrying.is_empty(), "a tick's checks fire once");
                    }
                }
                let nonprobe = deliveries.values().flatten().filter(|(probe, _)| !probe).count();
                prop_assert_eq!(pipe.nonprobe_in_flight, nonprobe);
                prop_assert_eq!(pipe.busy(), nonprobe > 0 || !retries.is_empty());
            }
        }

        /// The decider against the condition chains the pump loop spelled
        /// out inline before it existed, run on a second `StdRng` with the
        /// same seed: the same answer to every decision of a random sequence,
        /// hence the same draws. A third of the rates are zero (a zero rate
        /// draws nothing), and `max_delay = 0` comes up.
        #[test]
        fn the_decider_draws_what_the_inline_chains_drew(
            seed in 0u64..1 << 32,
            rates in prop::collection::vec(0u32..1500, 4..5),
            max_delay in 0u64..4,
            max_failures in 0usize..4,
            ops in prop::collection::vec((0u8..7, 0usize..64), 1..200),
        ) {
            let rate = |x: u32| if x < 500 { 0.0 } else { f64::from(x - 500) / 1000.0 };
            let cfg = FaultConfig {
                loss_rate: rate(rates[0]),
                duplicate_rate: rate(rates[1]),
                delay_rate: rate(rates[2]),
                max_delay,
                failure_rate: rate(rates[3]),
                max_failures,
                seed,
                ..FaultConfig::default()
            };
            let mut decide = FaultDecider::new(cfg.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            for (op, n) in ops {
                match op {
                    0 => {
                        let lost = cfg.loss_rate > 0.0 && rng.gen::<f64>() < cfg.loss_rate;
                        prop_assert_eq!(decide.lose(), lost);
                    }
                    1 => {
                        let twice = cfg.duplicate_rate > 0.0 && rng.gen::<f64>() < cfg.duplicate_rate;
                        prop_assert_eq!(decide.duplicate(), twice);
                    }
                    2 => {
                        let mut extra = 0;
                        if cfg.delay_rate > 0.0
                            && cfg.max_delay > 0
                            && rng.gen::<f64>() < cfg.delay_rate
                        {
                            extra += rng.gen_range(1..=cfg.max_delay);
                        }
                        prop_assert_eq!(decide.delay(), extra);
                    }
                    3 => {
                        let injected = n % 5;
                        let strikes = cfg.failure_rate > 0.0
                            && injected < cfg.max_failures
                            && rng.gen::<f64>() < cfg.failure_rate;
                        prop_assert_eq!(decide.strike(injected), strikes);
                    }
                    4 => prop_assert_eq!(decide.victim(n + 1), rng.gen_range(0..n + 1)),
                    _ => {
                        let session = if n % 2 == 0 {
                            SessionDist::LogNormal { mu: 3.0, sigma: 1.5 }
                        } else {
                            SessionDist::Weibull { shape: 0.6, scale: 40.0 }
                        };
                        let end = 1 + inline_session_len(&session, &mut rng);
                        prop_assert_eq!(decide.session_end(&session), end);
                    }
                }
            }
        }
    }

    /// One session length as the pipe drew it before the decider existed.
    fn inline_session_len(session: &SessionDist, rng: &mut StdRng) -> u64 {
        let len = match *session {
            SessionDist::LogNormal { mu, sigma } => {
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp()
            }
            SessionDist::Weibull { shape, scale } => {
                let u: f64 = rng.gen::<f64>().min(1.0 - f64::EPSILON);
                scale * (-(1.0 - u).ln()).powf(1.0 / shape)
            }
        };
        len.round().max(1.0).min(u64::MAX as f64) as u64
    }

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
    fn acks_alone_need_the_pump() {
        // Only the pump sends acks, so retries on a perfect channel must
        // still route through it.
        let cfg = FaultConfig {
            ack_timeout: 1,
            ..FaultConfig::default()
        };
        assert!(cfg.perturbs_delivery());
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
    fn dedup_detects_duplicates_until_the_entry_expires() {
        let cfg = FaultConfig {
            max_delay: 3,
            ..FaultConfig::default()
        };
        let mut pipe = FaultPipe::new(cfg, 2);
        let (a, b) = (NodeHandle::from_index(0), NodeHandle::from_index(1));
        pipe.advance();
        assert!(!pipe.record_arrival((1, 7), a, true, true));
        assert!(pipe.record_arrival((1, 7), a, true, true), "second copy");
        assert!(
            !pipe.record_arrival((1, 7), b, true, true),
            "dedup is per receiver"
        );
        // sparse per-receiver subsequences of the sender's numbering
        assert!(!pipe.record_arrival((1, 3), a, false, true));
        assert_eq!(pipe.dedup.len(), 3);
        for _ in 0..3 {
            pipe.advance();
            assert_eq!(pipe.dedup.len(), 3, "a delayed copy may still land");
        }
        assert!(
            pipe.record_arrival((1, 7), a, true, true),
            "the latest possible copy"
        );
        pipe.advance();
        assert_eq!(pipe.dedup.len(), 0, "1 + max_delay ticks after arrival");
    }

    /// The sender's side of one message first transmitted at `t0`, replayed
    /// from `transmit` / `maybe_retransmit` / `schedule_copies`: the latest
    /// tick a copy can land. `reroute_fails` makes every other retransmission
    /// fail to resolve an owner — it sends nothing but spends its attempt.
    fn last_possible_arrival(cfg: &FaultConfig, t0: u64, reroute_fails: bool) -> u64 {
        let mut last = t0 + 1 + cfg.max_delay;
        if !cfg.retries_enabled() {
            return last;
        }
        let (mut check, mut attempt) = (t0 + cfg.ack_timeout, 0);
        while attempt < cfg.max_retries {
            attempt += 1;
            if !(reroute_fails && attempt % 2 == 1) {
                last = check + 1 + cfg.max_delay;
            }
            check += cfg.backoff(attempt);
        }
        last
    }

    #[test]
    fn dedup_lifetime_covers_the_last_possible_arrival() {
        for max_retries in [0, 1, 3, 16] {
            for ack_timeout in [0, 2] {
                for max_delay in [0, 3] {
                    for reroute_fails in [false, true] {
                        let cfg = FaultConfig {
                            max_retries,
                            ack_timeout,
                            max_delay,
                            ..FaultConfig::default()
                        };
                        let mut pipe = FaultPipe::new(cfg.clone(), 1);
                        let to = NodeHandle::from_index(0);
                        // transmitted at t0 = 5; the first copy lands at the
                        // earliest, which expires the entry the earliest
                        while pipe.tick < 6 {
                            pipe.advance();
                        }
                        assert!(!pipe.record_arrival((0, 0), to, false, true));
                        let last = last_possible_arrival(&cfg, 5, reroute_fails);
                        while pipe.tick < last {
                            pipe.advance();
                        }
                        assert!(
                            pipe.record_arrival((0, 0), to, false, true),
                            "{cfg:?}: a copy landing at tick {last} must still be a duplicate"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dedup_lifetime_saturates_instead_of_overflowing() {
        let unbounded = FaultConfig {
            max_retries: u32::MAX,
            ack_timeout: 2,
            max_delay: 3,
            ..FaultConfig::default()
        };
        let pipe = FaultPipe::new(unbounded, 1);
        assert!(pipe.acked_life >= (u64::from(u32::MAX) - 6) * pipe.cfg.backoff(6));
        let saturating = FaultConfig {
            max_retries: u32::MAX,
            ack_timeout: u64::MAX >> 8,
            max_delay: u64::MAX,
            ..FaultConfig::default()
        };
        let mut pipe = FaultPipe::new(saturating, 1);
        assert_eq!((pipe.unacked_life, pipe.acked_life), (u64::MAX, u64::MAX));
        pipe.tick = u64::MAX - 2;
        assert!(!pipe.record_arrival((0, 0), NodeHandle::from_index(0), false, true));
        pipe.advance();
        assert_eq!(pipe.dedup.len(), 1, "expiry tick u64::MAX: never");
    }

    /// The message size budget (DESIGN.md, "Hot-path memory discipline"):
    /// every heartbeat probe is moved as a `Pending`, an `Envelope` and a
    /// `Delivery`, and a move of more than 128 bytes is a `memcpy` call
    /// where a smaller one is a few inline loads and stores. A variant that
    /// outgrows 48 bytes belongs in a box, as `JoinV`'s payload is.
    #[test]
    fn a_probe_moves_inline() {
        use std::mem::size_of;
        let sizes = [
            ("Message", size_of::<Message>(), 48),
            ("Envelope", size_of::<Envelope>(), 88),
            ("Pending", size_of::<Pending>(), 96),
            ("Delivery", size_of::<Delivery>(), 88),
        ];
        for (name, size, budget) in sizes {
            assert!(size <= budget, "{name} is {size} bytes, over {budget}");
        }
    }

    /// A network with a pipe of `cfg` beside it, and a ping from its node 0
    /// to its node 1 as the pump hands one to `Network::arrive`.
    fn ping_pair(cfg: FaultConfig) -> (Network, FaultPipe, impl Fn(u64, bool) -> Envelope) {
        use crate::config::{Algorithm, EngineConfig};
        let engine = EngineConfig::new(Algorithm::DaiT)
            .with_nodes(4)
            .with_fault(cfg.clone());
        let net = Network::new(engine, cq_relational::Catalog::new());
        let (a, b) = (net.node_at(0), net.node_at(1));
        let ping = move |seq, twin| Envelope {
            from: a,
            to: b,
            id: Some((a.index() as u32, seq)),
            twin,
            msg: Message::Ping {
                from: a.index() as u32,
                seq,
            },
        };
        (net, FaultPipe::new(cfg, 4), ping)
    }

    #[test]
    fn only_a_copy_that_may_have_a_twin_is_recorded() {
        let (mut net, mut pipe, ping) = ping_pair(FaultConfig::lossy(0.05, 3));
        pipe.advance();
        // both copies of a duplicated probe: the second is suppressed
        net.arrive(&mut pipe, ping(0, true)).unwrap();
        net.arrive(&mut pipe, ping(0, true)).unwrap();
        assert_eq!(net.metrics().faults.dedup_suppressed, 1);
        assert_eq!(pipe.dedup_len(), 1);
        // a probe sent once is dispatched and leaves no entry behind
        net.arrive(&mut pipe, ping(1, false)).unwrap();
        assert_eq!(net.metrics().faults.dedup_suppressed, 1);
        assert_eq!(pipe.dedup_len(), 1, "a single copy is not recorded");
        assert!(pipe.outstanding.is_empty(), "probes open no window");
    }

    /// End to end through the pump: without retries, a probe is remembered
    /// only when the pump duplicated it.
    #[test]
    fn the_pump_marks_only_copies_that_can_have_a_twin() {
        use crate::config::{Algorithm, EngineConfig};
        use crate::recovery::SuspicionConfig;
        for (duplicate_rate, remembered) in [(0.0, false), (0.5, true)] {
            let fault = FaultConfig {
                loss_rate: 0.05,
                duplicate_rate,
                delay_rate: 0.2,
                max_delay: 3,
                ..FaultConfig::default()
            };
            let engine = EngineConfig::new(Algorithm::DaiT)
                .with_nodes(8)
                .with_fault(fault)
                .with_suspicion(SuspicionConfig::active());
            let mut net = Network::new(engine, cq_relational::Catalog::new());
            for _ in 0..40 {
                net.tick_now().unwrap();
            }
            assert!(net.metrics().recovery.heartbeats_sent > 0);
            let entries = net.dedup_entries();
            assert_eq!(entries > 0, remembered, "duplicate rate {duplicate_rate}");
        }
    }

    /// The debug shadow sees every arrival: a copy marked single that
    /// arrives twice is a pump bug, not a duplicate.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a second arrival without a twin")]
    fn a_single_copy_arriving_twice_panics_in_debug_builds() {
        let (mut net, mut pipe, ping) = ping_pair(FaultConfig::lossy(0.05, 3));
        pipe.advance();
        net.arrive(&mut pipe, ping(7, false)).unwrap();
        let _ = net.arrive(&mut pipe, ping(7, false));
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
        let cfg = FaultConfig {
            ack_timeout: 2,
            ..FaultConfig::default()
        };
        assert_eq!(cfg.backoff(0), 2);
        assert_eq!(cfg.backoff(1), 4);
        assert_eq!(cfg.backoff(3), 16);
        assert_eq!(cfg.backoff(60), 2 << 6, "shift capped");
    }
}
