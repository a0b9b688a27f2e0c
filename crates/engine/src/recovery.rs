//! In-protocol failure detection and anti-entropy replica repair.
//!
//! The fault layer (`engine::faults`) injects abrupt node failures, but the
//! seed engine repaired them with *oracle knowledge*: the harness called
//! [`Network::stabilize`] the instant a node died. This module replaces the
//! oracle with an in-protocol detector:
//!
//! * **Heartbeats** — every `HEARTBEAT_EVERY` (4) pump ticks,
//!   each alive node pings every entry of its *local* successor list (the
//!   stale, per-node view — exactly what a real Chord node has). Probes are
//!   fire-and-forget: they never open ack windows, and in-flight probes do
//!   not keep the message pump busy (see `FaultPipe::busy`).
//! * **Suspicion** — an unanswered probe moves the watch to *suspected*
//!   after [`SuspicionConfig::suspect_after`] ticks; a pong at any point
//!   clears it (a late pong from a slow-but-alive node is counted as a
//!   *false suspicion*). A suspicion that survives another
//!   [`SuspicionConfig::confirm_after`] ticks is *confirmed*: the watcher
//!   triggers ring stabilization and replica promotion. Confirming a node
//!   that was actually alive is harmless — promotion only extracts replicas
//!   whose identifiers the promoting node *really* owns.
//! * **Anti-entropy** — every [`SuspicionConfig::anti_entropy_every`] ticks,
//!   each primary compares an order-independent digest of its owned state
//!   (entry count + commutative hash sum, see
//!   [`crate::replication`]) against each of its `k` successors' replica
//!   stores and re-mirrors only the missing items. A round in which no
//!   successor was missing anything closes all open repair episodes.
//!
//! With [`SuspicionConfig::default`] (disabled) none of this exists at
//! runtime and every run is byte-identical to the pre-detection engine.

use cq_fasthash::FxHashMap;
use cq_overlay::{Id, NodeHandle, Ring};

use crate::error::{EngineError, Result};
use crate::messages::Message;
use crate::network::Network;
use crate::node::NodeState;
use crate::replication::{DigestIndex, ReplicaItem};
use crate::tables::Held;
use crate::trace::TraceEvent;
use crate::wire;

/// Ticks between heartbeat rounds.
const HEARTBEAT_EVERY: u64 = 4;

/// Failure-detection knobs. All durations are pump ticks (the same unit the
/// fault layer uses). The default is fully disabled: no probes, no
/// suspicion, no anti-entropy — failures are repaired by whoever calls
/// [`Network::stabilize`], exactly as before this module existed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspicionConfig {
    /// Master switch. When `false` every other knob is ignored.
    pub enabled: bool,
    /// Ticks an unanswered probe waits before the target is *suspected*.
    pub suspect_after: u64,
    /// Ticks a suspicion must survive (no pong) before it is *confirmed*
    /// and repair (stabilization + replica promotion) is triggered.
    pub confirm_after: u64,
    /// Ticks between anti-entropy digest rounds; `0` disables anti-entropy
    /// (repair episodes then close at confirmation time).
    pub anti_entropy_every: u64,
}

impl Default for SuspicionConfig {
    fn default() -> Self {
        SuspicionConfig {
            enabled: false,
            suspect_after: 8,
            confirm_after: 8,
            anti_entropy_every: 16,
        }
    }
}

impl SuspicionConfig {
    /// An enabled profile with the default cadence — the starting point for
    /// tests and the `ef02` experiment.
    pub fn active() -> Self {
        SuspicionConfig {
            enabled: true,
            ..SuspicionConfig::default()
        }
    }

    /// Overrides the suspicion timeout (the `ef02` sweep axis). Sets only
    /// [`SuspicionConfig::suspect_after`] — pair with
    /// [`SuspicionConfig::with_confirm_after`] to scale the confirmation
    /// grace alongside it. (An earlier version silently overwrote
    /// `confirm_after` too, making it impossible to configure the two
    /// timeouts independently.)
    pub fn with_suspect_after(mut self, ticks: u64) -> Self {
        self.suspect_after = ticks;
        self
    }

    /// Overrides the confirmation grace: how long a suspicion must survive
    /// before repair is triggered.
    pub fn with_confirm_after(mut self, ticks: u64) -> Self {
        self.confirm_after = ticks;
        self
    }

    /// Overrides the anti-entropy cadence (`0` disables digest rounds).
    pub fn with_anti_entropy_every(mut self, ticks: u64) -> Self {
        self.anti_entropy_every = ticks;
        self
    }
}

/// One watcher→target probe relationship.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WatchState {
    /// A probe is out; `sent_at` is the tick of the *first* unanswered
    /// probe (later heartbeat rounds re-ping without resetting the clock).
    Waiting {
        /// Tick of the first unanswered probe.
        sent_at: u64,
    },
    /// The suspect timer expired without a pong.
    Suspected {
        /// Tick the watch moved to suspected.
        suspected_at: u64,
    },
}

/// The active watches: one row per prober slot, each sorted by target slot.
/// A prober watches its successor list, so a row holds at most `r` entries
/// and every operation on it is a short scan; sweeps visit watches in
/// `(prober, target)` order, which is the order suspicions and confirmations
/// are reported and acted on.
#[derive(Debug, Default)]
struct WatchTable {
    rows: Vec<Vec<(u32, WatchState)>>,
}

impl WatchTable {
    /// Starts watching `prober → target` in `state` unless a watch exists.
    fn or_insert(&mut self, prober: u32, target: u32, state: WatchState) {
        if prober as usize >= self.rows.len() {
            self.rows.resize_with(prober as usize + 1, Vec::new);
        }
        let row = &mut self.rows[prober as usize];
        if let Err(at) = row.binary_search_by_key(&target, |&(t, _)| t) {
            row.insert(at, (target, state));
        }
    }

    /// Removes and returns the watch `prober → target`, if any.
    fn remove(&mut self, prober: u32, target: u32) -> Option<WatchState> {
        let row = self.rows.get_mut(prober as usize)?;
        let at = row.binary_search_by_key(&target, |&(t, _)| t).ok()?;
        Some(row.remove(at).1)
    }

    /// Drops every watch on `target`.
    fn forget_target(&mut self, target: u32) {
        for row in &mut self.rows {
            row.retain(|&(t, _)| t != target);
        }
    }

    /// Visits every watch in `(prober, target)` order. A prober that is not
    /// `live` loses its whole row unvisited; `visit` returning `false`
    /// removes the watch it was shown.
    fn sweep(
        &mut self,
        mut live: impl FnMut(u32) -> bool,
        mut visit: impl FnMut(u32, u32, &mut WatchState) -> bool,
    ) {
        for (prober, row) in self.rows.iter_mut().enumerate() {
            if row.is_empty() {
                continue;
            }
            let prober = prober as u32;
            if live(prober) {
                row.retain_mut(|(target, state)| visit(prober, *target, state));
            } else {
                row.clear();
            }
        }
    }
}

/// Runtime state of the failure detector. Owned by [`Network`] when
/// [`SuspicionConfig::enabled`] is set; absent otherwise.
#[derive(Debug)]
pub(crate) struct Recovery {
    /// The configuration.
    cfg: SuspicionConfig,
    /// Mirror of the pipe's current tick (the pipe itself is moved out of
    /// the network while the pump runs, so sites like `node_fail`
    /// read the tick here).
    pub(crate) now: u64,
    /// Probe sequence counter (shared across nodes; probes are
    /// fire-and-forget so uniqueness is all that matters).
    probe_seq: u64,
    /// Active watches.
    watches: WatchTable,
    /// Failed-but-not-yet-confirmed nodes: slot → (failure pump tick,
    /// failure logical clock). Metrics/window bookkeeping only — the
    /// protocol never reads this map to decide anything, or the detector
    /// would be an oracle in disguise.
    pub(crate) undetected: FxHashMap<u32, (u64, u64)>,
    /// Closed detection windows as logical-clock intervals
    /// `[fail_clock, confirm_clock]`.
    windows: Vec<(u64, u64)>,
    /// Detected failures whose replica repair has not yet been verified by
    /// a clean anti-entropy round: `(slot, failure pump tick)`.
    repair_pending: Vec<(u32, u64)>,
    /// Next tick a heartbeat round fires.
    next_heartbeat: u64,
    /// Next tick an anti-entropy round fires.
    next_anti_entropy: u64,
    /// Scratch, kept allocated across rounds: the `(prober, target)`
    /// watches one deadline sweep confirms.
    confirmed: Vec<(u32, u32)>,
}

impl Recovery {
    /// Fresh detector state.
    pub(crate) fn new(cfg: SuspicionConfig) -> Self {
        Recovery {
            cfg,
            now: 0,
            probe_seq: 0,
            watches: WatchTable::default(),
            undetected: FxHashMap::default(),
            windows: Vec::new(),
            repair_pending: Vec::new(),
            next_heartbeat: 1,
            next_anti_entropy: cfg.anti_entropy_every.max(1),
            confirmed: Vec::new(),
        }
    }

    /// Whether detection or repair work is still outstanding (failures not
    /// yet confirmed, or confirmed but not yet verified repaired).
    pub(crate) fn pending(&self) -> bool {
        !self.undetected.is_empty() || !self.repair_pending.is_empty()
    }
}

/// One primary-vs-successor digest comparison of an anti-entropy round (see
/// [`Network::digest_pairs`]). Digests are `(distinct item count, wrapping
/// sum of item hashes)` over the primary's owned arc.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DigestPair {
    /// The node whose owned state is the reference side.
    pub primary: NodeHandle,
    /// One of its `k` successors, holding the mirror.
    pub successor: NodeHandle,
    /// The primary's ownership arc `(pred, id]`.
    pub arc: (Id, Id),
    /// Digest of the primary's tables over the arc.
    pub primary_digest: (u64, u64),
    /// Digest of the successor's replica store over the arc.
    pub successor_digest: (u64, u64),
}

/// From-scratch oracle for the primary side of the digest
/// ([`NodeState::primary_digests`]): takes every primary item `st` holds
/// under identifiers satisfying `pred` out of a copy of its tables — the
/// five tables' own extraction, not the walk the digest index is built
/// from — and hashes it into a fresh set.
#[cfg(test)]
fn primary_hashes(st: &NodeState, pred: impl Fn(Id) -> bool) -> cq_fasthash::FxHashSet<u64> {
    let items = st.tables.clone().take_where(pred);
    items.iter().map(ReplicaItem::digest_hash).collect()
}

/// Primary items the replica side (`have`) is missing — the anti-entropy
/// repair payload, in table order. Runs only for a pair whose digests
/// differ, and `suspects` (sorted; from the two digest indexes) names the
/// index ids the missing items live under, so only those items are hashed.
fn missing_primary_items(st: &NodeState, suspects: &[Id], have: &DigestIndex) -> Vec<ReplicaItem> {
    if suspects.is_empty() {
        return Vec::new(); // the replica side only holds extras
    }
    let missing = |held: &Held<'_>| {
        let id = held.index_id();
        suspects.binary_search(&id).is_ok() && !have.contains(id, held.digest_hash())
    };
    let items = st.tables.walk().filter(missing);
    items.map(Held::to_item).collect()
}

impl Network {
    /// Whether the in-protocol failure detector is installed.
    #[inline]
    pub(crate) fn recovery_active(&self) -> bool {
        self.recovery.is_some()
    }

    /// Records an abrupt failure with the detector (window/metric
    /// bookkeeping only). Called by `node_fail`.
    pub(crate) fn note_failure(&mut self, slot: u32) {
        let clock = self.trace_tick();
        if let Some(rec) = self.recovery.as_mut() {
            rec.undetected.insert(slot, (rec.now, clock));
        }
    }

    /// Slot `slot` is back on the ring. If it failed and no watcher had
    /// confirmed that yet, there is nothing left to detect: its window
    /// closes at the current clock (only a confirmation would otherwise, and
    /// none can come — [`Network::settle`] would wait for it forever). The
    /// watches on it go too, or they would end up confirming an alive node.
    pub(crate) fn note_rejoin(&mut self, slot: u32) {
        let clock = self.trace_tick();
        if let Some(rec) = self.recovery.as_mut() {
            if let Some((_, fail_clock)) = rec.undetected.remove(&slot) {
                rec.windows.push((fail_clock, clock));
            }
            rec.watches.forget_target(slot);
        }
    }

    /// A pong arrived at `prober` from slot `from`: clear the watch, and
    /// count a false suspicion if the target had already been suspected.
    pub(crate) fn on_pong(&mut self, prober: NodeHandle, from: u32) {
        let Some(rec) = self.recovery.as_mut() else {
            return;
        };
        let node = prober.index() as u32;
        let now = rec.now;
        let was_suspected = matches!(
            rec.watches.remove(node, from),
            Some(WatchState::Suspected { .. })
        );
        if was_suspected {
            self.metrics.recovery.false_suspects += 1;
            self.trace(|| TraceEvent::FalseSuspect {
                tick: now,
                node,
                target: from,
            });
        }
    }

    /// One detector step, run at the top of every pump tick (`now`):
    /// heartbeat round, suspicion deadline sweep, anti-entropy round — each
    /// on its own cadence. A no-op when detection is disabled.
    pub(crate) fn recovery_tick(&mut self, now: u64) -> Result<()> {
        // Take-and-restore releases the &mut self borrow while the round runs.
        let Some(mut rec) = self.recovery.take() else {
            return Ok(());
        };
        rec.now = now;
        self.heartbeat_round(&mut rec);
        let result = self
            .sweep_deadlines(&mut rec)
            .and_then(|()| self.anti_entropy_round(&mut rec));
        self.recovery = Some(rec);
        result
    }

    /// Sends one round of probes: every alive node pings every entry of its
    /// *local* successor list (which may be stale — that is the point).
    /// Existing watches are re-pinged without resetting their clocks.
    fn heartbeat_round(&mut self, rec: &mut Recovery) {
        if rec.now < rec.next_heartbeat {
            return;
        }
        rec.next_heartbeat = rec.now + HEARTBEAT_EVERY;
        let probes = |ring: &Ring, out: &mut Vec<_>| {
            for p in ring.alive_nodes() {
                let targets = ring.node(p).successor_list().iter();
                out.extend(targets.filter(|&&t| t != p).map(|&t| (p, t)));
            }
        };
        self.push_direct_each(probes, |net, p, t| {
            let (slot, tslot) = (p.index() as u32, t.index() as u32);
            rec.watches
                .or_insert(slot, tslot, WatchState::Waiting { sent_at: rec.now });
            let seq = rec.probe_seq;
            rec.probe_seq += 1;
            net.metrics.recovery.heartbeats_sent += 1;
            Message::Ping { from: slot, seq }
        });
    }

    /// Advances watch deadlines: waiting → suspected → confirmed. A
    /// confirmation removes the watch, triggers stabilization + replica
    /// promotion, and — when the target really was dead — closes the
    /// detection window and opens a repair episode.
    fn sweep_deadlines(&mut self, rec: &mut Recovery) -> Result<()> {
        let now = rec.now;
        let mut confirmed = std::mem::take(&mut rec.confirmed);
        let cfg = rec.cfg;
        rec.watches.sweep(
            |p| {
                self.ring
                    .node(NodeHandle::from_index(p as usize))
                    .is_alive()
            },
            |p, t, state| match *state {
                WatchState::Waiting { sent_at } => {
                    if now >= sent_at + cfg.suspect_after {
                        *state = WatchState::Suspected { suspected_at: now };
                        // This closure holds `self.metrics` mutably, so
                        // it reads the tracer field, not `self.trace`.
                        self.metrics.recovery.suspects += 1;
                        if let Some(tracer) = &self.tracer {
                            let (node, target) = (p, t);
                            tracer.record(&TraceEvent::Suspect {
                                tick: now,
                                node,
                                target,
                            });
                        }
                    }
                    true
                }
                WatchState::Suspected { suspected_at } => {
                    let confirm = now >= suspected_at + cfg.confirm_after;
                    if confirm {
                        confirmed.push((p, t));
                    }
                    !confirm
                }
            },
        );
        let repaired = !confirmed.is_empty();
        for (p, t) in confirmed.drain(..) {
            let dead = !self
                .ring
                .node(NodeHandle::from_index(t as usize))
                .is_alive();
            self.metrics.recovery.confirms += 1;
            self.trace(|| TraceEvent::Confirm {
                tick: now,
                node: p,
                target: t,
                dead,
            });
            if !dead {
                // A slow-but-alive node was declared dead. Stabilization
                // and promotion below are harmless (the ring still lists
                // it; promotion extracts nothing it owns) — the cost is
                // the spurious repair work itself, which is the honest
                // price of an aggressive timeout.
                self.metrics.recovery.false_suspects += 1;
            } else if let Some((fail_tick, fail_clock)) = rec.undetected.remove(&t) {
                // First confirmation of this actually-dead node.
                self.metrics.recovery.detections += 1;
                self.metrics.recovery.detect_ticks_total += now.saturating_sub(fail_tick);
                rec.windows.push((fail_clock, self.trace_tick()));
                if rec.cfg.anti_entropy_every > 0 && self.repl_k() > 0 {
                    rec.repair_pending.push((t, fail_tick));
                } else {
                    // No digest rounds to verify against: promotion below
                    // is the whole repair.
                    self.metrics.recovery.repairs += 1;
                    self.metrics.recovery.repair_ticks_total += now.saturating_sub(fail_tick);
                }
            }
        }
        rec.confirmed = confirmed;
        if repaired {
            self.ring.stabilize_all(1);
            self.promote_replicas()?;
        }
        Ok(())
    }

    /// The digest comparisons one anti-entropy round makes, in round order:
    /// every alive primary's owned arc against each of its `k` successors'
    /// replica stores. Both sides read their incrementally maintained
    /// `DigestIndex`; nothing is re-hashed.
    #[doc(hidden)]
    pub fn digest_pairs(&mut self) -> Result<Vec<DigestPair>> {
        let k = self.repl_k();
        let epoch = self.ring.membership_epoch();
        let mut out = Vec::with_capacity(self.ring.len() * k);
        for p in self.ring.alive_nodes() {
            let mut succs = self.ring.successors_of(p, k).peekable();
            if succs.peek().is_none() {
                continue;
            }
            // `p` owns exactly the arc `(pred, id]` (ground truth).
            let (pred, id) = self.ring.owned_range(p)?;
            let primary_digest = self.nodes[p.index()]
                .primary_digests()
                .digest(epoch, pred, id);
            for s in succs {
                out.push(DigestPair {
                    primary: p,
                    successor: s,
                    arc: (pred, id),
                    primary_digest,
                    successor_digest: self.nodes[s.index()].replicas.digest(epoch, pred, id),
                });
            }
        }
        Ok(out)
    }

    /// One anti-entropy round: every alive primary digests its owned state
    /// against each of its `k` successors' replica stores and re-mirrors
    /// only the missing items. A globally clean round (nothing missing
    /// anywhere) closes all open repair episodes.
    fn anti_entropy_round(&mut self, rec: &mut Recovery) -> Result<()> {
        let k = self.repl_k();
        if k == 0 || rec.cfg.anti_entropy_every == 0 || rec.now < rec.next_anti_entropy {
            return Ok(());
        }
        rec.next_anti_entropy = rec.now + rec.cfg.anti_entropy_every;
        let now = rec.now;
        // Plan first (digests borrow node state), then send. Only a pair
        // whose digests differ walks the primary's tables for the diff.
        let mut plans: Vec<(NodeHandle, NodeHandle, Vec<ReplicaItem>)> = Vec::new();
        for pair in self.digest_pairs()? {
            let (p, s, (pred, id)) = (pair.primary, pair.successor, pair.arc);
            let missing = if pair.successor_digest == pair.primary_digest {
                Vec::new()
            } else {
                let have = self.nodes[s.index()].replicas.index();
                let suspects = self.nodes[p.index()]
                    .mirrored
                    .ids_missing_from(have, pred, id);
                missing_primary_items(&self.nodes[p.index()], &suspects, have)
            };
            self.metrics.recovery.digest_exchanges += 1;
            self.trace(|| TraceEvent::DigestExchange {
                tick: now,
                node: p.index() as u32,
                to: s.index() as u32,
                items: pair.primary_digest.0,
                missing: missing.len() as u64,
            });
            if !missing.is_empty() {
                plans.push((p, s, missing));
            }
        }
        let clean = plans.is_empty();
        for (p, s, items) in plans {
            let (node, to, count) = (p.index() as u32, s.index() as u32, items.len() as u64);
            // Exact repair cost: the serialized size of each re-mirror's
            // `Replicate` frame under the wire codec.
            let msgs: Vec<Message> = items
                .into_iter()
                .map(|item| Message::Replicate {
                    item: Box::new(item),
                })
                .collect();
            let bytes: u64 = msgs.iter().map(wire::encoded_len).sum();
            self.metrics.recovery.repair_items += count;
            self.metrics.recovery.repair_bytes += bytes;
            self.trace(|| TraceEvent::Repair {
                tick: now,
                node,
                to,
                items: count,
                bytes,
            });
            for msg in msgs {
                self.push_direct(p, s, msg);
            }
        }
        if clean && !rec.repair_pending.is_empty() {
            for (_, fail_tick) in rec.repair_pending.drain(..) {
                self.metrics.recovery.repairs += 1;
                self.metrics.recovery.repair_ticks_total += now.saturating_sub(fail_tick);
            }
        }
        Ok(())
    }

    /// Drives the pump until the detector has confirmed every outstanding
    /// failure and verified its repair — forcing empty ticks if no protocol
    /// traffic keeps the clock moving. A no-op without a detector. Errors
    /// if detection cannot converge (e.g. more consecutive failures than
    /// the successor lists cover).
    pub fn settle(&mut self) -> Result<()> {
        self.process_all()?;
        let mut forced = 0u64;
        while self.recovery.as_ref().is_some_and(|r| r.pending())
            || self.pump.as_ref().is_some_and(|p| p.busy())
            || self.staged.as_ref().is_some_and(|s| !s.is_empty())
        {
            forced += 1;
            if forced > 100_000 {
                return Err(EngineError::Protocol {
                    detail: "failure detection did not converge within 100000 forced ticks \
                             (more consecutive failures than successor lists cover?)"
                        .to_string(),
                });
            }
            self.drive(true)?;
        }
        Ok(())
    }

    /// Forces one pump tick regardless of pending work (test and benchmark
    /// hook: lets the detector's heartbeat, deadline and digest cadences be
    /// driven without protocol traffic). A no-op without a fault pump.
    #[doc(hidden)]
    pub fn tick_now(&mut self) -> Result<()> {
        self.drive(true)
    }

    /// Receive-side dedup entries currently held, summed over receivers
    /// (test hook: the count is bounded by message lifetime, not history).
    #[doc(hidden)]
    pub fn dedup_entries(&self) -> usize {
        self.pump.as_ref().map_or(0, |pipe| pipe.dedup_len())
    }

    /// The detection windows observed so far, as closed logical-clock
    /// intervals `[fail, confirm]`; failures not yet confirmed yield
    /// half-open windows `[fail, u64::MAX]`. Tuples published inside any
    /// window have no delivery guarantee (the paper's best-effort
    /// semantics); everything outside must match the oracle.
    pub fn detection_windows(&self) -> Vec<(u64, u64)> {
        let Some(rec) = self.recovery.as_ref() else {
            return Vec::new();
        };
        let mut out = rec.windows.clone();
        for (_, fail_clock) in rec.undetected.values() {
            out.push((*fail_clock, u64::MAX));
        }
        out.sort_unstable();
        out
    }

    /// Runs one anti-entropy round immediately, regardless of cadence
    /// (test hook for divergence-repair scenarios).
    #[doc(hidden)]
    pub fn anti_entropy_now(&mut self) -> Result<()> {
        if self.recovery.is_none() {
            return Ok(());
        }
        // Invariant: is_none() returned above; take-and-restore releases the
        // &mut self borrow while the round runs.
        let mut rec = self.recovery.take().expect("checked above");
        rec.next_anti_entropy = rec.now;
        let result = self.anti_entropy_round(&mut rec);
        self.recovery = Some(rec);
        if result.is_ok() {
            return self.process_all();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn default_config_is_disabled() {
        let cfg = SuspicionConfig::default();
        assert!(!cfg.enabled);
    }

    #[test]
    fn active_profile_enables_and_scales() {
        let cfg = SuspicionConfig::active()
            .with_suspect_after(4)
            .with_confirm_after(4);
        assert!(cfg.enabled);
        assert_eq!(cfg.suspect_after, 4);
        assert_eq!(cfg.confirm_after, 4);
    }

    #[test]
    fn builder_setters_are_independent() {
        // `with_suspect_after` must not touch the confirmation grace (it
        // once silently overwrote it, making independent tuning impossible).
        let cfg = SuspicionConfig::active().with_suspect_after(3);
        assert_eq!(cfg.suspect_after, 3);
        assert_eq!(
            cfg.confirm_after,
            SuspicionConfig::default().confirm_after,
            "with_suspect_after must leave confirm_after alone"
        );
        let cfg = SuspicionConfig::active().with_confirm_after(5);
        assert_eq!(cfg.suspect_after, SuspicionConfig::default().suspect_after);
        assert_eq!(cfg.confirm_after, 5);
        // And the pair composes in either order.
        let cfg = SuspicionConfig::active()
            .with_confirm_after(9)
            .with_suspect_after(6);
        assert_eq!((cfg.suspect_after, cfg.confirm_after), (6, 9));
    }

    fn churn_net(k: usize) -> Network {
        use cq_relational::{Catalog, DataType, RelationSchema};
        let mut catalog = Catalog::new();
        for (name, a, b) in [("R", "A", "B"), ("S", "D", "E")] {
            let schema = RelationSchema::of(name, &[(a, DataType::Int), (b, DataType::Int)]);
            catalog.register(schema.unwrap()).unwrap();
        }
        let fault = crate::FaultConfig {
            replication: k,
            ..crate::FaultConfig::default()
        };
        let config = crate::EngineConfig::new(crate::Algorithm::DaiT)
            .with_nodes(12)
            .with_seed(3)
            .with_fault(fault)
            .with_suspicion(SuspicionConfig::active());
        Network::new(config, catalog)
    }

    fn offline_item(id: Id, v: i64) -> ReplicaItem {
        ReplicaItem::Offline {
            id,
            notification: cq_relational::Notification {
                query_key: cq_relational::QueryKey::derive("n", 0),
                subscriber: "n".into(),
                values: vec![cq_relational::Value::Int(v)],
            },
        }
    }

    #[test]
    fn replicate_in_flight_from_a_dead_primary_is_promoted_within_the_epoch() {
        // The epoch gate's edge: promotion scans a holder once per
        // membership epoch — unless a mirror lands under an identifier the
        // holder already owns, which only a `Replicate` still in flight
        // when its primary died can do.
        let mut net = churn_net(1);
        let p = net.node_at(5);
        let s = net.ring.successors_of(p, 1).next().unwrap();
        let id = net.ring.id_of(p);
        net.node_fail(p).unwrap();
        // Some other (false) confirmation already ran promotion under the
        // new epoch: `s` was scanned and held nothing promotable.
        net.promote_replicas().unwrap();
        let epoch = net.ring.membership_epoch();
        assert!(!net.nodes[s.index()].replicas.promotion_scan_due(epoch));
        // A late mirror for an arc `s` does not own leaves the gate shut …
        let pred = net.ring.owned_range(s).unwrap().0;
        assert!(!net.ring.owns(s, pred));
        let stray = Box::new(offline_item(pred, 0));
        net.dispatch(s, Message::Replicate { item: stray }).unwrap();
        assert!(!net.nodes[s.index()].replicas.promotion_scan_due(epoch));
        // … the dead primary's does not: `s` owns `id` since the failure.
        assert!(net.ring.owns(s, id));
        let late = Box::new(offline_item(id, 1));
        net.dispatch(s, Message::Replicate { item: late }).unwrap();
        assert!(net.nodes[s.index()].replicas.promotion_scan_due(epoch));
        assert!(net.nodes[s.index()].tables.offline.is_empty());
        // The detector now confirms `p`; that confirmation's promotion
        // finds the late arrival although the epoch has not moved.
        net.settle().unwrap();
        assert_eq!(net.metrics.recovery.detections, 1);
        assert_eq!(net.ring.membership_epoch(), epoch);
        let ReplicaItem::Offline { notification, .. } = offline_item(id, 1) else {
            unreachable!()
        };
        assert_eq!(
            net.nodes[s.index()].tables.offline,
            vec![(id, notification)]
        );
        assert_eq!(net.nodes[s.index()].replicas.len(), 1, "the stray mirror");
    }

    #[test]
    fn digest_pairs_agree_with_the_from_scratch_oracles() {
        use crate::replication::digest_of;
        use cq_relational::Value;
        let mut net = churn_net(2);
        let a = net.node_at(0);
        net.pose_query_sql(a, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
            .unwrap();
        for i in 0..12i64 {
            let (rel, node) = (["R", "S"][i as usize % 2], net.node_at(i as usize % 7));
            net.insert_tuple(node, rel, vec![Value::Int(i), Value::Int(i % 3)])
                .unwrap();
        }
        net.node_fail(net.node_at(4)).unwrap();
        net.settle().unwrap();
        net.node_leave(net.node_at(6)).unwrap();
        let pairs = net.digest_pairs().unwrap();
        assert!(pairs.iter().any(|pair| pair.primary_digest.0 > 0));
        for pair in pairs {
            let (p, s) = (pair.primary, pair.successor);
            let owned = |id: Id| net.ring.owns(p, id);
            let primary = digest_of(&primary_hashes(&net.nodes[p.index()], owned));
            assert_eq!(pair.primary_digest, primary, "primary {p:?}");
            let mirror = net.nodes[s.index()].replicas.digest_where(owned);
            assert_eq!(pair.successor_digest, mirror, "mirror of {p:?} at {s:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The watch table against the `BTreeMap<(prober, target), _>` it
        /// replaced: the same watches after every operation, the same values
        /// removed, and sweeps that visit in the map's iteration order.
        #[test]
        fn watch_table_agrees_with_an_ordered_map(
            ops in prop::collection::vec((0u8..10, 0u32..6, 0u32..6, 0u64..64), 1..200),
        ) {
            let mut table = WatchTable::default();
            let mut model: BTreeMap<(u32, u32), WatchState> = BTreeMap::new();
            for (op, p, t, x) in ops {
                match op {
                    0..=3 => {
                        let state = WatchState::Waiting { sent_at: x };
                        table.or_insert(p, t, state);
                        model.entry((p, t)).or_insert(state);
                    }
                    4 | 5 => prop_assert_eq!(table.remove(p, t), model.remove(&(p, t))),
                    6 => {
                        table.forget_target(t);
                        model.retain(|&(_, target), _| target != t);
                    }
                    _ => {
                        // probers in `x`'s low bits are dead; a visited watch
                        // ages, and one in three is removed
                        let live = |p: u32| x >> p & 1 == 0;
                        let age = |state: &mut WatchState| {
                            let (WatchState::Waiting { sent_at: at }
                            | WatchState::Suspected { suspected_at: at }) = *state;
                            *state = WatchState::Suspected { suspected_at: at + 1 };
                            at % 3 != 0
                        };
                        let mut visited = Vec::new();
                        table.sweep(live, |p, t, state| {
                            visited.push((p, t, *state));
                            age(state)
                        });
                        let mut expect = Vec::new();
                        model.retain(|&(p, t), state| {
                            live(p) && {
                                expect.push((p, t, *state));
                                age(state)
                            }
                        });
                        prop_assert_eq!(visited, expect);
                    }
                }
                let held = table.rows.iter().enumerate().flat_map(|(p, row)| {
                    row.iter().map(move |&(t, state)| ((p as u32, t), state))
                });
                let expect: Vec<_> = model.iter().map(|(&watch, &state)| (watch, state)).collect();
                prop_assert_eq!(held.collect::<Vec<_>>(), expect);
            }
        }
    }

    #[test]
    fn recovery_starts_idle() {
        let rec = Recovery::new(SuspicionConfig::active());
        assert!(!rec.pending());
        assert_eq!(rec.next_heartbeat, 1);
    }
}
