//! Load and traffic metrics (Section 5.1 / DESIGN.md).
//!
//! * **Filtering load** of a node: the number of query–tuple (or rewritten-
//!   query–tuple) candidate checks it performs.
//! * **Storage load** of a node: the number of items (queries, rewritten
//!   queries, tuples, stored notifications) it currently holds.
//! * **Traffic**: overlay hops and message counts, per protocol message
//!   category.

use std::fmt;

use cq_overlay::TrafficStats;

/// Categories of protocol messages whose traffic is accounted separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrafficKind {
    /// Indexing a query at the attribute level (`query(q, ...)`).
    QueryIndex,
    /// Indexing a tuple at the attribute + value levels
    /// (`al-index`/`vl-index`).
    TupleIndex,
    /// Reindexing rewritten queries at the value level (`join(q')`).
    Reindex,
    /// Notification delivery.
    Notify,
    /// Strategy probes: asking candidate rewriters for their statistics
    /// before choosing the index attribute (Section 4.3.6).
    Probe,
}

impl TrafficKind {
    /// All categories.
    pub const ALL: [TrafficKind; 5] = [
        TrafficKind::QueryIndex,
        TrafficKind::TupleIndex,
        TrafficKind::Reindex,
        TrafficKind::Notify,
        TrafficKind::Probe,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficKind::QueryIndex => "query-index",
            TrafficKind::TupleIndex => "tuple-index",
            TrafficKind::Reindex => "reindex",
            TrafficKind::Notify => "notify",
            TrafficKind::Probe => "probe",
        }
    }
}

impl fmt::Display for TrafficKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Per-node load counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// Candidate checks performed while acting as a rewriter
    /// (attribute-level filtering).
    pub rewriter_filtering: u64,
    /// Candidate checks performed while acting as an evaluator
    /// (value-level filtering).
    pub evaluator_filtering: u64,
}

impl NodeLoad {
    /// Total filtering load of the node.
    #[inline]
    pub fn filtering(&self) -> u64 {
        self.rewriter_filtering + self.evaluator_filtering
    }
}

/// Fault-injection and recovery counters (all zero when the robustness
/// layer is inactive). Kept separate from [`TrafficKind`] so enabling the
/// layer never changes the shape of existing traffic reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Message transmissions dropped by fault injection (or addressed to a
    /// node that died before delivery).
    pub messages_lost: u64,
    /// Extra message copies created by duplication faults.
    pub messages_duplicated: u64,
    /// Retransmissions issued by the reliable-delivery layer.
    pub retransmissions: u64,
    /// Overlay hops consumed by retransmissions (re-routing included).
    pub retransmission_hops: u64,
    /// Arrivals suppressed by receive-side dedup windows (duplicates and
    /// redundant retransmissions).
    pub dedup_suppressed: u64,
    /// Abrupt node failures injected by the fault layer.
    pub nodes_failed: u64,
    /// Replica entries promoted to primaries after a failure.
    pub replicas_promoted: u64,
    /// Replication messages sent (mirroring primaries onto successors).
    pub replica_messages: u64,
    /// Exact wire bytes sent per message kind, indexed like
    /// [`Message::KINDS`] — sized with the `engine::wire` codec, so reports
    /// state the true serialized cost of every transmission (initial sends
    /// and retransmissions; acks carry no payload frame and are excluded).
    /// Populated by the fault pump when one is installed (whatever the
    /// backend), otherwise by the TCP backend; the default perfect-delivery
    /// simulator path skips serialization sizing entirely and leaves these
    /// at zero.
    ///
    /// [`Message::KINDS`]: crate::messages::Message::KINDS
    pub bytes_sent: [u64; 11],
}

impl FaultCounters {
    /// Total wire bytes over every message kind.
    pub fn total_bytes_sent(&self) -> u64 {
        self.bytes_sent.iter().sum()
    }
}

/// Failure-detection and repair counters (`engine::recovery`), all zero
/// unless `SuspicionConfig::enabled`. Like [`FaultCounters`] they live
/// outside [`TrafficKind`] so enabling detection never changes the shape of
/// existing traffic reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Heartbeat probes sent (pings; pongs are not counted separately).
    pub heartbeats_sent: u64,
    /// Probe timeouts that moved a watch into the suspected state.
    pub suspects: u64,
    /// Suspicions confirmed: the watcher declared the target dead and
    /// triggered stabilization + replica promotion.
    pub confirms: u64,
    /// Suspicions (or confirmations) of nodes that were actually alive —
    /// slow links, not failures.
    pub false_suspects: u64,
    /// Actually-dead nodes detected (first confirm per failed node).
    pub detections: u64,
    /// Sum over detections of pump ticks from failure to confirmation
    /// (time-to-detect numerator; `detections` is the denominator).
    pub detect_ticks_total: u64,
    /// Failed nodes whose replica state was verified repaired by a clean
    /// anti-entropy round (or instantly when anti-entropy is disabled).
    pub repairs: u64,
    /// Sum over repairs of pump ticks from failure to verified repair.
    pub repair_ticks_total: u64,
    /// Anti-entropy digest comparisons performed (one per primary/successor
    /// pair per round).
    pub digest_exchanges: u64,
    /// Replica items re-mirrored by anti-entropy repair.
    pub repair_items: u64,
    /// Exact wire bytes of re-mirrored repair items: the serialized size of
    /// each repair's `Replicate` message under the `engine::wire` codec.
    pub repair_bytes: u64,
    /// Data messages lost because their receiver was dead but not yet
    /// detected (the recovery blind spot, notifications included).
    pub lost_in_detection_window: u64,
    /// The subset of `lost_in_detection_window` that carried notifications
    /// (`notify` / `store-notify`) — deliveries subscribers missed while
    /// detection lagged the failure.
    pub notifications_lost_in_window: u64,
}

/// Global metric registry for one simulation run.
#[derive(Clone, Debug)]
pub struct Metrics {
    loads: Vec<NodeLoad>,
    traffic: [TrafficStats; TrafficKind::ALL.len()],
    /// Number of notifications delivered to subscribers (with multiplicity).
    pub notifications_delivered: u64,
    /// Number of notifications routed to an offline subscriber's successor
    /// store (a subset of deliveries counted separately so recall analyses
    /// can split online and offline arrivals).
    pub notifications_stored_offline: u64,
    /// Fault-injection and recovery counters.
    pub faults: FaultCounters,
    /// Failure-detection and anti-entropy repair counters.
    pub recovery: RecoveryCounters,
}

fn kind_slot(kind: TrafficKind) -> usize {
    match kind {
        TrafficKind::QueryIndex => 0,
        TrafficKind::TupleIndex => 1,
        TrafficKind::Reindex => 2,
        TrafficKind::Notify => 3,
        TrafficKind::Probe => 4,
    }
}

impl Metrics {
    /// A registry for `n` node slots.
    pub fn new(n: usize) -> Self {
        Metrics {
            loads: vec![NodeLoad::default(); n],
            traffic: [TrafficStats::new(); TrafficKind::ALL.len()],
            notifications_delivered: 0,
            notifications_stored_offline: 0,
            faults: FaultCounters::default(),
            recovery: RecoveryCounters::default(),
        }
    }

    /// Records rewriter-side filtering work at node `slot`.
    #[inline]
    pub fn add_rewriter_filtering(&mut self, slot: usize, checks: u64) {
        self.loads[slot].rewriter_filtering += checks;
    }

    /// Records evaluator-side filtering work at node `slot`.
    #[inline]
    pub fn add_evaluator_filtering(&mut self, slot: usize, checks: u64) {
        self.loads[slot].evaluator_filtering += checks;
    }

    /// Records one routed message of the given kind.
    #[inline]
    pub fn record_traffic(&mut self, kind: TrafficKind, hops: usize) {
        self.traffic[kind_slot(kind)].record(hops);
    }

    /// Records a batch (e.g. one multisend fan-out counted as `messages`
    /// logical messages over `hops` total hops).
    #[inline]
    pub fn record_traffic_batch(&mut self, kind: TrafficKind, messages: u64, hops: usize) {
        self.traffic[kind_slot(kind)].record_batch(messages, hops);
    }

    /// Traffic counters for one category.
    pub fn traffic(&self, kind: TrafficKind) -> TrafficStats {
        self.traffic[kind_slot(kind)]
    }

    /// Total traffic over all categories.
    pub fn total_traffic(&self) -> TrafficStats {
        let mut t = TrafficStats::new();
        for s in &self.traffic {
            t.merge(s);
        }
        t
    }

    /// Per-node load counters (indexed by node slot).
    pub fn loads(&self) -> &[NodeLoad] {
        &self.loads
    }

    /// Total filtering load over all nodes (`TF`).
    pub fn total_filtering(&self) -> u64 {
        self.loads.iter().map(NodeLoad::filtering).sum()
    }

    /// Resets per-node loads and traffic (e.g. to measure only the steady
    /// state after a warm-up phase).
    pub fn reset(&mut self) {
        for l in &mut self.loads {
            *l = NodeLoad::default();
        }
        self.traffic = [TrafficStats::new(); TrafficKind::ALL.len()];
        self.notifications_delivered = 0;
        self.notifications_stored_offline = 0;
        self.faults = FaultCounters::default();
        self.recovery = RecoveryCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_sums_roles() {
        let mut m = Metrics::new(2);
        m.add_rewriter_filtering(0, 3);
        m.add_evaluator_filtering(0, 4);
        m.add_evaluator_filtering(1, 5);
        assert_eq!(m.loads()[0].filtering(), 7);
        assert_eq!(m.total_filtering(), 12);
    }

    #[test]
    fn traffic_by_kind() {
        let mut m = Metrics::new(1);
        m.record_traffic(TrafficKind::Reindex, 5);
        m.record_traffic_batch(TrafficKind::TupleIndex, 4, 12);
        assert_eq!(m.traffic(TrafficKind::Reindex).hops, 5);
        assert_eq!(m.traffic(TrafficKind::TupleIndex).messages, 4);
        assert_eq!(m.total_traffic().hops, 17);
        assert_eq!(m.total_traffic().messages, 5);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new(1);
        m.add_rewriter_filtering(0, 1);
        m.record_traffic(TrafficKind::Notify, 1);
        m.notifications_delivered = 9;
        m.notifications_stored_offline = 2;
        m.faults.messages_lost = 4;
        m.recovery.heartbeats_sent = 6;
        m.reset();
        assert_eq!(m.total_filtering(), 0);
        assert_eq!(m.total_traffic().messages, 0);
        assert_eq!(m.notifications_delivered, 0);
        assert_eq!(m.notifications_stored_offline, 0);
        assert_eq!(m.faults, FaultCounters::default());
        assert_eq!(m.recovery, RecoveryCounters::default());
    }
}
