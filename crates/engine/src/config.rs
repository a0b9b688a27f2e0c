//! Engine configuration: which algorithm runs, which optimizations are on.

use cq_overlay::IdSpace;

use crate::faults::FaultConfig;
use crate::recovery::SuspicionConfig;

/// The four distributed evaluation algorithms of Chapter 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Single-attribute index (Section 4.3): one rewriter per query;
    /// evaluators store both rewritten queries and tuples.
    Sai,
    /// Double-attribute index, notifications created when rewritten
    /// *queries* arrive at evaluators (Section 4.4.2): evaluators store
    /// tuples only.
    DaiQ,
    /// Double-attribute index, notifications created when *tuples* arrive at
    /// evaluators (Section 4.4.3): evaluators store rewritten queries only,
    /// and rewriters reindex each rewritten query at most once.
    DaiT,
    /// Double-attribute index over join-condition *values* (Section 4.5):
    /// handles type-T2 queries; tuples are indexed at the attribute level
    /// only.
    DaiV,
}

impl Algorithm {
    /// All four algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Sai,
        Algorithm::DaiQ,
        Algorithm::DaiT,
        Algorithm::DaiV,
    ];

    /// Short display name as used in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Sai => "SAI",
            Algorithm::DaiQ => "DAI-Q",
            Algorithm::DaiT => "DAI-T",
            Algorithm::DaiV => "DAI-V",
        }
    }

    /// Whether the algorithm indexes a query at both join attributes.
    pub fn is_double(&self) -> bool {
        !matches!(self, Algorithm::Sai)
    }

    /// Whether tuples are also indexed at the value level (all algorithms
    /// except DAI-V, Section 4.5).
    pub fn indexes_tuples_at_value_level(&self) -> bool {
        !matches!(self, Algorithm::DaiV)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// How SAI picks the index attribute of a query (Section 4.3.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexStrategy {
    /// Pick one of the two join attributes uniformly at random.
    Random,
    /// Ask both candidate rewriters for their tuple-arrival counts and pick
    /// the attribute with the *lower* rate — fewer triggerings, less
    /// rewriting traffic (the paper's default in the experiments).
    LowestRate,
    /// Ask both candidate rewriters and pick the attribute whose observed
    /// values are more numerous/uniform — better evaluator load spread.
    MostDistinctValues,
}

impl IndexStrategy {
    /// All strategies, for the E4 comparison.
    pub const ALL: [IndexStrategy; 3] = [
        IndexStrategy::Random,
        IndexStrategy::LowestRate,
        IndexStrategy::MostDistinctValues,
    ];

    /// Display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            IndexStrategy::Random => "random",
            IndexStrategy::LowestRate => "lowest-rate",
            IndexStrategy::MostDistinctValues => "most-distinct",
        }
    }

    /// Whether the strategy requires probing the two candidate rewriters
    /// (costing network traffic) before indexing.
    pub fn probes_rewriters(&self) -> bool {
        !matches!(self, IndexStrategy::Random)
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Evaluation algorithm.
    pub algorithm: Algorithm,
    /// Number of overlay nodes.
    pub nodes: usize,
    /// SAI index-attribute choice strategy.
    pub strategy: IndexStrategy,
    /// Whether rewriters keep a Join Fingers Routing Table (Section 4.7).
    pub use_jfrt: bool,
    /// Attribute-level replication factor `k` (Section 4.7); `1` disables
    /// replication.
    pub replication: usize,
    /// Whether subscriber inboxes and offline stores retain notification
    /// *contents*. Delivery (routing, traffic, counters) always happens;
    /// large-scale experiment runs disable retention so that millions of
    /// notifications don't dominate simulator memory. Correctness tests and
    /// applications keep it on.
    pub retain_notifications: bool,
    /// DAI-V variant of Section 4.5's "natural extension": compute evaluator
    /// identifiers as `Hash(Key(q) + valJC)` instead of `Hash(valJC)`.
    /// Distributes evaluator load as well as the attribute-prefixed
    /// algorithms, but destroys rewritten-query grouping — the paper
    /// measured roughly a 250× traffic increase. Kept as an ablation knob.
    pub dai_v_keyed: bool,
    /// RNG seed for all randomized decisions (deterministic runs).
    pub seed: u64,
    /// Fault-injection and recovery knobs (message loss/duplication/delay,
    /// abrupt failures, reliable delivery, k-successor state replication).
    /// The default is fully inert — no faults, no retries, no replicas.
    pub fault: FaultConfig,
    /// In-protocol failure detection + anti-entropy repair
    /// (`engine::recovery`). Disabled by default: failures are then handled
    /// by the harness's oracle `stabilize` calls exactly as before.
    pub suspicion: SuspicionConfig,
}

impl EngineConfig {
    /// Identifier-space bits (`m`).
    pub const SPACE_BITS: u32 = 32;

    /// A small default configuration suitable for tests and examples.
    pub fn new(algorithm: Algorithm) -> Self {
        EngineConfig {
            algorithm,
            nodes: 64,
            strategy: IndexStrategy::LowestRate,
            use_jfrt: true,
            replication: 1,
            retain_notifications: true,
            dai_v_keyed: false,
            seed: 42,
            fault: FaultConfig::default(),
            suspicion: SuspicionConfig::default(),
        }
    }

    /// Enables/disables notification-content retention (see
    /// [`EngineConfig::retain_notifications`]).
    pub fn with_retained_notifications(mut self, retain: bool) -> Self {
        self.retain_notifications = retain;
        self
    }

    /// Enables the keyed DAI-V variant (see [`EngineConfig::dai_v_keyed`]).
    pub fn with_dai_v_keyed(mut self, keyed: bool) -> Self {
        self.dai_v_keyed = keyed;
        self
    }

    /// Overrides the node count.
    ///
    /// # Panics
    ///
    /// If `n` is zero: a network needs at least one node.
    pub fn with_nodes(mut self, n: usize) -> Self {
        assert!(n >= 1, "node count must be at least 1, got {n}");
        self.nodes = n;
        self
    }

    /// Overrides the strategy.
    pub fn with_strategy(mut self, s: IndexStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Enables/disables the JFRT.
    pub fn with_jfrt(mut self, on: bool) -> Self {
        self.use_jfrt = on;
        self
    }

    /// Sets the replication factor.
    pub fn with_replication(mut self, k: usize) -> Self {
        assert!(k >= 1, "replication factor must be at least 1");
        self.replication = k;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault-injection configuration (see [`FaultConfig`]).
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Sets the failure-detection configuration (see [`SuspicionConfig`]).
    pub fn with_suspicion(mut self, suspicion: SuspicionConfig) -> Self {
        self.suspicion = suspicion;
        self
    }

    /// The identifier space of [`EngineConfig::SPACE_BITS`] bits.
    pub fn space(&self) -> IdSpace {
        IdSpace::new(Self::SPACE_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_properties() {
        assert!(!Algorithm::Sai.is_double());
        assert!(Algorithm::DaiQ.is_double());
        assert!(Algorithm::DaiT.is_double());
        assert!(Algorithm::DaiV.is_double());
        assert!(Algorithm::Sai.indexes_tuples_at_value_level());
        assert!(!Algorithm::DaiV.indexes_tuples_at_value_level());
    }

    #[test]
    fn builder_chains() {
        let c = EngineConfig::new(Algorithm::Sai)
            .with_nodes(10)
            .with_jfrt(false)
            .with_replication(4)
            .with_seed(7)
            .with_fault(FaultConfig::lossy(0.1, 3));
        assert_eq!(c.nodes, 10);
        assert!(!c.use_jfrt);
        assert_eq!(c.replication, 4);
        assert_eq!(c.seed, 7);
        assert_eq!(c.fault.loss_rate, 0.1);
    }

    #[test]
    fn default_fault_config_is_inert() {
        let c = EngineConfig::new(Algorithm::Sai);
        assert!(!c.fault.is_active());
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_panics() {
        let _ = EngineConfig::new(Algorithm::Sai).with_replication(0);
    }

    #[test]
    #[should_panic(expected = "node count must be at least 1, got 0")]
    fn zero_nodes_panics() {
        let _ = EngineConfig::new(Algorithm::Sai).with_nodes(0);
    }

    #[test]
    fn strategy_probing() {
        assert!(!IndexStrategy::Random.probes_rewriters());
        assert!(IndexStrategy::LowestRate.probes_rewriters());
    }
}
