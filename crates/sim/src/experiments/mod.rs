//! One module per reproduced figure/table (ids from DESIGN.md).
//!
//! Every experiment exposes `run(scale) -> Report`. `Scale::Quick` finishes
//! in milliseconds-to-seconds (used by tests, the golden check and the
//! `ledger` binary's per-experiment walls); `Scale::Full` approaches the
//! paper's set-up (used by the `experiments` binary that fills
//! EXPERIMENTS.md).
//!
//! The figures sweep one parameter around one common set-up,
//! [`Scale::config`], and run every point × variant sweep through [`grid`].

pub mod a01_dai_v_keyed;
pub mod e01_multisend;
pub mod e02_traffic_jfrt;
pub mod e03_query_scaling;
pub mod e04_strategy;
pub mod e05_bos_ratio;
pub mod e06_replication_filter;
pub mod e07_replication_storage;
pub mod e08_window_filter;
pub mod e09_window_storage;
pub mod e10_load_distribution;
pub mod e11_totals;
pub mod e12_tuple_rate;
pub mod e13_query_count;
pub mod e14_network_size;
pub mod e15_top_loaded;
pub mod e16_dai_v;
pub mod ef01_faults;
pub mod ef02_churn;
pub mod t01_comparison;

use cq_engine::Algorithm;
use cq_workload::WorkloadConfig;

use crate::harness::{RunConfig, RunResult};
use crate::parallel::run_many;
use crate::report::Report;

/// An experiment entry point: builds its report at the given scale.
pub type ExperimentFn = fn(Scale) -> Report;

/// How big an experiment run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Milliseconds-to-seconds versions for tests and the ledger.
    Quick,
    /// Paper-approaching versions for the experiments binary.
    Full,
}

impl Scale {
    /// Selects a parameter by scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// The set-up every Chapter 5 figure varies one parameter around, on
    /// top of [`RunConfig::new`]: an engine of N = 128 / 1 024 nodes,
    /// Q = 60 / 5 000 installed pair queries and a value domain of
    /// 40 / 400. A figure varies an engine knob with
    /// [`RunConfig::with_engine`].
    pub fn config(self, algorithm: Algorithm) -> RunConfig {
        RunConfig {
            queries: self.pick(60, 5000),
            workload: WorkloadConfig {
                domain: self.pick(40, 400),
                ..WorkloadConfig::default()
            },
            ..RunConfig::new(algorithm).with_engine(|e| e.with_nodes(self.pick(128, 1024)))
        }
    }
}

/// Runs `cfg(point, variant)` for every point × variant in one
/// [`run_many`] batch, and returns each point's results in variant order.
pub fn grid<P: Copy, V: Copy>(
    points: &[P],
    variants: &[V],
    cfg: impl Fn(P, V) -> RunConfig,
) -> Vec<Vec<RunResult>> {
    let cfgs: Vec<RunConfig> = points
        .iter()
        .flat_map(|&p| variants.iter().map(move |&v| (p, v)))
        .map(|(p, v)| cfg(p, v))
        .collect();
    let mut results = run_many(&cfgs).into_iter();
    points
        .iter()
        .map(|_| results.by_ref().take(variants.len()).collect())
        .collect()
}

/// The registry of all experiments, in paper order.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("e01", e01_multisend::run as ExperimentFn),
        ("e02", e02_traffic_jfrt::run),
        ("e03", e03_query_scaling::run),
        ("e04", e04_strategy::run),
        ("e05", e05_bos_ratio::run),
        ("e06", e06_replication_filter::run),
        ("e07", e07_replication_storage::run),
        ("e08", e08_window_filter::run),
        ("e09", e09_window_storage::run),
        ("e10", e10_load_distribution::run),
        ("e11", e11_totals::run),
        ("e12", e12_tuple_rate::run),
        ("e13", e13_query_count::run),
        ("e14", e14_network_size::run),
        ("e15", e15_top_loaded::run),
        ("e16", e16_dai_v::run),
        ("t01", t01_comparison::run),
        ("a01", a01_dai_v_keyed::run),
        ("ef01", ef01_faults::run),
        ("ef02", ef02_churn::run),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_figure_and_table() {
        // 16 experiment figures + Table 4.1 + the keyed-DAI-V ablation +
        // the fault-tolerance and churn-recovery extensions.
        assert_eq!(all().len(), 20);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
