//! E4 — Figure "Comparison of the various index attribute selection
//! strategies in SAI" (Section 5.2.3).
//!
//! With a biased stream (`bos = 0.8`: relation R0 receives 4× the tuples of
//! R1), an SAI query indexed on the R0 side is rewritten four times as
//! often. The rate-based strategy probes the two candidate rewriters and
//! picks the colder side. Expected shape: lowest-rate < random in hops per
//! tuple; most-distinct optimizes distribution, not traffic.

use cq_engine::{Algorithm, IndexStrategy, TrafficKind};
use cq_workload::WorkloadConfig;

use super::Scale;
use crate::harness::RunConfig;
use crate::parallel::run_many;
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let base = scale.config(Algorithm::Sai);
    let (nodes, queries) = (base.engine.nodes, base.queries);
    let tuples = scale.pick(300, 800);
    let warmup = scale.pick(150, 400);
    let mut report = Report::new(
        "E4",
        &format!("SAI index-attribute strategies (N={nodes}, Q={queries}, bos=0.8)"),
        &["strategy", "hops/tuple", "probe msgs", "evaluator gini"],
    );
    let cfgs: Vec<RunConfig> = IndexStrategy::ALL
        .into_iter()
        .map(|strategy| RunConfig {
            tuples,
            warmup_tuples: warmup,
            workload: WorkloadConfig {
                bos_ratio: 0.8,
                ..scale.config(Algorithm::Sai).workload
            },
            ..scale
                .config(Algorithm::Sai)
                .with_engine(|e| e.with_strategy(strategy))
        })
        .collect();
    for (strategy, r) in IndexStrategy::ALL.into_iter().zip(run_many(&cfgs)) {
        report.row(vec![
            strategy.name().to_string(),
            fnum(r.hops_per_tuple()),
            r.install_traffic_of(TrafficKind::Probe)
                .messages
                .to_string(),
            fnum(stats::gini(&r.evaluator_filtering)),
        ]);
    }
    report.note("paper: choose the attribute with the lower tuple-arrival rate to cut traffic");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_rate_beats_random_on_biased_streams() {
        let r = run(Scale::Quick);
        let hops: std::collections::HashMap<String, f64> =
            (0..r.len()).map(|i| (r.cell(i, 0), r.cell(i, 1))).collect();
        assert!(
            hops["lowest-rate"] <= hops["random"],
            "lowest-rate {} should not exceed random {}",
            hops["lowest-rate"],
            hops["random"]
        );
    }
}
