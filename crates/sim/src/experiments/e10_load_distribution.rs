//! E10 — Figure "TF and TS load distribution comparison for all algorithms"
//! (Section 5.4).
//!
//! Summarizes the per-node filtering (TF) and storage (TS) curves of the
//! four algorithms on the same workload. Expected shape: the DAI algorithms
//! distribute load over more nodes than SAI (two rewriters per query);
//! DAI-V concentrates evaluator load (identifiers built from bare values,
//! no attribute prefix) but keeps traffic lowest.

use cq_engine::Algorithm;

use super::Scale;
use crate::harness::RunConfig;
use crate::parallel::run_many;
use crate::report::{fnum, Report};
use crate::stats::DistributionSummary;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let base = scale.config(Algorithm::Sai);
    let (nodes, queries) = (base.engine.nodes, base.queries);
    let tuples = scale.pick(300, 800);
    let mut report = Report::new(
        "E10",
        &format!("TF/TS distribution, all algorithms (N={nodes}, Q={queries}, T={tuples})"),
        &[
            "algorithm",
            "TF gini",
            "TF max",
            "TF top-10%",
            "TF loaded",
            "TS gini",
            "TS max",
            "TS loaded",
        ],
    );
    let cfgs: Vec<RunConfig> = Algorithm::ALL
        .into_iter()
        .map(|alg| RunConfig {
            tuples,
            ..scale.config(alg)
        })
        .collect();
    for (alg, r) in Algorithm::ALL.into_iter().zip(run_many(&cfgs)) {
        let tf = DistributionSummary::of(&r.filtering);
        let ts = DistributionSummary::of(&r.storage);
        report.row(vec![
            alg.name().to_string(),
            fnum(tf.gini),
            fnum(tf.max),
            fnum(tf.top10),
            fnum(tf.utilization * nodes as f64),
            fnum(ts.gini),
            fnum(ts.max),
            fnum(ts.utilization * nodes as f64),
        ]);
    }
    report.note("paper: DAI algorithms spread load over more nodes than SAI; DAI-V concentrates");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dai_v_concentrates_load_on_fewer_nodes() {
        // The robust distribution claim: DAI-V hashes bare values, so far
        // fewer nodes participate and its Gini coefficient is the highest.
        let r = run(Scale::Quick);
        let col = |name: &str, i: usize| -> f64 {
            let row = (0..r.len()).find(|&j| r.cell::<String>(j, 0) == name);
            r.cell(row.unwrap(), i)
        };
        assert!(col("DAI-V", 4) < col("SAI", 4), "DAI-V loads fewer nodes");
        assert!(
            col("DAI-V", 1) > col("SAI", 1),
            "DAI-V filtering gini highest vs SAI"
        );
        assert!(
            col("DAI-V", 1) > col("DAI-T", 1),
            "DAI-V filtering gini highest vs DAI-T"
        );
    }
}
