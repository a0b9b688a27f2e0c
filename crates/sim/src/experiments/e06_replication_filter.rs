//! E6 — Figure "Effect of the replication scheme in filtering load
//! distribution" (Section 5.3).
//!
//! Replicates each attribute-level rewriter on `k` nodes; queries are
//! indexed at every replica while each tuple visits exactly one (chosen by
//! value hash). Expected shape: the most-loaded rewriters' filtering load
//! drops ~k-fold and the Gini coefficient falls as `k` grows.

use cq_engine::Algorithm;

use super::Scale;
use crate::harness::RunConfig;
use crate::parallel::run_many;
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let nodes = scale.config(Algorithm::Sai).engine.nodes;
    let tuples = scale.pick(300, 800);
    let mut report = Report::new(
        "E6",
        &format!("rewriter filtering-load distribution vs replication k (SAI, N={nodes})"),
        &["k", "max load", "top-1% share", "gini", "loaded nodes"],
    );
    let ks = [1usize, 2, 4, 8];
    let cfgs: Vec<RunConfig> = ks
        .into_iter()
        .map(|k| RunConfig {
            tuples,
            ..scale
                .config(Algorithm::Sai)
                .with_engine(|e| e.with_replication(k))
        })
        .collect();
    for (k, r) in ks.into_iter().zip(run_many(&cfgs)) {
        let loads = &r.rewriter_filtering;
        report.row(vec![
            k.to_string(),
            fnum(stats::max(loads)),
            fnum(stats::top_share(loads, 0.01)),
            fnum(stats::gini(loads)),
            loads.iter().filter(|&&l| l > 0.0).count().to_string(),
        ]);
    }
    report.note("paper: replication flattens the rewriters' filtering-load curve");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_reduces_max_rewriter_load() {
        let r = run(Scale::Quick);
        let (max_k1, max_k8): (f64, f64) = (r.cell(0, 1), r.cell(3, 1));
        assert!(
            max_k8 < max_k1,
            "k=8 max load {max_k8} must be below k=1 max load {max_k1}"
        );
        let (loaded_k1, loaded_k8): (usize, usize) = (r.cell(0, 4), r.cell(3, 4));
        assert!(
            loaded_k8 > loaded_k1,
            "replication spreads the role over more nodes"
        );
    }
}
