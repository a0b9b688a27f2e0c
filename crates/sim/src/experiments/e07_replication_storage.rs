//! E7 — Figure "Effect of the replication scheme in storage load
//! distribution" (Section 5.3).
//!
//! The flip side of E6: every query is stored at all `k` replicas, so total
//! attribute-level storage grows ~k-fold while per-node peaks stay bounded.
//! Expected shape: total query storage scales with k; the per-node storage
//! curve spreads over more nodes.

use cq_engine::Algorithm;

use super::Scale;
use crate::harness::RunConfig;
use crate::parallel::run_many;
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let base = scale.config(Algorithm::Sai);
    let (nodes, queries) = (base.engine.nodes, base.queries);
    let tuples = scale.pick(200, 800);
    let mut report = Report::new(
        "E7",
        &format!("storage-load distribution vs replication k (SAI, N={nodes}, Q={queries})"),
        &["k", "total storage", "max node", "gini", "nodes storing"],
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
        report.row(vec![
            k.to_string(),
            fnum(r.total_storage()),
            fnum(stats::max(&r.storage)),
            fnum(stats::gini(&r.storage)),
            r.storage.iter().filter(|&&l| l > 0.0).count().to_string(),
        ]);
    }
    report.note("paper: replication trades extra (replicated) storage for filtering balance");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_grows_total_storage() {
        let r = run(Scale::Quick);
        let totals: Vec<f64> = (0..r.len()).map(|i| r.cell(i, 1)).collect();
        assert!(
            totals[3] > totals[0],
            "k=8 total {} !> k=1 total {}",
            totals[3],
            totals[0]
        );
    }
}
