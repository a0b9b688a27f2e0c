//! E13 — Figure "Effect in filtering load distribution of increasing the
//! number of indexed queries" (Section 5.4).
//!
//! Sweeps the installed-query population and summarizes the per-node
//! filtering curve. Expected shape: more queries → more candidate checks
//! per tuple everywhere; the distribution's *shape* (gini) stays roughly
//! stable because new queries land on the same hashed rewriters/evaluators.

use cq_engine::Algorithm;

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let nodes = scale.config(Algorithm::Sai).engine.nodes;
    let tuples = scale.pick(300, 800);
    let sweep: Vec<usize> = scale.pick(vec![20, 60, 120, 240], vec![1000, 2500, 5000, 10_000]);
    let mut report = Report::new(
        "E13",
        &format!("filtering distribution vs installed queries (N={nodes}, T={tuples})"),
        &[
            "queries",
            "SAI gini",
            "SAI TF",
            "DAI-T gini",
            "DAI-T TF",
            "DAI-V gini",
            "DAI-V TF",
        ],
    );
    let algs = [Algorithm::Sai, Algorithm::DaiT, Algorithm::DaiV];
    let results = grid(&sweep, &algs, |queries, alg| RunConfig {
        queries,
        tuples,
        ..scale.config(alg)
    });
    for (q, rs) in sweep.iter().zip(&results) {
        let mut row = vec![q.to_string()];
        for r in rs {
            row.push(fnum(stats::gini(&r.filtering)));
            row.push(fnum(r.total_filtering()));
        }
        report.row(row);
    }
    report.note("paper: TF grows with the query population; distribution stays graceful");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_filtering_grows_with_queries() {
        let r = run(Scale::Quick);
        assert!(
            r.cell::<f64>(r.len() - 1, 2) > r.cell(0, 2),
            "SAI TF must grow"
        );
    }
}
