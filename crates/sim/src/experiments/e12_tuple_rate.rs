//! E12 — Figure "Effect in filtering load distribution of increasing the
//! frequency of incoming tuples" (Section 5.4).
//!
//! Sweeps the number of tuples streamed in the window and summarizes the
//! per-node filtering-load curve. Expected shape: total load grows with the
//! rate while the *distribution* stays graceful — "our algorithms manage to
//! distribute the query answering load gracefully among existing nodes".

use cq_engine::Algorithm;

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let base = scale.config(Algorithm::Sai);
    let (nodes, queries) = (base.engine.nodes, base.queries);
    let rates: Vec<usize> = scale.pick(vec![100, 200, 400, 800], vec![500, 1000, 2000]);
    let mut report = Report::new(
        "E12",
        &format!("filtering distribution vs tuple rate (N={nodes}, Q={queries})"),
        &[
            "tuples",
            "SAI gini",
            "SAI max",
            "DAI-T gini",
            "DAI-T max",
            "DAI-V gini",
            "DAI-V max",
        ],
    );
    let algs = [Algorithm::Sai, Algorithm::DaiT, Algorithm::DaiV];
    let results = grid(&rates, &algs, |tuples, alg| RunConfig {
        tuples,
        ..scale.config(alg)
    });
    for (t, rs) in rates.iter().zip(&results) {
        let mut row = vec![t.to_string()];
        for r in rs {
            row.push(fnum(stats::gini(&r.filtering)));
            row.push(fnum(stats::max(&r.filtering)));
        }
        report.row(row);
    }
    report.note("paper: load grows with the rate but stays distributed; DAI-V most concentrated");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_load_grows_with_rate() {
        let r = run(Scale::Quick);
        // SAI max at highest rate > at lowest rate.
        assert!(r.cell::<f64>(r.len() - 1, 2) > r.cell(0, 2));
    }
}
