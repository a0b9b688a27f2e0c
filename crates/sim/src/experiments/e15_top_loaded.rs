//! E15 — Figure "Effect in filtering load distribution of increasing the
//! network size for the most loaded nodes" (Section 5.4).
//!
//! The hot-spot view of E14: how the most-loaded nodes' filtering loads
//! evolve as the ring grows. Expected shape: the hottest *rewriters* are
//! pinned to `Hash(R + A)` regardless of N, so the very top of the curve
//! falls slowly — growing the network helps the median much more than the
//! maximum (this is what motivates the Section 4.7 replication scheme).

use cq_engine::Algorithm;

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let queries = scale.config(Algorithm::Sai).queries;
    let tuples = scale.pick(300, 800);
    let sizes: Vec<usize> = scale.pick(vec![64, 128, 256, 512], vec![1000, 2500, 5000]);
    let mut report = Report::new(
        "E15",
        &format!("most-loaded nodes vs network size (Q={queries}, T={tuples})"),
        &[
            "N",
            "SAI max",
            "SAI p99",
            "DAI-T max",
            "DAI-T p99",
            "DAI-V max",
            "DAI-V p99",
        ],
    );
    let algs = [Algorithm::Sai, Algorithm::DaiT, Algorithm::DaiV];
    let results = grid(&sizes, &algs, |nodes, alg| RunConfig {
        tuples,
        ..scale.config(alg).with_engine(|e| e.with_nodes(nodes))
    });
    for (n, rs) in sizes.iter().zip(&results) {
        let mut row = vec![n.to_string()];
        for r in rs {
            row.push(fnum(stats::max(&r.filtering)));
            row.push(fnum(stats::percentile(&r.filtering, 99.0)));
        }
        report.row(row);
    }
    report.note("paper: the hottest rewriters shrink much slower than the median as N grows");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_a_row_per_network_size() {
        let r = run(Scale::Quick);
        assert_eq!(r.len(), 4);
        // Max loads stay positive at every size.
        for i in 0..r.len() {
            assert!(r.cell::<f64>(i, 1) > 0.0);
        }
    }
}
