//! E14 — Figure "Effect in filtering load distribution of increasing the
//! network size" (Section 5.4).
//!
//! Fixed workload, growing ring. Expected shape: "when the overlay network
//! grows, query processing becomes easier since new nodes relieve other
//! nodes by taking a portion of the existing workload" — mean per-node load
//! falls roughly as 1/N while total load stays flat.

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
        "E14",
        &format!("filtering distribution vs network size (Q={queries}, T={tuples})"),
        &[
            "N",
            "SAI mean",
            "SAI loaded",
            "DAI-T mean",
            "DAI-T loaded",
            "DAI-V mean",
            "DAI-V loaded",
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
            // Mean over nodes that exist; "loaded" = nodes doing any work.
            row.push(fnum(stats::mean(&r.filtering)));
            row.push(r.filtering.iter().filter(|&&l| l > 0.0).count().to_string());
        }
        report.row(row);
    }
    report.note("paper: growing N dilutes per-node load (scalability)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_load_falls_as_network_grows() {
        let r = run(Scale::Quick);
        let (first, last): (f64, f64) = (r.cell(0, 1), r.cell(r.len() - 1, 1));
        assert!(last < first, "SAI mean load {last} !< {first} as N grew");
    }
}
