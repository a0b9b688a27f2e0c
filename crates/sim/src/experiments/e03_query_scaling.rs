//! E3 — Figure "Effect of the number of indexed queries in network traffic"
//! (Section 5.2.2).
//!
//! Sweeps the number of installed queries and measures hops per inserted
//! tuple for each algorithm. Expected shape: traffic grows with the query
//! population (more triggerings → more rewritten queries and more delivered
//! notifications), sublinearly thanks to grouping; DAI-T grows slowest —
//! after its rewritten queries are distributed, repeated values cost no
//! reindexing and duplicate-content notifications are suppressed by key.

use cq_engine::Algorithm;

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let nodes = scale.config(Algorithm::Sai).engine.nodes;
    let tuples = scale.pick(200, 800);
    let sweep: Vec<usize> = scale.pick(vec![20, 60, 120, 240], vec![1000, 2500, 5000, 10_000]);
    let mut report = Report::new(
        "E3",
        &format!("hops per tuple vs installed queries (N={nodes}, T={tuples})"),
        &["queries", "SAI", "DAI-Q", "DAI-T", "DAI-V"],
    );
    let results = grid(&sweep, &Algorithm::ALL, |queries, alg| RunConfig {
        queries,
        tuples,
        ..scale.config(alg)
    });
    for (q, rs) in sweep.iter().zip(&results) {
        let mut row = vec![q.to_string()];
        row.extend(rs.iter().map(|r| fnum(r.hops_per_tuple())));
        report.row(row);
    }
    report.note("paper: traffic rises with queries; DAI-T flattest (reindex + notification dedup)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_grows_with_queries() {
        let r = run(Scale::Quick);
        // SAI traffic at the largest sweep point exceeds the smallest.
        assert!(r.cell::<f64>(r.len() - 1, 1) > r.cell(0, 1));
    }
}
