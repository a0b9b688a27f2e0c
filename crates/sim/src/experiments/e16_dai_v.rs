//! E16 — Figure "Effect in filtering load distribution of DAI-V of
//! increasing the network size, queries or tuples" (Section 5.4).
//!
//! DAI-V's sensitivity sweeps on type-T2 workloads (the class only it can
//! evaluate). Expected shape: per-node load dilutes with N, grows with
//! queries and tuples; evaluator load is concentrated on the nodes owning
//! popular join-condition values (no attribute prefix in the identifier).

use cq_engine::Algorithm;

use super::Scale;
use crate::harness::{QuerySource, RunConfig};
use crate::parallel::run_many;
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let base = RunConfig {
        queries: scale.pick(40, 2000),
        tuples: scale.pick(200, 600),
        query_source: QuerySource::T2,
        ..scale.config(Algorithm::DaiV)
    };
    let mut report = Report::new(
        "E16",
        "DAI-V (T2 queries): filtering distribution sweeps",
        &["sweep", "value", "mean", "max", "gini"],
    );
    let n_sweep = scale.pick(vec![64, 128, 256], vec![1000, 2500, 5000]);
    let q_sweep = scale.pick(vec![20, 40, 80], vec![1000, 4000, 8000]);
    let t_sweep = scale.pick(vec![100, 200, 400], vec![500, 1000, 2000]);
    let mut points = Vec::new();
    let mut cfgs = Vec::new();
    for &nodes in &n_sweep {
        points.push(("N", nodes));
        cfgs.push(base.clone().with_engine(|e| e.with_nodes(nodes)));
    }
    for &queries in &q_sweep {
        points.push(("queries", queries));
        cfgs.push(RunConfig {
            queries,
            ..base.clone()
        });
    }
    for &tuples in &t_sweep {
        points.push(("tuples", tuples));
        cfgs.push(RunConfig {
            tuples,
            ..base.clone()
        });
    }
    for ((sweep, value), r) in points.into_iter().zip(run_many(&cfgs)) {
        report.row(vec![
            sweep.into(),
            value.to_string(),
            fnum(stats::mean(&r.filtering)),
            fnum(stats::max(&r.filtering)),
            fnum(stats::gini(&r.filtering)),
        ]);
    }
    report.note("paper: DAI-V scales with N/queries/tuples but concentrates on hot values");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_behave_monotonically_at_the_ends() {
        let r = run(Scale::Quick);
        let rows_of = |sweep: &str| -> Vec<usize> {
            (0..r.len())
                .filter(|&i| r.cell::<String>(i, 0) == sweep)
                .collect()
        };
        let (n_rows, t_rows) = (rows_of("N"), rows_of("tuples"));
        let mean_small: f64 = r.cell(n_rows[0], 2);
        let mean_big: f64 = r.cell(*n_rows.last().unwrap(), 2);
        assert!(mean_big <= mean_small, "mean load must dilute with N");
        let max_low: f64 = r.cell(t_rows[0], 3);
        let max_high: f64 = r.cell(*t_rows.last().unwrap(), 3);
        assert!(max_high >= max_low, "load must grow with the tuple rate");
    }
}
