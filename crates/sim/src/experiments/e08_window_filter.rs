//! E8 — Figure "Effect of window size and installed queries in total
//! evaluator filtering load" (Section 5.4).
//!
//! Sweeps the tuple-window size for two query populations and reports the
//! total evaluator-side filtering load (`TF` restricted to the value level).
//! Expected shape: load grows with both the window and the query count —
//! "when the rate of incoming tuples in a given time window increases, a
//! higher amount of installed queries will be triggered".

use cq_engine::Algorithm;

use super::{grid, Scale};
use crate::harness::{RunConfig, RunResult};
use crate::report::{fnum, Report};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    window_sweep(
        scale,
        "E8",
        "filtering",
        RunResult::total_evaluator_filtering,
        "paper: evaluator filtering load grows with the window and with installed queries",
    )
}

/// The window × query-population sweep E8 and E9 share: one row per window
/// size, one column per (population, algorithm), each cell `load`'s total.
pub(super) fn window_sweep(
    scale: Scale,
    id: &str,
    load_word: &str,
    load: fn(&RunResult) -> f64,
    note: &str,
) -> Report {
    let nodes = scale.config(Algorithm::Sai).engine.nodes;
    let windows: Vec<usize> = scale.pick(vec![100, 200, 400], vec![500, 1000, 2000]);
    let query_pops: Vec<usize> = scale.pick(vec![20, 80], vec![1000, 4000]);
    let variants: Vec<(usize, Algorithm)> = query_pops
        .iter()
        .flat_map(|&q| Algorithm::ALL.map(|alg| (q, alg)))
        .collect();
    let mut headers = vec!["window".to_string()];
    headers.extend(
        variants
            .iter()
            .map(|(q, alg)| format!("{} Q={q}", alg.name())),
    );
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        id,
        &format!("total evaluator {load_word} load vs window size (N={nodes})"),
        &headers_ref,
    );
    let results = grid(&windows, &variants, |tuples, (queries, alg)| RunConfig {
        queries,
        tuples,
        ..scale.config(alg)
    });
    for (w, rs) in windows.iter().zip(&results) {
        let mut row = vec![w.to_string()];
        row.extend(rs.iter().map(|r| fnum(load(r))));
        report.row(row);
    }
    report.note(note);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_grows_with_window() {
        let r = run(Scale::Quick);
        // SAI at Q=20: largest window ≥ smallest window.
        assert!(r.cell::<f64>(r.len() - 1, 1) >= r.cell(0, 1));
    }
}
