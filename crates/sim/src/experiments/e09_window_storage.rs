//! E9 — Figure "Effect of window size and installed queries in total
//! evaluator storage load" (Section 5.4).
//!
//! Companion of E8 for storage: the number of value-level items (rewritten
//! queries, tuples) evaluators hold after the window. Expected shape:
//! DAI-Q stores only tuples (grows with the window, independent of
//! queries); DAI-T stores only rewritten queries from *both* rewriters
//! (≈ 2× SAI's rewritten-query volume, growing with the query population);
//! SAI stores tuples *plus* its single rewriter's rewritten queries, so it
//! always exceeds DAI-Q on the same stream.

use super::e08_window_filter::window_sweep;
use super::Scale;
use crate::harness::RunResult;
use crate::report::Report;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    window_sweep(
        scale,
        "E9",
        "storage",
        RunResult::total_evaluator_storage,
        "paper: SAI stores rewritten queries AND tuples; DAI-Q tuples; DAI-T queries",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_decomposition_matches_algorithm_semantics() {
        let r = run(Scale::Quick);
        let last: Vec<f64> = (1..=4).map(|c| r.cell(r.len() - 1, c)).collect();
        // Columns per Q block: SAI, DAI-Q, DAI-T, DAI-V.
        assert!(
            last[0] > last[1],
            "SAI (tuples + rewrites) must exceed DAI-Q (tuples only)"
        );
        assert!(last[2] > 0.0, "DAI-T must store rewritten queries");
        // DAI-T stores rewrites from two rewriters; SAI's rewrites come from
        // one. DAI-T's query-driven storage must exceed SAI's minus the
        // shared tuple storage (= DAI-Q's column).
        assert!(
            last[2] > last[0] - last[1],
            "DAI-T rewrites ≈ 2× SAI rewrites"
        );
    }
}
