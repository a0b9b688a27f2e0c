//! E5 — Figure "Effect of varying the bos ratio" (Section 5.2.4).
//!
//! The *bos* ratio biases the arrival rates of the two joined relations
//! (0.5 = balanced, 0.9 = R0 gets 9× R1's tuples — see DESIGN.md,
//! "Substitutions"). Expected shape: the rate-based choice beats random at
//! every ratio (queries sit on the cold side, so far fewer triggerings).
//! Absolute traffic falls for *both* strategies as the bias grows, because
//! completed join pairs — and with them notification traffic — scale with
//! rate(R0)·rate(R1), which a skewed split shrinks.

use cq_engine::{Algorithm, IndexStrategy};
use cq_workload::WorkloadConfig;

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let base = scale.config(Algorithm::Sai);
    let (nodes, queries) = (base.engine.nodes, base.queries);
    let tuples = scale.pick(300, 800);
    let warmup = scale.pick(150, 400);
    let ratios = [0.5, 0.6, 0.7, 0.8, 0.9];
    let mut report = Report::new(
        "E5",
        &format!("SAI hops per tuple vs bos ratio (N={nodes}, Q={queries})"),
        &["bos", "random", "lowest-rate", "gap %"],
    );
    let strategies = [IndexStrategy::Random, IndexStrategy::LowestRate];
    let results = grid(&ratios, &strategies, |bos_ratio, strategy| RunConfig {
        tuples,
        warmup_tuples: warmup,
        workload: WorkloadConfig {
            bos_ratio,
            ..scale.config(Algorithm::Sai).workload
        },
        ..scale
            .config(Algorithm::Sai)
            .with_engine(|e| e.with_strategy(strategy))
    });
    for (bos, rs) in ratios.iter().zip(&results) {
        let hops = [rs[0].hops_per_tuple(), rs[1].hops_per_tuple()];
        let gap = if hops[0] > 0.0 {
            100.0 * (hops[0] - hops[1]) / hops[0]
        } else {
            0.0
        };
        report.row(vec![
            format!("{bos:.1}"),
            fnum(hops[0]),
            fnum(hops[1]),
            fnum(gap),
        ]);
    }
    report.note("paper: index by the lower-rate attribute; wins at every ratio here");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_based_wins_at_high_bias() {
        let r = run(Scale::Quick);
        let last = r.len() - 1;
        let (random, lowest): (f64, f64) = (r.cell(last, 1), r.cell(last, 2));
        assert!(
            lowest <= random,
            "at bos=0.9 lowest-rate ({lowest}) must not exceed random ({random})"
        );
    }
}
