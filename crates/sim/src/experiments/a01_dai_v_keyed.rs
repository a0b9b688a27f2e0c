//! A1 (ablation) — the keyed DAI-V variant of Section 4.5.
//!
//! The paper proposes `VIndex = Hash(Key(q) + valJC)` as a "natural
//! extension" that distributes evaluator load as well as the
//! attribute-prefixed algorithms, then rejects it: without grouping, every
//! triggered query needs its own reindex message — "approximately by a
//! factor of 250" more traffic in their 10^4-node / 10^5-query set-up.
//! This ablation reproduces the trade-off: traffic multiplies with the
//! number of co-grouped queries while the load Gini drops.

use cq_engine::{Algorithm, TrafficKind};

use super::{grid, Scale};
use crate::harness::{QuerySource, RunConfig, RunResult};
use crate::report::{fnum, Report};
use crate::stats;

/// Runs the ablation.
pub fn run(scale: Scale) -> Report {
    let sweep: Vec<usize> = scale.pick(vec![10, 40, 160], vec![100, 500, 2500]);
    let mut report = Report::new(
        "A1",
        "ablation: DAI-V vs keyed DAI-V (Hash(Key(q)+valJC))",
        &[
            "queries",
            "reindex msgs",
            "keyed reindex",
            "traffic ×",
            "gini",
            "keyed gini",
        ],
    );
    let results = grid(&sweep, &[false, true], |queries, keyed| RunConfig {
        queries,
        // Same join condition for every query — the best case for grouping
        // and therefore the worst case for the keyed variant.
        query_source: QuerySource::Fixed("SELECT R0.A0, R1.A0 FROM R0, R1 WHERE R0.A1 = R1.A1"),
        tuples: scale.pick(200, 600),
        ..scale
            .config(Algorithm::DaiV)
            .with_engine(|e| e.with_dai_v_keyed(keyed).with_seed(21))
    });
    let reindex = |r: &RunResult| r.traffic_of(TrafficKind::Reindex).messages as f64;
    let gini = |r: &RunResult| stats::gini(&r.evaluator_filtering);
    for (q, rs) in sweep.iter().zip(&results) {
        let (grouped, keyed) = (&rs[0], &rs[1]);
        report.row(vec![
            q.to_string(),
            fnum(reindex(grouped)),
            fnum(reindex(keyed)),
            fnum(reindex(keyed) / reindex(grouped).max(1.0)),
            fnum(gini(grouped)),
            fnum(gini(keyed)),
        ]);
    }
    report.note("paper: the keyed variant multiplied traffic ~250× at 10^5 queries; grouping wins");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_variant_multiplies_traffic_and_flattens_load() {
        let r = run(Scale::Quick);
        let last: Vec<f64> = (1..=5).map(|c| r.cell(r.len() - 1, c)).collect();
        let (base, keyed, factor, gini, keyed_gini) = (last[0], last[1], last[2], last[3], last[4]);
        assert!(keyed > base, "keyed {keyed} must exceed grouped {base}");
        assert!(
            factor > 10.0,
            "traffic blow-up must be dramatic, got ×{factor}"
        );
        assert!(
            keyed_gini < gini,
            "keyed variant must distribute load better"
        );
    }
}
