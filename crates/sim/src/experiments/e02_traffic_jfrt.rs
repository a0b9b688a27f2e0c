//! E2 — Figure "Traffic cost and JFRT effect" (Section 5.2.1).
//!
//! Measures the overlay hops consumed per inserted tuple, isolating the
//! *reindex* category the Join Fingers Routing Table acts on (total traffic
//! additionally contains tuple indexing and notification delivery, which the
//! JFRT does not touch). Expected shape: with the JFRT warm, every repeated
//! reindex target costs one hop instead of O(log N), cutting reindex hops by
//! roughly the log-factor; DAI-T sends the fewest reindex messages (each
//! rewritten query at most once).

use cq_engine::{Algorithm, TrafficKind};

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let tuples = scale.pick(250, 800);
    let base = scale.config(Algorithm::Sai);
    let (nodes, queries) = (base.engine.nodes, base.queries);
    let mut report = Report::new(
        "E2",
        &format!("reindex hops per tuple, JFRT on/off (N={nodes}, Q={queries}, T={tuples})"),
        &[
            "algorithm",
            "reindex/t no JFRT",
            "reindex/t JFRT",
            "saving %",
            "reindex msgs",
            "total hops/t",
        ],
    );
    let results = grid(&Algorithm::ALL, &[false, true], |alg, use_jfrt| RunConfig {
        tuples,
        ..scale.config(alg).with_engine(|e| e.with_jfrt(use_jfrt))
    });
    for (alg, r) in Algorithm::ALL.into_iter().zip(&results) {
        let (off, on) = (&r[0], &r[1]);
        let reindex = [
            off.traffic_of(TrafficKind::Reindex).hops as f64 / tuples as f64,
            on.traffic_of(TrafficKind::Reindex).hops as f64 / tuples as f64,
        ];
        let reindex_msgs = on.traffic_of(TrafficKind::Reindex).messages;
        let total = on.hops_per_tuple();
        let saving = if reindex[0] > 0.0 {
            100.0 * (reindex[0] - reindex[1]) / reindex[0]
        } else {
            0.0
        };
        report.row(vec![
            alg.name().to_string(),
            fnum(reindex[0]),
            fnum(reindex[1]),
            fnum(saving),
            reindex_msgs.to_string(),
            fnum(total),
        ]);
    }
    report.note("JFRT turns repeated O(log N) reindex lookups into 1 hop");
    report.note("DAI-T reindexes each rewritten query once; totals are notification-dominated");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jfrt_reduces_reindex_hops_for_every_algorithm() {
        let r = run(Scale::Quick);
        assert_eq!(r.len(), 4);
        for i in 0..r.len() {
            let (off, on): (f64, f64) = (r.cell(i, 1), r.cell(i, 2));
            assert!(on < off, "row {i}: JFRT must cut reindex hops");
            let saving: f64 = r.cell(i, 3);
            assert!(
                saving > 20.0,
                "row {i}: saving should be substantial, got {saving}%"
            );
        }
    }
}
