//! A1 (ablation) — the keyed DAI-V variant of Section 4.5.
//!
//! The paper proposes `VIndex = Hash(Key(q) + valJC)` as a "natural
//! extension" that distributes evaluator load as well as the
//! attribute-prefixed algorithms, then rejects it: without grouping, every
//! triggered query needs its own reindex message — "approximately by a
//! factor of 250" more traffic in their 10^4-node / 10^5-query set-up.
//! This ablation reproduces the trade-off: traffic multiplies with the
//! number of co-grouped queries while the load Gini drops.

use cq_engine::{Algorithm, EngineConfig, Network, TrafficKind};
use cq_workload::{Workload, WorkloadConfig};

use super::Scale;
use crate::report::{fnum, Report};
use crate::stats;

fn run_variant(scale: Scale, keyed: bool, queries: usize) -> (f64, f64) {
    let base = scale.config(Algorithm::DaiV);
    let tuples = scale.pick(200, 600);
    let mut w = Workload::new(WorkloadConfig {
        seed: 21,
        ..base.workload
    });
    let mut net = Network::new(
        EngineConfig::new(Algorithm::DaiV)
            .with_nodes(base.nodes)
            .with_dai_v_keyed(keyed)
            .with_seed(21),
        w.catalog().clone(),
    );
    // Same join condition for every query — the best case for grouping and
    // therefore the worst case for the keyed variant.
    for _ in 0..queries {
        let poser = net.random_node();
        net.pose_query_sql(poser, "SELECT R0.A0, R1.A0 FROM R0, R1 WHERE R0.A1 = R1.A1")
            .unwrap();
    }
    net.reset_metrics();
    for _ in 0..tuples {
        let rel = w.next_stream_relation();
        let vals = w.random_tuple_values();
        let from = net.random_node();
        net.insert_tuple(from, &rel, vals).unwrap();
    }
    let reindex = net.metrics().traffic(TrafficKind::Reindex).messages as f64;
    let loads: Vec<f64> = net
        .metrics()
        .loads()
        .iter()
        .map(|l| l.evaluator_filtering as f64)
        .collect();
    (reindex, stats::gini(&loads))
}

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
    for &q in &sweep {
        let (base_msgs, base_gini) = run_variant(scale, false, q);
        let (keyed_msgs, keyed_gini) = run_variant(scale, true, q);
        report.row(vec![
            q.to_string(),
            fnum(base_msgs),
            fnum(keyed_msgs),
            fnum(keyed_msgs / base_msgs.max(1.0)),
            fnum(base_gini),
            fnum(keyed_gini),
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
