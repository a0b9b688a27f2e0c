//! EF1 — Fault tolerance: notification recall under message loss and
//! abrupt node failures (robustness extension, not a paper figure).
//!
//! Sweeps message-loss rate × abrupt-failure count × replication factor
//! `k` for all four algorithms. With reliable delivery (acks +
//! retransmissions) recall must survive any loss rate; with `k`-successor
//! state replication it must also survive node failures. The report shows
//! recall against the brute-force oracle plus the robustness layer's own
//! cost: retransmission traffic, duplicate suppression and recovery
//! (replica/promotion) work.

use cq_engine::{Algorithm, FaultConfig};

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};

/// The swept fault scenarios: `(loss rate, failures, replication k)`.
const SCENARIOS: [(f64, usize, usize); 5] = [
    (0.0, 0, 0), // baseline: no faults
    (0.2, 0, 0), // lossy channel, reliable delivery only
    (0.0, 2, 0), // failures without redundancy
    (0.0, 2, 2), // failures with k=2 replication
    (0.2, 2, 2), // both at once
];

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let nodes = scale.pick(32, 128);
    let queries = scale.pick(10, 40);
    let tuples = scale.pick(100, 400);
    let mut report = Report::new(
        "EF1",
        &format!("notification recall under loss and abrupt failures (N={nodes})"),
        &[
            "algorithm",
            "loss",
            "failures",
            "k",
            "recall",
            "expected",
            "lost msgs",
            "retransmits",
            "dedup",
            "promoted",
            "replica msgs",
        ],
    );
    let results = grid(&Algorithm::ALL, &SCENARIOS, |alg, (loss, failures, k)| {
        let mut fault = if loss > 0.0 {
            FaultConfig::lossy(loss, 0xFA01)
        } else {
            FaultConfig::default()
        };
        fault.replication = k;
        RunConfig {
            queries,
            tuples,
            failures,
            ..RunConfig::new(alg).with_engine(|e| {
                e.with_nodes(nodes)
                    .with_fault(fault)
                    .with_retained_notifications(true)
            })
        }
    });
    for (alg, rs) in Algorithm::ALL.into_iter().zip(&results) {
        for ((loss, failures, k), r) in SCENARIOS.into_iter().zip(rs) {
            report.row(vec![
                alg.to_string(),
                fnum(loss),
                failures.to_string(),
                k.to_string(),
                fnum(r.recall),
                r.expected_notifications.to_string(),
                r.faults.messages_lost.to_string(),
                r.faults.retransmissions.to_string(),
                r.faults.dedup_suppressed.to_string(),
                r.faults.replicas_promoted.to_string(),
                r.faults.replica_messages.to_string(),
            ]);
        }
    }
    report.note("reliable delivery keeps recall at 1.0 under pure message loss");
    report.note("k-successor replication recovers state lost to abrupt failures");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_only_scenarios_reach_full_recall() {
        let r = run(Scale::Quick);
        assert_eq!(r.len(), 4 * SCENARIOS.len());
        for i in 0..r.len() {
            let failures: usize = r.cell(i, 2);
            let recall: f64 = r.cell(i, 4);
            if failures == 0 {
                assert!(
                    (recall - 1.0).abs() < 1e-9,
                    "{} loss={} must reach recall 1.0, got {recall}",
                    r.cell::<String>(i, 0),
                    r.cell::<String>(i, 1)
                );
            }
        }
        // Replication never hurts: for each (algorithm, loss) pair with
        // failures, recall at k=2 is at least recall at k=0.
        for w in (0..r.len()).step_by(SCENARIOS.len()) {
            let (k0, k2): (f64, f64) = (r.cell(w + 2, 4), r.cell(w + 3, 4));
            assert!(
                k2 >= k0 - 1e-9,
                "{}: recall k=2 ({k2}) below k=0 ({k0})",
                r.cell::<String>(w, 0)
            );
        }
    }
}
