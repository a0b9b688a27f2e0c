//! EF2 — Churn-hardened recovery: detection timeouts vs trace-driven churn
//! (robustness extension, not a paper figure).
//!
//! Sweeps the churn model (in-pump rate-driven failures, plus log-normal
//! and Weibull session-length churn as measurement studies report for
//! peer-to-peer populations) against the failure detector (the oracle
//! baseline that repairs the instant a node dies, and the in-protocol
//! heartbeat/suspicion detector at an aggressive and a patient timeout).
//! Every run combines churn with a 20% lossy channel and `k = 2` successor
//! replication. The report shows recall against the brute-force oracle —
//! overall and restricted to tuples published outside detection windows —
//! plus the detector's cost: time-to-detect, time-to-repair, anti-entropy
//! repair bytes and messages swallowed by undetected failures.

use cq_engine::{Algorithm, ChurnModel, FaultConfig, SessionDist, SuspicionConfig};

use super::{grid, Scale};
use crate::harness::RunConfig;
use crate::report::{fnum, Report};

/// The two algorithms the sweep contrasts (one single-index, one
/// double-index; the full four-way comparison lives in EF1).
const ALGS: [Algorithm; 2] = [Algorithm::Sai, Algorithm::DaiT];

/// Swept churn models, by report label.
const CHURNS: [&str; 3] = ["rate", "lognormal", "weibull"];

/// Swept detectors: report label and suspicion timeout in pump ticks
/// (`None` = the oracle baseline, repairs on the failure tick).
const DETECTORS: [(&str, Option<u64>); 3] =
    [("oracle", None), ("fast", Some(4)), ("patient", Some(12))];

/// The fault profile of one churn scenario: a 20% lossy channel with
/// reliable delivery and `k = 2` replication, plus the named churn model.
fn fault_for(churn: &str, max_events: usize) -> FaultConfig {
    let mut fault = FaultConfig::lossy(0.2, 0xEF02);
    fault.replication = 2;
    match churn {
        "rate" => {
            fault.failure_rate = 0.004;
            fault.max_failures = max_events;
        }
        "lognormal" => {
            // median session ≈ e^7.3 ≈ 1500 pump ticks, so expiries land
            // inside the measured tuple stream rather than during install
            fault.churn = ChurnModel::Empirical {
                session: SessionDist::LogNormal {
                    mu: 7.3,
                    sigma: 0.8,
                },
                max_events,
            };
        }
        "weibull" => {
            // heavy-tailed sessions (shape < 1), scale 2000 ticks
            fault.churn = ChurnModel::Empirical {
                session: SessionDist::Weibull {
                    shape: 0.7,
                    scale: 2000.0,
                },
                max_events,
            };
        }
        _ => unreachable!("unknown churn label"),
    }
    fault
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let nodes = scale.pick(32, 128);
    let queries = scale.pick(10, 40);
    let tuples = scale.pick(100, 400);
    let max_events = scale.pick(2, 6);
    let mut report = Report::new(
        "EF2",
        &format!("recall and repair cost under churn models x detection timeouts (N={nodes})"),
        &[
            "algorithm",
            "churn",
            "detector",
            "recall",
            "outside-win",
            "expected",
            "failed",
            "detected",
            "avg detect t",
            "avg repair t",
            "repair B",
            "lost in win",
            "heartbeats",
        ],
    );
    let points: Vec<(Algorithm, &str)> = ALGS
        .into_iter()
        .flat_map(|alg| CHURNS.map(|churn| (alg, churn)))
        .collect();
    let results = grid(&points, &DETECTORS, |(alg, churn), (_, suspect_after)| {
        let suspicion = match suspect_after {
            None => SuspicionConfig::default(),
            // Both timeouts track the sweep axis so an aggressive
            // detector is aggressive end-to-end.
            Some(t) => SuspicionConfig::active()
                .with_suspect_after(t)
                .with_confirm_after(t),
        };
        RunConfig {
            queries,
            tuples,
            // Session-length churn spans the whole run (install
            // included), so count faults over the whole run too.
            measure_stream_only: false,
            ..RunConfig::new(alg).with_engine(|e| {
                e.with_nodes(nodes)
                    .with_fault(fault_for(churn, max_events))
                    .with_suspicion(suspicion)
                    .with_retained_notifications(true)
            })
        }
    });
    let avg = |total: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    };
    for ((alg, churn), rs) in points.iter().zip(&results) {
        for ((det, _), r) in DETECTORS.iter().zip(rs) {
            let rec = &r.recovery;
            report.row(vec![
                alg.to_string(),
                churn.to_string(),
                det.to_string(),
                fnum(r.recall),
                fnum(r.recall_outside_windows),
                r.expected_notifications.to_string(),
                r.faults.nodes_failed.to_string(),
                rec.detections.to_string(),
                fnum(avg(rec.detect_ticks_total, rec.detections)),
                fnum(avg(rec.repair_ticks_total, rec.repairs)),
                rec.repair_bytes.to_string(),
                rec.lost_in_detection_window.to_string(),
                rec.heartbeats_sent.to_string(),
            ]);
        }
    }
    report.note("outside-win: recall over tuples published outside detection windows");
    report.note("oracle detector repairs on the failure tick (detection cost 0 by fiat)");
    report.note("patient detectors trade longer blind windows for fewer false suspicions");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_rows_behave() {
        let r = run(Scale::Quick);
        assert_eq!(r.len(), ALGS.len() * CHURNS.len() * DETECTORS.len());
        for i in 0..r.len() {
            let det: String = r.cell(i, 2);
            let outside: f64 = r.cell(i, 4);
            let detected: u64 = r.cell(i, 7);
            let heartbeats: u64 = r.cell(i, 12);
            if det == "oracle" {
                assert_eq!(heartbeats, 0, "oracle rows probe nothing: row {i}");
                assert_eq!(detected, 0, "oracle rows detect nothing: row {i}");
            } else {
                assert!(heartbeats > 0, "detector rows must probe: row {i}");
                // The acceptance bar: every notification the oracle expects
                // from tuples published outside detection windows is
                // delivered, churn and 20% loss notwithstanding.
                assert!(
                    (outside - 1.0).abs() < 1e-9,
                    "outside-window recall must be 1.0: row {i}"
                );
            }
        }
        // At least one detector run must actually exercise detection, or
        // the sweep proves nothing.
        let total_detected: u64 = (0..r.len()).map(|i| r.cell::<u64>(i, 7)).sum();
        assert!(total_detected > 0, "no run detected any failure");
    }
}
