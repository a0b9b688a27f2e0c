//! The untimed verification round: replay a prefix of the workload's own
//! stream with notification bodies retained and compare what the network
//! delivered with the brute-force `cq_engine::Oracle`.

use std::collections::HashSet;
use std::sync::Arc;

use cq_engine::{Network, Oracle};
use cq_relational::{Notification, Tuple};

use crate::round::{run_round, RoundResult};
use crate::workloads::{generate, Backend, Spec};

/// The outcome of verifying one workload.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// |delivered ∩ oracle| ÷ |oracle| over the replayed prefix.
    pub recall: f64,
    pub expected: usize,
    /// Ops attempted / returning `Err` in the verification round.
    pub attempted: u64,
    pub failed: u64,
    /// Why the workload failed verification; empty when it passed.
    pub problems: Vec<String>,
}

fn expected_set(net: &Network, tuples: &[Arc<Tuple>]) -> Result<HashSet<Notification>, String> {
    let mut oracle = Oracle::new();
    oracle.ingest(net.posed_queries(), tuples);
    oracle
        .expected()
        .map_err(|e| format!("oracle evaluation: {e}"))
}

fn share(hit: usize, of: usize) -> f64 {
    if of == 0 {
        1.0
    } else {
        hit as f64 / of as f64
    }
}

fn replay(spec: &Spec, seed: u64) -> Result<(RoundResult, Network), String> {
    run_round(spec, generate(spec, seed), true, None, spec.verify_prefix)
}

/// Verifies `spec` at `seed`. Perfect-delivery workloads must deliver the
/// oracle's set exactly and no op may fail. Under faults, notifications for
/// tuples published while a failed node was still undetected carry no
/// guarantee, so recall is a measurement there; everything outside those
/// windows must arrive, and nothing the oracle does not expect may.
pub fn verify(spec: &Spec, seed: u64) -> Result<Verdict, String> {
    let (round, net) = replay(spec, seed)?;
    let delivered = net.delivered_set();
    let expected = expected_set(&net, net.inserted_tuples())?;
    let hit = expected.iter().filter(|n| delivered.contains(*n)).count();
    let mut v = Verdict {
        recall: share(hit, expected.len()),
        expected: expected.len(),
        attempted: round.attempted,
        failed: round.failed,
        problems: Vec::new(),
    };
    let unexpected = delivered.iter().filter(|n| !expected.contains(*n)).count();
    if unexpected > 0 {
        v.problems.push(format!(
            "{unexpected} delivered notifications the oracle does not expect"
        ));
    }
    if spec.backend == Backend::SimFaults {
        let windows = net.detection_windows();
        let outside: Vec<Arc<Tuple>> = net
            .inserted_tuples()
            .iter()
            .filter(|t| {
                let p = t.pub_time().0;
                windows.iter().all(|&(a, b)| p < a || p > b)
            })
            .cloned()
            .collect();
        let guaranteed = expected_set(&net, &outside)?;
        let missing = guaranteed
            .iter()
            .filter(|n| !delivered.contains(*n))
            .count();
        if missing > 0 {
            v.problems.push(format!(
                "{missing} of {} notifications owed outside detection windows were not delivered",
                guaranteed.len()
            ));
        }
    } else {
        if hit != expected.len() {
            v.problems.push(format!(
                "recall {} < 1.0 on a perfect-delivery workload",
                v.recall
            ));
        }
        if round.failed > 0 {
            v.problems.push(format!(
                "{} of {} ops returned Err",
                round.failed, round.attempted
            ));
        }
    }
    if spec.backend == Backend::Tcp {
        // the same prefix on the simulator must agree message for message
        let (sim_round, sim_net) = replay(&spec.on_plain_sim(), seed)?;
        if sim_net.delivered_set() != delivered {
            v.problems
                .push("TCP and simulator delivered different notification sets".to_string());
        }
        if (sim_round.msgs, sim_round.hops) != (round.msgs, round.hops) {
            v.problems.push(format!(
                "TCP sent {} msgs / {} hops, the simulator {} / {}",
                round.msgs, round.hops, sim_round.msgs, sim_round.hops
            ));
        }
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn a_small_perfect_delivery_workload_verifies() {
        let spec = find("match_sai").unwrap().scaled_down(20);
        let v = verify(&spec, 3).unwrap();
        assert!(v.problems.is_empty(), "{:?}", v.problems);
        assert_eq!(v.recall, 1.0);
        assert!(v.expected > 0);
        assert_eq!(v.failed, 0);
    }

    #[test]
    fn a_small_churn_workload_keeps_its_guarantee() {
        let spec = find("churn_dait").unwrap().scaled_down(10);
        let v = verify(&spec, 3).unwrap();
        assert!(v.problems.is_empty(), "{:?}", v.problems);
        assert!(v.recall > 0.5 && v.recall <= 1.0);
    }
}
