//! E1 — Figure "Recursive vs. iterative design for the multisend function"
//! (Section 5.2, Evaluation of the API).
//!
//! Sends one multisend to `k` random identifiers from a random node and
//! compares the total overlay hops of the two designs. Expected shape: both
//! are `O(k log N)`, but the recursive design uses markedly fewer total hops
//! because, once the message reaches the right region of the ring,
//! consecutive recipients are only a hop or two apart.

use cq_overlay::{Id, IdSpace, Ring};

use super::Scale;
use crate::report::{fnum, Report};

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let n = scale.pick(512, 4096);
    let ks: Vec<usize> = scale.pick(vec![4, 16, 64, 128], vec![10, 50, 100, 250, 500]);
    let trials = scale.pick(3, 10);

    let ring = Ring::build(IdSpace::new(32), n, "node-");
    let mut report = Report::new(
        "E1",
        &format!("multisend: recursive vs iterative total hops (N = {n})"),
        &[
            "k",
            "recursive",
            "iterative",
            "iter/rec",
            "recursive makespan",
            "iterative makespan",
        ],
    );
    let mut rng_state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    for &k in &ks {
        let (mut rec, mut ite, mut rec_ms, mut ite_ms) = (0usize, 0usize, 0usize, 0usize);
        for _ in 0..trials {
            let from = ring
                .alive_nodes()
                .nth((next() % n as u64) as usize)
                .unwrap();
            let ids: Vec<Id> = (0..k).map(|_| ring.space().id(next())).collect();
            let r = ring.multisend_recursive(from, &ids).expect("stable ring");
            let i = ring.multisend_iterative(from, &ids).expect("stable ring");
            rec += r.total_hops;
            ite += i.total_hops;
            rec_ms += r.makespan;
            ite_ms += i.makespan;
        }
        let t = trials as f64;
        report.row(vec![
            k.to_string(),
            fnum(rec as f64 / t),
            fnum(ite as f64 / t),
            fnum(ite as f64 / rec.max(1) as f64),
            fnum(rec_ms as f64 / t),
            fnum(ite_ms as f64 / t),
        ]);
    }
    report.note("paper: recursive beats iterative in practice, same O(k log N) bound");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursive_wins_at_every_k() {
        let r = run(Scale::Quick);
        assert_eq!(r.len(), 4);
        for i in 0..r.len() {
            let (rec, ite): (f64, f64) = (r.cell(i, 1), r.cell(i, 2));
            assert!(
                rec <= ite,
                "recursive {rec} should not exceed iterative {ite}"
            );
        }
    }
}
