//! Property-based end-to-end test: for random interleavings of query
//! postings and tuple insertions, all four algorithms must deliver exactly
//! the oracle's notification set — and therefore agree with each other.

pub mod common;

use common::{run, step_strategy};
use cq_engine::{Algorithm, FaultConfig, Oracle};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_agree_with_the_oracle(
        steps in prop::collection::vec(step_strategy(), 1..40),
        seed in 0u64..1000,
    ) {
        let mut reference: Option<std::collections::HashSet<_>> = None;
        for alg in Algorithm::ALL {
            let net = run(alg, &steps, seed, FaultConfig::default());
            let mut oracle = Oracle::new();
            oracle.ingest(net.posed_queries(), net.inserted_tuples());
            let expected = oracle.expected().unwrap();
            let delivered = net.delivered_set();
            prop_assert_eq!(
                &delivered, &expected,
                "{} diverged from oracle", alg
            );
            if let Some(r) = &reference {
                prop_assert_eq!(r, &delivered, "{} diverged from other algorithms", alg);
            } else {
                reference = Some(delivered);
            }
        }
    }
}
