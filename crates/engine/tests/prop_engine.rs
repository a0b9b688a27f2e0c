//! Property-based end-to-end test: for random interleavings of query
//! postings and tuple insertions, all four algorithms must deliver exactly
//! the oracle's notification set — and therefore agree with each other.

pub mod common;

use common::{assert_oracle, command_lists, replay};
use cq_engine::{Algorithm, EngineConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_agree_with_the_oracle(
        cmds in command_lists(1..40),
        seed in 0u64..1000,
    ) {
        let case = format!("seed {seed}, {cmds:?}");
        let mut reference: Option<std::collections::HashSet<_>> = None;
        for alg in Algorithm::ALL {
            let net = replay(EngineConfig::new(alg).with_nodes(32).with_seed(seed), &cmds);
            assert_oracle(&net, &case);
            let delivered = net.delivered_set();
            if let Some(r) = &reference {
                prop_assert_eq!(r, &delivered, "{} diverged from other algorithms: {}", alg, case);
            } else {
                reference = Some(delivered);
            }
        }
    }
}
