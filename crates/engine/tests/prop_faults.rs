//! Property-based check of the reliable-delivery layer: for random
//! workloads under random message loss (up to 30%), duplication and
//! reordering, acks + retransmissions + receiver dedup windows must keep
//! the observable notification set exactly equal to the oracle's —
//! exactly-once semantics over a faulty channel.

pub mod common;

use common::{assert_oracle, command_lists, replay};
use cq_engine::{Algorithm, EngineConfig, FaultConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exactly_once_delivery_over_a_faulty_channel(
        cmds in command_lists(1..40),
        seed in 0u64..1000,
        loss_pct in 0u32..31,
        fault_seed in 0u64..1000,
    ) {
        let fault = FaultConfig::lossy(f64::from(loss_pct) / 100.0, fault_seed);
        let case = format!("seed {seed}, {fault:?}, {cmds:?}");
        for alg in Algorithm::ALL {
            let config = EngineConfig::new(alg).with_nodes(32).with_seed(seed);
            let net = replay(config.with_fault(fault.clone()), &cmds);
            assert_oracle(&net, &case);
        }
    }

    #[test]
    fn backoff_and_dedup_survive_sustained_loss_with_delay(
        cmds in command_lists(1..30),
        seed in 0u64..1000,
        loss_pct in 5u32..31,
        delay_pct in 0u32..100,
        max_delay in 1u64..8,
        fault_seed in 0u64..1000,
    ) {
        // Loss combined with delivery delay: retransmissions fire while
        // originals (or their acks) are still in flight, exercising the
        // backoff schedule and the retransmit/late-ack dedup race. The
        // delivered set must still be exactly the oracle's.
        let mut fault = FaultConfig::lossy(f64::from(loss_pct) / 100.0, fault_seed);
        fault.delay_rate = f64::from(delay_pct) / 100.0;
        fault.max_delay = max_delay;
        fault.ack_timeout = 1; // aggressive: races acks against retries
        let case = format!("seed {seed}, {fault:?}, {cmds:?}");
        for alg in Algorithm::ALL {
            let config = EngineConfig::new(alg).with_nodes(32).with_seed(seed);
            let net = replay(config.with_fault(fault.clone()), &cmds);
            assert_oracle(&net, &case);
        }
    }
}
