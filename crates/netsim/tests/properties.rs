//! Property-based tests for the fabric simulator: conservation and
//! liveness under randomized scenarios.

use proptest::prelude::*;

use paraleon_netsim::{Engine, SimConfig, Topology, MILLI, SEC};

/// Random small scenarios: up to 12 flows between random host pairs.
fn scenarios() -> impl Strategy<Value = Vec<(usize, usize, u64, u64)>> {
    prop::collection::vec(
        (0usize..8, 0usize..8, 1u64..2_000_000, 0u64..2 * MILLI),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every admitted flow eventually completes, exactly once, with a
    /// completion time after its start, and the fabric stays lossless.
    #[test]
    fn all_flows_complete_exactly_once(scenario in scenarios()) {
        let topo = Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000);
        let mut sim = Engine::new(topo, SimConfig::default(), 1);
        let mut expected = 0;
        for (src, dst, bytes, start) in scenario {
            if src != dst {
                sim.add_flow(src, dst, bytes, start);
                expected += 1;
            }
        }
        sim.run_until(5 * SEC);
        let done = sim.take_completions();
        prop_assert_eq!(done.len(), expected, "missing completions");
        prop_assert_eq!(sim.active_flows(), 0);
        prop_assert_eq!(sim.total_drops(), 0, "PFC must keep it lossless");
        let mut ids: Vec<_> = done.iter().map(|r| r.flow).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), expected, "duplicate completion records");
        for r in &done {
            prop_assert!(r.finish > r.start);
            // Can't beat the line rate plus propagation.
            let min_fct = (r.bytes as f64 / 12.5) as u64; // ns at 100G
            prop_assert!(r.fct() >= min_fct.min(1), "impossible FCT {}", r.fct());
        }
    }

    /// Delivered payload bytes over all intervals equal the sum of flow
    /// sizes (byte conservation across queues, PFC and retransmit).
    #[test]
    fn payload_bytes_are_conserved(scenario in scenarios()) {
        let topo = Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000);
        let mut sim = Engine::new(topo, SimConfig::default(), 1);
        let mut total = 0u64;
        for (src, dst, bytes, start) in scenario {
            if src != dst {
                sim.add_flow(src, dst, bytes, start);
                total += bytes;
            }
        }
        let mut delivered = 0u64;
        while sim.active_flows() > 0 && sim.now() < 5 * SEC {
            sim.run_until(sim.now() + 10 * MILLI);
            delivered += sim.collect_interval().bytes_delivered;
        }
        delivered += sim.collect_interval().bytes_delivered;
        prop_assert_eq!(delivered, total);
    }

    /// Interval metric terms stay within their documented ranges.
    #[test]
    fn metric_terms_stay_normalized(scenario in scenarios()) {
        let topo = Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000);
        let mut sim = Engine::new(topo, SimConfig::default(), 1);
        for (src, dst, bytes, start) in scenario {
            if src != dst {
                sim.add_flow(src, dst, bytes, start);
            }
        }
        for _ in 0..10 {
            sim.run_until(sim.now() + MILLI);
            let m = sim.collect_interval();
            prop_assert!((0.0..=1.0).contains(&m.avg_uplink_utilization));
            prop_assert!((0.0..=1.0).contains(&m.avg_normalized_rtt));
            prop_assert!((0.0..=1.0).contains(&m.pfc_pause_ratio));
            for s in &m.switch_obs {
                prop_assert!((0.0..=1.0).contains(&s.tx_utilization));
                prop_assert!((0.0..=1.0).contains(&s.marking_rate));
                prop_assert!((0.0..=1.0).contains(&s.queue_frac));
            }
        }
    }
}
