//! Property-based tests for the workload generators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use paraleon_workloads::{
    AllToAll, AllToAllConfig, Collective, FlowSizeDist, PipelineBurst, PipelineConfig,
    PoissonConfig, PoissonWorkload, Progress, RingAllreduce, RingConfig, TreeAllreduce, TreeConfig,
};

/// Drive `rounds` rounds of any collective to completion, checking the
/// barrier invariant (waves only advance when fully drained) and
/// returning the total number of flows seen.
fn drive_collective(c: &mut dyn Collective, rounds: u32) -> usize {
    let mut t = 0u64;
    let mut total = 0usize;
    for _ in 0..rounds {
        let first = c.start_round(t).expect("round start while idle");
        assert!(!first.is_empty());
        let mut pending = first.len();
        total += pending;
        loop {
            t += 1;
            pending -= 1;
            match c.on_flow_done(t).expect("completion with round in flight") {
                Progress::Pending => assert!(pending > 0, "Pending with wave drained"),
                Progress::NextWave(flows) => {
                    assert_eq!(pending, 0, "barrier released early");
                    assert!(!flows.is_empty());
                    pending = flows.len();
                    total += flows.len();
                }
                Progress::RoundDone { next_round } => {
                    assert_eq!(pending, 0, "round ended with flows in flight");
                    match next_round {
                        Some(nr) => {
                            assert!(!c.finished());
                            assert!(nr >= t);
                            t = nr;
                        }
                        None => assert!(c.finished()),
                    }
                    break;
                }
            }
        }
    }
    total
}

/// Strategy for valid CDF control points: strictly increasing sizes and
/// non-decreasing CDF values spanning [0, 1].
fn cdf_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (2usize..8).prop_flat_map(|n| {
        (
            prop::collection::vec(1.0f64..1e3, n), // size multipliers
            prop::collection::vec(0.01f64..1.0, n - 2),
        )
            .prop_map(|(mults, mids)| {
                let mut sizes = Vec::with_capacity(mults.len());
                let mut acc = 10.0;
                for m in &mults {
                    acc += m;
                    sizes.push(acc);
                }
                let mut cdfs = vec![0.0];
                let mut mids = mids;
                mids.sort_by(|a, b| a.partial_cmp(b).unwrap());
                cdfs.extend(mids);
                cdfs.push(1.0);
                sizes.into_iter().zip(cdfs).collect()
            })
    })
}

proptest! {
    /// For any valid CDF, the quantile function is monotone and lands
    /// inside the support.
    #[test]
    fn quantile_monotone_and_in_support(points in cdf_points()) {
        let d = FlowSizeDist::from_points("prop", &points);
        let lo = points.first().unwrap().0;
        let hi = points.last().unwrap().0;
        let mut last = 0u64;
        for k in 0..=50 {
            let q = d.quantile(k as f64 / 50.0);
            prop_assert!(q >= last);
            prop_assert!(q as f64 >= lo.floor() - 1.0);
            prop_assert!(q as f64 <= hi.ceil() + 1.0);
            last = q;
        }
    }

    /// Samples always land within the distribution's support.
    #[test]
    fn samples_in_support(points in cdf_points(), seed in 0u64..1000) {
        let d = FlowSizeDist::from_points("prop", &points);
        let lo = points.first().unwrap().0;
        let hi = points.last().unwrap().0;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let s = d.sample(&mut rng) as f64;
            prop_assert!(s >= lo.floor() - 1.0 && s <= hi.ceil() + 1.0);
        }
    }

    /// Poisson schedules are time-sorted with valid endpoints, for any
    /// host count / load / window.
    #[test]
    fn poisson_schedules_are_well_formed(
        hosts in 2usize..40,
        load in 0.05f64..1.0,
        window_us in 100u64..5_000,
        seed in 0u64..1000,
    ) {
        let wl = PoissonWorkload::new(
            PoissonConfig {
                hosts,
                host_bw_bytes_per_sec: 12.5e9,
                load,
                start: 0,
                end: window_us * 1_000,
            },
            FlowSizeDist::solar_rpc(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let flows = wl.generate(&mut rng);
        for w in flows.windows(2) {
            prop_assert!(w[0].start <= w[1].start);
        }
        for f in &flows {
            prop_assert!(f.src < hosts && f.dst < hosts && f.src != f.dst);
            prop_assert!(f.start < window_us * 1_000);
            prop_assert!(f.bytes > 0);
        }
    }

    /// Alltoall rounds always contain exactly n·(n−1) distinct pairs and
    /// the state machine's accounting never goes negative.
    #[test]
    fn alltoall_round_accounting(n in 2usize..12, rounds in 1u32..4) {
        let mut a2a = AllToAll::new(AllToAllConfig {
            workers: (0..n).collect(),
            message_bytes: 1000,
            off_time: 10,
            rounds: Some(rounds),
        });
        let mut t = 0u64;
        for _ in 0..rounds {
            let flows = a2a.start_round(t).unwrap();
            prop_assert_eq!(flows.len(), n * (n - 1));
            let mut last = Progress::Pending;
            for _ in 0..flows.len() {
                t += 1;
                last = a2a.on_flow_done(t).unwrap();
            }
            let Progress::RoundDone { next_round } = last else {
                panic!("the round's last completion must end it: {last:?}");
            };
            if a2a.finished() {
                prop_assert!(next_round.is_none());
            } else {
                let nr = next_round.expect("next round scheduled");
                prop_assert!(nr >= t + 10);
                t = nr;
            }
        }
        prop_assert!(a2a.finished());
        prop_assert_eq!(a2a.round_durations().len(), rounds as usize);
    }

    /// `fixed(b)` samples exactly `b` for any `b` — the regression the
    /// ramp-CDF encoding failed (it could emit `b−1`, and bumped
    /// `fixed(1)` to 2).
    #[test]
    fn fixed_dist_is_exact_for_any_size(bytes in 1u64..1 << 40, seed in 0u64..1000) {
        let d = FlowSizeDist::fixed(bytes);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert_eq!(d.sample(&mut rng), bytes);
        }
    }

    /// Ring allreduce: every round is 2(n−1) waves of n chunk flows,
    /// barrier-separated, and all configured rounds account a duration.
    #[test]
    fn ring_allreduce_accounting(n in 2usize..10, rounds in 1u32..4) {
        let mut ring = RingAllreduce::new(RingConfig {
            workers: (0..n).collect(),
            message_bytes: 10_000,
            off_time: 10,
            rounds: Some(rounds),
        });
        let total = drive_collective(&mut ring, rounds);
        prop_assert_eq!(total, rounds as usize * 2 * (n - 1) * n);
        prop_assert!(ring.finished());
        prop_assert_eq!(ring.round_durations().len(), rounds as usize);
    }

    /// Tree allreduce: a round carries each of the n−1 tree edges once
    /// up and once down.
    #[test]
    fn tree_allreduce_accounting(n in 2usize..17, rounds in 1u32..3) {
        let mut tree = TreeAllreduce::new(TreeConfig {
            workers: (0..n).collect(),
            message_bytes: 10_000,
            off_time: 10,
            rounds: Some(rounds),
        });
        let total = drive_collective(&mut tree, rounds);
        prop_assert_eq!(total, rounds as usize * 2 * (n - 1));
        prop_assert!(tree.finished());
        prop_assert_eq!(tree.round_durations().len(), rounds as usize);
    }

    /// Pipeline bursts: one wave of n−1 neighbor flows per microbatch.
    #[test]
    fn pipeline_burst_accounting(n in 2usize..10, mb in 1u32..5, rounds in 1u32..3) {
        let mut pipe = PipelineBurst::new(PipelineConfig {
            workers: (0..n).collect(),
            microbatch_bytes: 10_000,
            microbatches: mb,
            off_time: 10,
            rounds: Some(rounds),
        });
        let total = drive_collective(&mut pipe, rounds);
        prop_assert_eq!(total, rounds as usize * mb as usize * (n - 1));
        prop_assert!(pipe.finished());
        prop_assert_eq!(pipe.round_durations().len(), rounds as usize);
    }
}
