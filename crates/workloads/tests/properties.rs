//! Property-based tests for the workload generators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use paraleon_workloads::{
    Collective, CollectiveKind, CollectiveSpec, FlowRequest, FlowSizeDist, PoissonConfig,
    PoissonWorkload, Progress,
};

/// Drive `rounds` rounds of any collective to completion, checking the
/// barrier invariant (waves only advance when fully drained) and the OFF
/// gap. Returns every flow seen.
fn drive_collective(c: &mut Collective, rounds: u32) -> Vec<FlowRequest> {
    let off_time = c.config().off_time;
    let mut t = 0u64;
    let mut all = Vec::new();
    for _ in 0..rounds {
        let first = c.start_round(t).expect("round start while idle");
        assert!(!first.is_empty());
        let mut pending = first.len();
        let mut round = first;
        loop {
            t += 1;
            pending -= 1;
            match c.on_flow_done(t).expect("completion with round in flight") {
                Progress::Pending => assert!(pending > 0, "Pending with wave drained"),
                Progress::NextWave(flows) => {
                    assert_eq!(pending, 0, "barrier released early");
                    assert!(!flows.is_empty());
                    pending = flows.len();
                    round.extend(flows);
                }
                Progress::RoundDone { next_round } => {
                    assert_eq!(pending, 0, "round ended with flows in flight");
                    match next_round {
                        Some(nr) => {
                            assert!(!c.finished());
                            assert_eq!(nr, t + off_time);
                            t = nr;
                        }
                        None => assert!(c.finished()),
                    }
                    break;
                }
            }
        }
        all.extend(round);
    }
    all
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

/// The per-call formulas `FlowSizeDist` used before it stored its
/// control points' logarithms and its mean at construction: the
/// reference the stored tables must reproduce bit for bit.
mod reference {
    /// The size at CDF value `u`, taking the logarithms on every call.
    pub(crate) fn quantile(pts: &[(f64, f64)], u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let mut i = 1;
        while i < pts.len() - 1 && pts[i].1 < u {
            i += 1;
        }
        let (s0, c0) = pts[i - 1];
        let (s1, c1) = pts[i];
        if s0 == s1 {
            return (s0 as u64).max(1);
        }
        let frac = if c1 > c0 { (u - c0) / (c1 - c0) } else { 1.0 };
        let frac = frac.clamp(0.0, 1.0);
        let ls = s0.ln() + frac * (s1.ln() - s0.ln());
        ls.exp().round().max(1.0) as u64
    }

    /// The 10 000-midpoint integral of [`quantile`], recomputed per call.
    pub(crate) fn mean_bytes(pts: &[(f64, f64)]) -> f64 {
        const STEPS: usize = 10_000;
        let mut acc = 0.0;
        for k in 0..STEPS {
            let u = (k as f64 + 0.5) / STEPS as f64;
            acc += quantile(pts, u) as f64;
        }
        acc / STEPS as f64
    }

    /// The CDF at `bytes`, taking the logarithms on every call.
    pub(crate) fn cdf(pts: &[(f64, f64)], bytes: f64) -> f64 {
        if bytes >= pts[pts.len() - 1].0 {
            return 1.0;
        }
        if bytes <= pts[0].0 {
            return 0.0;
        }
        let mut i = 1;
        while pts[i].0 < bytes {
            i += 1;
        }
        let (s0, c0) = pts[i - 1];
        let (s1, c1) = pts[i];
        let frac = (bytes.ln() - s0.ln()) / (s1.ln() - s0.ln());
        c0 + frac * (c1 - c0)
    }
}

proptest! {
    /// The stored tables reproduce the per-call reference bit for bit,
    /// for any valid CDF and for `fixed`: quantiles at both ends, on a
    /// grid and at random points; the CDF at, between and off the
    /// control points; and the mean.
    #[test]
    fn stored_tables_match_the_per_call_reference(
        points in cdf_points(),
        us in prop::collection::vec(0.0f64..=1.0, 64),
        fixed in 1u64..1 << 40,
    ) {
        let step = [(fixed as f64, 0.0), (fixed as f64, 1.0)];
        let dists = [
            (FlowSizeDist::from_points("prop", &points), &points[..]),
            (FlowSizeDist::fixed(fixed), &step[..]),
        ];
        for (d, pts) in dists {
            let grid = (0..=1_000).map(|k| k as f64 / 1_000.0);
            for u in [0.0, 1.0].into_iter().chain(grid).chain(us.iter().copied()) {
                prop_assert_eq!(d.quantile(u), reference::quantile(pts, u), "u = {}", u);
            }
            let between = pts.windows(2).map(|w| (w[0].0 * w[1].0).sqrt());
            let drawn = us.iter().map(|&u| reference::quantile(pts, u) as f64);
            let off = [0.5 * pts[0].0, 2.0 * pts[pts.len() - 1].0];
            let sizes = pts.iter().map(|p| p.0).chain(between).chain(drawn).chain(off);
            for bytes in sizes {
                prop_assert_eq!(
                    d.cdf(bytes).to_bits(),
                    reference::cdf(pts, bytes).to_bits(),
                    "bytes = {}", bytes
                );
            }
            prop_assert_eq!(d.mean_bytes().to_bits(), reference::mean_bytes(pts).to_bits());
        }
    }

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

    /// Any collective kind: every round is barrier-separated waves of the
    /// kind's flow count, each flow carries the kind's message size, and
    /// every configured round accounts a duration. Alltoall: n·(n−1)
    /// distinct pairs; ring allreduce: 2(n−1) waves of n chunk flows of
    /// ⌈message/n⌉ bytes; tree allreduce: each of the n−1 tree edges once
    /// up and once down; pipeline: one wave of n−1 neighbor flows per
    /// microbatch.
    #[test]
    fn collective_round_accounting(
        kind in 0usize..CollectiveKind::ALL.len(),
        n in 2usize..17,
        message_bytes in 1u64..100_000,
        microbatches in 1u32..5,
        rounds in 1u32..4,
    ) {
        let kind = CollectiveKind::ALL[kind];
        let mut c = Collective::new(CollectiveSpec {
            kind,
            workers: (0..n).collect(),
            message_bytes,
            microbatches,
            rounds: Some(rounds),
            off_time: 10,
        });
        let flows = drive_collective(&mut c, rounds);
        let per_round = match kind {
            CollectiveKind::Alltoall => n * (n - 1),
            CollectiveKind::RingAllreduce => 2 * (n - 1) * n,
            CollectiveKind::TreeAllreduce => 2 * (n - 1),
            CollectiveKind::PipelineBurst => microbatches as usize * (n - 1),
        };
        prop_assert_eq!(flows.len(), rounds as usize * per_round);
        let flow_bytes = match kind {
            CollectiveKind::RingAllreduce => message_bytes.div_ceil(n as u64),
            _ => message_bytes,
        };
        prop_assert!(flows.iter().all(|f| f.bytes == flow_bytes));
        prop_assert!(flows.iter().all(|f| f.src != f.dst && f.src < n && f.dst < n));
        if kind == CollectiveKind::Alltoall {
            let mut pairs: Vec<_> = flows[..per_round].iter().map(|f| (f.src, f.dst)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            prop_assert_eq!(pairs.len(), per_round);
        }
        prop_assert!(c.finished());
        prop_assert_eq!(c.round_durations().len(), rounds as usize);
    }
}
