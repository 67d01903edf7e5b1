//! Property tests for the log-bucketed histogram: its quantiles must
//! track exact sorted-vector quantiles within the bucketing error
//! bound, for any input distribution.

use proptest::prelude::*;

use paraleon_telemetry::{LogHistogram, SUB_BUCKETS};

/// Exact quantile: the rank-`ceil(q·n)` element of the sorted samples
/// (matching the histogram's rank definition).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        // Uniform small values (exercises the exact region).
        prop::collection::vec(0u64..64, 1..400),
        // Wide log-uniform-ish values via (mantissa, shift).
        prop::collection::vec((1u64..1024, 0u32..40), 1..400)
            .prop_map(|pairs| pairs.into_iter().map(|(m, s)| m << s.min(53)).collect()),
        // Heavy-tailed mixture: mostly small, occasional huge.
        prop::collection::vec((0u64..1000, 0u64..1_000_000_000_000), 1..400).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(small, big)| if big % 10 == 0 { big } else { small })
                .collect()
        }),
    ]
}

proptest! {
    /// For any sample set and quantile, the histogram's answer is within
    /// the log-bucket relative error (1/SUB_BUCKETS) of the exact
    /// sorted-vec quantile, and never outside the observed range.
    #[test]
    fn quantiles_match_exact_within_bucket_error(
        values in samples(),
        qs in prop::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        for &q in &qs {
            let approx = h.value_at_quantile(q);
            let exact = exact_quantile(&sorted, q);
            prop_assert!(approx >= h.min() && approx <= h.max());
            // The histogram answers with the floor of the bucket holding
            // the exact rank-q value: it never overshoots, and it
            // undershoots by less than one bucket width, which is at
            // most exact/SUB_BUCKETS (+1 for the exact integer region).
            let tol = exact / SUB_BUCKETS as u64 + 1;
            prop_assert!(
                approx <= exact,
                "quantile {q}: approx {approx} overshoots exact {exact}"
            );
            prop_assert!(
                exact - approx <= tol,
                "quantile {q}: approx {approx} undershoots exact {exact} beyond tol {tol}"
            );
        }
    }

    /// The quantile function is monotone in q.
    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(0u64..1_000_000_000, 1..300)) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0u64;
        for k in 0..=20 {
            let v = h.value_at_quantile(k as f64 / 20.0);
            prop_assert!(v >= last, "quantile function decreased at {k}/20");
            last = v;
        }
    }

    /// Merging two histograms equals recording the union.
    #[test]
    fn merge_is_union(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut ha = LogHistogram::new();
        let mut hb = LogHistogram::new();
        let mut hu = LogHistogram::new();
        for &v in &a {
            ha.record(v);
            hu.record(v);
        }
        for &v in &b {
            hb.record(v);
            hu.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.min(), hu.min());
        prop_assert_eq!(ha.max(), hu.max());
        for k in 0..=10 {
            let q = k as f64 / 10.0;
            prop_assert_eq!(ha.value_at_quantile(q), hu.value_at_quantile(q));
        }
    }
}
