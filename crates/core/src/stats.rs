//! Statistics helpers for regenerating the paper's tables and figures:
//! percentiles, FCT slowdowns binned by flow size, and CDFs.

use paraleon_netsim::FlowRecord;

/// Percentile (0..=100) of a sample set by linear interpolation.
/// Returns 0.0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let rank = (p / 100.0) * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        values[lo]
    } else {
        let frac = rank - lo as f64;
        values[lo] * (1.0 - frac) + values[hi] * frac
    }
}

/// Arithmetic mean (0.0 for empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Bytes/s as Gbit/s.
pub fn gbps_of(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0 / 1e9
}

/// One row of a Figure-7-style FCT-slowdown-vs-flow-size table.
#[derive(Debug, Clone)]
pub struct SlowdownBin {
    /// Inclusive lower bound of the size bin, bytes.
    pub lo: u64,
    /// Exclusive upper bound, bytes.
    pub hi: u64,
    /// Flows in the bin.
    pub count: usize,
    /// Mean slowdown.
    pub avg: f64,
    /// 99.9th-percentile slowdown.
    pub p999: f64,
}

/// The flow-size bin edges used for Figure 7(a,b) (bytes).
pub const FIG7_BINS: [u64; 6] = [
    0,
    120_000,  // "< 120 KB": the paper's mice bucket
    1 << 20,  // < 1 MB
    4 << 20,  // < 4 MB
    16 << 20, // < 16 MB
    u64::MAX,
];

/// Bin completed flows by size and compute mean / p99.9 FCT slowdown.
/// `ref_bw` is the ideal transfer bandwidth (bytes/sec) and `base_rtt`
/// the unloaded RTT used in the ideal-FCT denominator.
pub fn slowdown_bins(
    records: &[FlowRecord],
    ref_bw: f64,
    base_rtt: u64,
    edges: &[u64],
) -> Vec<SlowdownBin> {
    let mut out = Vec::new();
    for w in edges.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mut s: Vec<f64> = records
            .iter()
            .filter(|r| r.bytes >= lo && r.bytes < hi)
            .map(|r| r.slowdown(ref_bw, base_rtt))
            .collect();
        let avg = mean(&s);
        let p999 = percentile(&mut s, 99.9);
        out.push(SlowdownBin {
            lo,
            hi,
            count: s.len(),
            avg,
            p999,
        });
    }
    out
}

/// Empirical CDF points `(value, fraction ≤ value)` of a sample set
/// (sorted, deduplicated at `points` resolution). Used for Figure 7(c,d).
pub fn cdf(values: &[f64], points: usize) -> Vec<(f64, f64)> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = v.len();
    let step = (n.max(points) / points.max(1)).max(1);
    let mut out = Vec::new();
    let mut i = step - 1;
    while i < n {
        out.push((v[i], (i + 1) as f64 / n as f64));
        i += step;
    }
    if out.last().map(|&(x, _)| x) != Some(v[n - 1]) {
        out.push((v[n - 1], 1.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bytes: u64, fct_ns: u64) -> FlowRecord {
        FlowRecord {
            flow: 0,
            src: 0,
            dst: 1,
            bytes,
            start: 0,
            finish: fct_ns,
        }
    }

    #[test]
    fn percentile_basics() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let mut v = vec![0.0, 10.0];
        assert_eq!(percentile(&mut v, 25.0), 2.5);
    }

    #[test]
    fn slowdown_bins_partition_flows() {
        let records = vec![
            rec(50_000, 1_000_000),
            rec(500_000, 2_000_000),
            rec(8 << 20, 50_000_000),
        ];
        let bins = slowdown_bins(&records, 12.5e9, 10_000, &FIG7_BINS);
        assert_eq!(bins.len(), 5);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, 3);
        assert_eq!(bins[0].count, 1); // 50 KB
        assert_eq!(bins[1].count, 1); // 500 KB
        assert_eq!(bins[3].count, 1); // 8 MB
        for b in &bins {
            if b.count > 0 {
                assert!(b.avg >= 1.0);
                assert!(b.p999 >= b.avg * 0.99);
            }
        }
    }

    #[test]
    fn cdf_is_monotonic_and_ends_at_one() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let c = cdf(&values, 10);
        assert!(!c.is_empty());
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(c.last().unwrap().1, 1.0);
    }
}
