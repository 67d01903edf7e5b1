//! Flow-size distributions encoded as piecewise log-linear CDFs.
//!
//! Production traces are proprietary; the curves below reproduce the
//! published CDF plots the paper's workloads cite. Sampling is inverse-
//! transform with log-linear interpolation between control points, which
//! preserves the heavy-tail structure that matters for DCQCN tuning (the
//! mice-count vs. elephant-bytes split).

use std::sync::OnceLock;

use rand::Rng;

/// Midpoints of the sum that [`FlowSizeDist::mean_bytes`] stores.
const MEAN_STEPS: usize = 10_000;

/// FB_Hadoop's control points (see [`FlowSizeDist::fb_hadoop`]).
const FB_HADOOP: [(f64, f64); 7] = [
    (100.0, 0.0),
    (1_000.0, 0.30),
    (10_000.0, 0.50),
    (100_000.0, 0.70),
    (1_000_000.0, 0.90),
    (10_000_000.0, 0.97),
    (100_000_000.0, 1.0),
];

/// SolarRPC's control points (see [`FlowSizeDist::solar_rpc`]).
const SOLAR_RPC: [(f64, f64); 5] = [
    (512.0, 0.0),
    (4_096.0, 0.35),
    (16_384.0, 0.70),
    (65_536.0, 0.95),
    (131_072.0, 1.0),
];

/// One control point of the CDF, with its size's logarithm stored so
/// that neither [`FlowSizeDist::quantile`] nor [`FlowSizeDist::cdf`]
/// takes the logarithm of a control point per call.
#[derive(Debug, Clone, Copy)]
struct CdfPoint {
    size: f64,
    ln_size: f64,
    cdf: f64,
}

/// A flow-size distribution: control points of `(size_bytes, cdf)` and
/// the mean they imply, both fixed at construction.
#[derive(Debug, Clone)]
pub struct FlowSizeDist {
    name: String,
    /// Monotonic points, first cdf 0.0, last cdf 1.0.
    points: Vec<CdfPoint>,
    /// Mean flow size in bytes (see [`FlowSizeDist::mean_bytes`]).
    mean_bytes: f64,
}

impl FlowSizeDist {
    /// Build a distribution from explicit CDF points. Panics if the points
    /// are not strictly monotonic in both coordinates or don't span
    /// `[0, 1]`.
    pub fn from_points(name: &str, points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        assert_eq!(points[0].1, 0.0, "first CDF value must be 0");
        assert_eq!(points[points.len() - 1].1, 1.0, "last CDF value must be 1");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must increase");
            assert!(w[0].1 <= w[1].1, "CDF must be non-decreasing");
        }
        assert!(points[0].0 > 0.0, "sizes must be positive for log interp");
        Self::build(name, points)
    }

    /// Store the points with their logarithms, then the mean, which reads
    /// them.
    fn build(name: &str, points: &[(f64, f64)]) -> Self {
        let mut dist = Self {
            name: name.to_string(),
            points: points
                .iter()
                .map(|&(size, cdf)| CdfPoint {
                    size,
                    ln_size: size.ln(),
                    cdf,
                })
                .collect(),
            mean_bytes: 0.0,
        };
        // The midpoint rule over the quantile function. Every term is an
        // integer, so for any curve whose sum stays below 2^53 (the named
        // ones stay below 10^12) each partial sum is exact.
        let sum: f64 = (0..MEAN_STEPS)
            .map(|k| dist.quantile((k as f64 + 0.5) / MEAN_STEPS as f64) as f64)
            .sum();
        dist.mean_bytes = sum / MEAN_STEPS as f64;
        dist
    }

    /// The FB_Hadoop distribution (Roy et al., SIGCOMM 2015, Hadoop
    /// cluster): ~70% of flows under 100 KB, but flows ≥ 1 MB carry the
    /// bulk of the bytes. Approximates the published CDF plot. Built once
    /// per process; each call clones it.
    pub fn fb_hadoop() -> Self {
        static DIST: OnceLock<FlowSizeDist> = OnceLock::new();
        DIST.get_or_init(|| Self::from_points("FB_Hadoop", &FB_HADOOP))
            .clone()
    }

    /// The SolarRPC distribution (Miao et al., SIGCOMM 2022): storage RPCs,
    /// all mice below 128 KB. Built once per process; each call clones it.
    pub fn solar_rpc() -> Self {
        static DIST: OnceLock<FlowSizeDist> = OnceLock::new();
        DIST.get_or_init(|| Self::from_points("SolarRPC", &SOLAR_RPC))
            .clone()
    }

    /// A degenerate single-size distribution (useful in tests and for
    /// fixed-size alltoall messages). Every sample is exactly `bytes`:
    /// the CDF is a vertical step at `bytes`, not a `(bytes−1, bytes)`
    /// ramp — the old ramp could round down to `bytes−1` under
    /// log-interpolation and silently bumped `fixed(1)` to 2 bytes.
    pub fn fixed(bytes: u64) -> Self {
        let b = bytes.max(1) as f64;
        // Built directly: `from_points` (rightly) rejects non-increasing
        // sizes, but a zero-width step is exactly what "fixed" means.
        Self::build("fixed", &[(b, 0.0), (b, 1.0)])
    }

    /// Distribution name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inverse-CDF sample: flow size in bytes.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The size at CDF value `u ∈ [0, 1]`, log-linear between points.
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let pts = &self.points;
        let mut i = 1;
        while i < pts.len() - 1 && pts[i].cdf < u {
            i += 1;
        }
        let (p0, p1) = (pts[i - 1], pts[i]);
        if p0.size == p1.size {
            // Degenerate (vertical) segment, e.g. `fixed`: the size is
            // exact by construction; skip the ln/exp round trip, which
            // can be off by one ULP and round to the wrong integer.
            return (p0.size as u64).max(1);
        }
        let frac = if p1.cdf > p0.cdf {
            (u - p0.cdf) / (p1.cdf - p0.cdf)
        } else {
            1.0
        };
        let frac = frac.clamp(0.0, 1.0);
        let ls = p0.ln_size + frac * (p1.ln_size - p0.ln_size);
        ls.exp().round().max(1.0) as u64
    }

    /// Mean flow size in bytes: the 10 000-midpoint integral of the
    /// quantile function, taken once at construction (it converts a
    /// target load to a Poisson arrival rate).
    pub fn mean_bytes(&self) -> f64 {
        self.mean_bytes
    }

    /// Fraction of *flows* at or below `bytes` (the CDF itself).
    pub fn cdf(&self, bytes: f64) -> f64 {
        let pts = &self.points;
        // Upper bound first so a vertical step (`fixed`) reports
        // `P(X <= bytes) = 1` at the step itself.
        if bytes >= pts[pts.len() - 1].size {
            return 1.0;
        }
        if bytes <= pts[0].size {
            return 0.0;
        }
        let mut i = 1;
        while pts[i].size < bytes {
            i += 1;
        }
        let (p0, p1) = (pts[i - 1], pts[i]);
        let frac = (bytes.ln() - p0.ln_size) / (p1.ln_size - p0.ln_size);
        p0.cdf + frac * (p1.cdf - p0.cdf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantile_endpoints_match_control_points() {
        let d = FlowSizeDist::fb_hadoop();
        assert_eq!(d.quantile(0.0), 100);
        assert_eq!(d.quantile(1.0), 100_000_000);
    }

    #[test]
    fn quantile_is_monotonic() {
        let d = FlowSizeDist::fb_hadoop();
        let mut last = 0;
        for k in 0..=100 {
            let q = d.quantile(k as f64 / 100.0);
            assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn cdf_inverts_quantile() {
        let d = FlowSizeDist::fb_hadoop();
        for u in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let s = d.quantile(u) as f64;
            assert!((d.cdf(s) - u).abs() < 0.02, "u={u} s={s} cdf={}", d.cdf(s));
        }
    }

    #[test]
    fn fb_hadoop_is_mice_by_count_elephant_by_bytes() {
        let d = FlowSizeDist::fb_hadoop();
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<u64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let mice = samples.iter().filter(|&&s| s < 1 << 20).count();
        let total_bytes: u64 = samples.iter().sum();
        let elephant_bytes: u64 = samples.iter().filter(|&&s| s >= 1 << 20).sum();
        // "most flows are mice but most traffic is contributed by
        // elephant flows" (§IV-B, Workloads).
        assert!(mice as f64 > 0.8 * samples.len() as f64);
        assert!(elephant_bytes as f64 > 0.5 * total_bytes as f64);
    }

    #[test]
    fn solar_rpc_is_all_mice() {
        let d = FlowSizeDist::solar_rpc();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) <= 131_072);
        }
    }

    /// `fixed(b)` must sample *exactly* `b` — never `b−1` (the old
    /// ramp CDF could round down) and never a silent bump of
    /// `fixed(1)` to 2 bytes.
    #[test]
    fn fixed_distribution_returns_exactly_bytes() {
        for bytes in [1u64, 2, 12 << 20] {
            let d = FlowSizeDist::fixed(bytes);
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..200 {
                assert_eq!(d.sample(&mut rng), bytes, "fixed({bytes})");
            }
            // The quantile is the constant over the whole unit interval.
            for u in [0.0, 1e-9, 0.25, 0.5, 0.999_999, 1.0] {
                assert_eq!(d.quantile(u), bytes, "fixed({bytes}) at u={u}");
            }
            assert_eq!(d.cdf(bytes as f64), 1.0);
            assert_eq!(d.cdf(bytes as f64 - 0.5), 0.0);
        }
    }

    #[test]
    fn fixed_mean_is_exact() {
        let d = FlowSizeDist::fixed(12 << 20);
        assert!((d.mean_bytes() - (12u64 << 20) as f64).abs() < 1e-6);
    }

    /// The stored means, bit for bit, as the 10 000-midpoint integral
    /// gave them when every call recomputed it.
    #[test]
    fn mean_bytes_is_pinned() {
        for (d, bits) in [
            (FlowSizeDist::fb_hadoop(), 0x4137_649e_ea92_a305_u64),
            (FlowSizeDist::solar_rpc(), 0x40d0_e43d_4e3b_cd36),
            (FlowSizeDist::fixed(4096), 0x40b0_0000_0000_0000),
        ] {
            assert_eq!(d.mean_bytes().to_bits(), bits, "{}", d.name());
        }
    }

    /// The process-wide constants are exactly what `from_points` builds
    /// from the same points: no drift between a curve and its constant.
    #[test]
    fn named_curves_equal_their_points() {
        for (d, name, points) in [
            (FlowSizeDist::fb_hadoop(), "FB_Hadoop", &FB_HADOOP[..]),
            (FlowSizeDist::solar_rpc(), "SolarRPC", &SOLAR_RPC[..]),
        ] {
            let built = FlowSizeDist::from_points(name, points);
            assert_eq!(d.name(), built.name());
            assert_eq!(d.mean_bytes().to_bits(), built.mean_bytes().to_bits());
            let (mut r1, mut r2) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            for _ in 0..1_000 {
                assert_eq!(d.sample(&mut r1), built.sample(&mut r2), "{name}");
            }
        }
    }

    #[test]
    fn mean_bytes_is_plausible() {
        let d = FlowSizeDist::fb_hadoop();
        let mean = d.mean_bytes();
        // Heavy tail: mean far above the median (~10 KB), far below max.
        assert!(mean > 100_000.0 && mean < 20_000_000.0, "mean = {mean}");
    }

    #[test]
    fn sampling_matches_cdf_statistically() {
        let d = FlowSizeDist::solar_rpc();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let below_16k = (0..n).filter(|_| d.sample(&mut rng) <= 16_384).count() as f64 / n as f64;
        assert!((below_16k - 0.70).abs() < 0.03, "got {below_16k}");
    }

    #[test]
    #[should_panic(expected = "first CDF value")]
    fn rejects_bad_first_point() {
        FlowSizeDist::from_points("bad", &[(1.0, 0.5), (2.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "sizes must increase")]
    fn rejects_non_monotonic_sizes() {
        FlowSizeDist::from_points("bad", &[(10.0, 0.0), (5.0, 1.0)]);
    }
}
