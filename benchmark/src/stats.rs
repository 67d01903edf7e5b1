//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle elements for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().max_by(f64::total_cmp)
}

/// The percentiles a tail may be reported at, ascending, in per mille
/// (whole numbers: `n × 0.001` is not exact in floating point).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest ladder percentile that still has at least ten samples
/// beyond it — a tail read off fewer samples is one slow run, not a
/// distribution. `None` below 20 samples (not even the median has ten
/// beyond it).
pub fn supported_tail_pct(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|pm| n * (1000 - **pm) / 1000 >= 10)
        .map(|pm| *pm as f64 / 10.0)
}

/// Nearest-rank percentile `pct` (0–100) of `values`.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// `(percentile used, value)`: the supported tail of `values`, falling
/// back to the maximum (reported as percentile 100) when the sample is
/// too small for any ladder entry.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    match supported_tail_pct(values.len()) {
        Some(p) => percentile(values, p).map(|v| (p, v)),
        None => max(values).map(|v| (100.0, v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail_pct(19), None);
        assert_eq!(supported_tail_pct(20), Some(50.0));
        assert_eq!(supported_tail_pct(48), Some(75.0));
        // The issue's example: 120 ticks support p90 with 12 beyond.
        assert_eq!(supported_tail_pct(120), Some(90.0));
        assert_eq!(supported_tail_pct(199), Some(90.0));
        assert_eq!(supported_tail_pct(200), Some(95.0));
        assert_eq!(supported_tail_pct(1000), Some(99.0));
        assert_eq!(supported_tail_pct(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_falls_back_to_max_on_small_samples() {
        assert_eq!(tail(&[1.0, 5.0, 3.0]), Some((100.0, 5.0)));
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 108.0)));
    }
}
