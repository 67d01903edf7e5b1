//! Log-bucketed (HDR-style) histogram for latency / size / depth
//! distributions.
//!
//! Values are `u64` (nanoseconds, bytes, packets — caller's choice of
//! unit). Buckets are exact below [`SUB_BUCKETS`] and logarithmic above
//! with [`SUB_BUCKETS`] sub-buckets per octave, bounding the relative
//! quantile error at `1 / SUB_BUCKETS` (≈3.1%). Recording is two array
//! index computations and an increment — no allocation, no float math.

/// Sub-buckets per octave (power of two).
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Total bucket count: exact region + one row per remaining octave.
pub(crate) const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Fixed-size log-bucketed histogram.
#[derive(Clone, PartialEq)]
pub struct LogHistogram {
    counts: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Map a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let row = (msb - SUB_BITS + 1) as usize;
        let sub = ((v >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        row * SUB_BUCKETS + sub
    }
}

/// Lowest value that lands in bucket `idx` (the bucket's representative
/// value for quantile queries).
#[inline]
fn bucket_floor(idx: usize) -> u64 {
    let row = idx / SUB_BUCKETS;
    let sub = (idx % SUB_BUCKETS) as u64;
    if row == 0 {
        sub
    } else {
        let msb = row as u32 + SUB_BITS - 1;
        (1u64 << msb) | (sub << (msb - SUB_BITS))
    }
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value. O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the floor of the bucket
    /// containing the rank-`ceil(q·n)` value, clamped to the observed
    /// min/max so exact extremes survive bucketing.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forget all samples.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Heap + inline bytes held by this histogram.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of::<[u64; NUM_BUCKETS]>()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .field("p50", &self.value_at_quantile(0.5))
            .field("p99", &self.value_at_quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_round_trips() {
        for v in (0u64..100).chain([1 << 20, u64::MAX, 12345678, 31, 32, 33]) {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            let lo = bucket_floor(idx);
            assert!(lo <= v, "floor {lo} above value {v}");
            // The next bucket's floor must be above v.
            if idx + 1 < NUM_BUCKETS {
                assert!(bucket_floor(idx + 1) > v, "value {v} not below next bucket");
            }
        }
    }

    #[test]
    fn exact_region_is_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 31);
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let (mut a, mut b, mut c) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for v in [1u64, 500, 90_000, 3] {
            a.record(v);
            c.record(v);
        }
        for v in [7u64, 7_000_000, 42] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.value_at_quantile(q), c.value_at_quantile(q));
        }
    }
}
