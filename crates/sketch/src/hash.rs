//! Seeded 64-bit mixers used as the sketch hash family.
//!
//! Tofino-class hardware uses CRC-polynomial hash units; any pairwise-
//! independent-ish mixer reproduces their statistical behaviour. We use
//! SplitMix64 finalisation keyed by a per-row seed: cheap, stateless and
//! deterministic across runs, which keeps whole-simulation replays exact.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One member of the hash family, keyed by `seed`.
#[inline]
pub fn hash64(key: u64, seed: u64) -> u64 {
    // SplitMix64 finalizer over key XOR a seed-derived stream constant.
    let mut z = key ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`Hasher`] for the control plane's flow-keyed maps: one folded
/// multiply (the low and high halves of a 128-bit product, xored), so
/// every key bit reaches both the low bits the map indexes by and the
/// high bits it tags entries with.
///
/// `SlidingWindowClassifier` only *looks flows up* in its `index` (flow →
/// record slot); no result depends on the map's iteration order — its
/// float sums run over its active list. What the fixed function
/// still buys over the standard per-instance-seeded SipHash: one
/// multiply per lookup on the per-interval hot path, where a mouse flow
/// costs an insert and a removal, and a map whose layout and probe
/// lengths repeat in every run and every `Clone`, so timings are
/// comparable between runs. Not DoS-resistant: the keys are the
/// simulator's own flow ids.
#[derive(Default)]
pub(crate) struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(n ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

/// A flow-keyed `HashMap` with the fixed, cheap [`FlowIdHasher`].
pub(crate) type FlowMap<V> = HashMap<crate::FlowId, V, BuildHasherDefault<FlowIdHasher>>;

/// Map `key` to a bucket index in `[0, n)` using hash row `seed`.
#[inline]
pub fn bucket(key: u64, seed: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    // Multiply-shift range reduction avoids modulo bias for small n.
    ((hash64(key, seed) as u128 * n as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_inputs() {
        assert_eq!(hash64(42, 7), hash64(42, 7));
        assert_eq!(bucket(42, 7, 1024), bucket(42, 7, 1024));
    }

    #[test]
    fn different_seeds_give_different_rows() {
        let collisions = (0..1000u64)
            .filter(|&k| bucket(k, 1, 64) == bucket(k, 2, 64))
            .count();
        // Independent rows collide with p = 1/64; allow generous slack.
        assert!(collisions < 60, "rows look correlated: {collisions}");
    }

    #[test]
    fn bucket_always_in_range() {
        for k in 0..10_000u64 {
            assert!(bucket(k, 3, 17) < 17);
        }
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let n = 16;
        let mut counts = vec![0usize; n];
        for k in 0..16_000u64 {
            counts[bucket(k, 99, n)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed bucket load: {c}");
        }
    }
}
