//! A deterministic, cheap hasher for small integer keys.
//!
//! The simulator's inner loop does several `HashMap` operations per
//! packet (per-QP sender/receiver lookups, the base-RTT cache). The
//! standard library's default SipHash is both slower than the lookups it
//! guards and randomly seeded per process, which would make map iteration
//! order differ between runs. Nothing in the simulator *observes*
//! iteration order, but a fixed-seed hasher removes the possibility by
//! construction and cuts the per-lookup cost to a couple of multiplies.
//!
//! The mix is the SplitMix64 finalizer — the same family the measurement
//! sketch uses (`paraleon_sketch::hash`), which is well distributed for
//! the dense small integers we key on (flow ids, host-id pairs).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`Hasher`] for integer keys: state is folded with a SplitMix64-style
/// finalizer per written word. Not DoS-resistant — simulator internals
/// only hash their own trusted keys.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, n: u64) {
        let mut z = self.0 ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (derived Hash on structs); word-chunked.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Full-avalanche SplitMix64 mix of one word: every input bit affects
/// every output bit, so related inputs (a base seed XOR a small node id)
/// come out pseudo-independent. This is the derivation for per-switch
/// sketch seeds — arithmetic derivations like `base + node` leave
/// structured, low-weight XOR differences between the derived seeds,
/// which downstream XOR-keyed hash families turn into identical hash
/// functions on different switches.
#[inline]
pub fn mix64(n: u64) -> u64 {
    let mut z = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `HashMap` with the deterministic integer hasher.
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_hash() {
        let mut a = IntHasher::default();
        let mut b = IntHasher::default();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_small_keys_spread() {
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..10_000 {
            let mut h = IntHasher::default();
            h.write_u64(k);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "small dense keys must not collide");
    }

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k, k * 2);
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(&k), Some(&(k * 2)));
        }
        assert_eq!(m.remove(&7), Some(14));
        assert_eq!(m.len(), 999);
    }
}
