//! Run fingerprints: one 64-bit hash over everything a run produced
//! that a host-time optimisation must leave untouched.
//!
//! Values are hashed through their `Debug` text. `f64` prints its
//! shortest round-trip form, so distinct bit patterns hash differently
//! (up to NaN payloads), and the benchmark names no field of
//! `IntervalRecord`/`FlowRecord`/`DcqcnParams` — a later PR may add one
//! without breaking this crate, and the new field is hashed too.

use std::fmt::{self, Debug, Write};

/// FNV-1a, 64 bit. Written out rather than `DefaultHasher` so the value
/// does not depend on the standard library's hasher of the day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fingerprint {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl Fingerprint {
    /// Fold `value`'s `Debug` text in, followed by a separator so
    /// adjacent values cannot run together.
    pub fn add<T: Debug + ?Sized>(&mut self, value: &T) {
        write!(self, "{value:?};").expect("hashing never fails");
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(items: &[f64]) -> Fingerprint {
        let mut f = Fingerprint::default();
        for i in items {
            f.add(i);
        }
        f
    }

    #[test]
    fn stable_for_equal_inputs_and_sensitive_to_one_ulp() {
        assert_eq!(fp(&[0.1, 0.2]), fp(&[0.1, 0.2]));
        let next = f64::from_bits(0.2f64.to_bits() + 1);
        assert_ne!(fp(&[0.1, 0.2]), fp(&[0.1, next]));
        assert_ne!(fp(&[0.0]), fp(&[-0.0]));
    }

    #[test]
    fn order_and_boundaries_matter() {
        assert_ne!(fp(&[1.0, 2.0]), fp(&[2.0, 1.0]));
        let mut a = Fingerprint::default();
        a.add("ab");
        a.add("c");
        let mut b = Fingerprint::default();
        b.add("a");
        b.add("bc");
        assert_ne!(a, b);
    }

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fingerprint::default().hex(), "cbf29ce484222325");
    }
}
