//! Host-speed calibration: the benchmark's answer to a box whose speed
//! moves under it.
//!
//! The reference box runs identical work at anything between 1.0× and
//! 1.8× its best time, for seconds to minutes at a stretch (a busy
//! sibling hyperthread, neighbours' cache and memory traffic): ten runs
//! of one commit have spread 23% in events/s, two passes minutes apart
//! have differed by 30%. No estimator over ten seconds of samples can
//! average that away, and the bounds may not exceed 25%.
//!
//! So every timed stretch is bracketed by *calibration slices*: a fixed
//! piece of work that belongs to the benchmark alone — no crate of the
//! repository is in it, so no change to the repository can make it
//! faster — and that slows down with the host much as the simulator
//! does (job and slice slow-downs correlate at 0.76 sample by sample;
//! in a contended phase both read ≈1.5×). A host time is then reported
//! in *reference seconds*: measured × ([`NOMINAL_MS`] ÷ the slices
//! measured beside it) — what the stretch would have taken on a host
//! where a slice takes `NOMINAL_MS`.

use std::time::Instant;

/// What a slice beside a job typically took on the reference box when
/// the benchmark was defined (with the job's data, not the slice's, in
/// the caches), ms — so that reference seconds read close to that box's
/// real ones. A frozen scale factor: changing it rescales every
/// host-time metric.
pub const NOMINAL_MS: f64 = 3.3;

/// A dependent chain of random reads and writes over a table larger
/// than the private caches: every step waits for the one before it, as
/// an event loop chasing queue and hash-map pointers does.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Calibrator {
    /// 2 Mi words = 16 MiB.
    const WORDS: usize = 1 << 21;
    const STEPS: usize = 20_000;

    pub fn new() -> Self {
        let mut c = Self {
            table: (0..Self::WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            state: 0x2545_F491_4F6C_DD1D,
        };
        // The first slices pay for page faults and cold TLBs.
        for _ in 0..8 {
            c.slice_ms();
        }
        c
    }

    /// Run one slice; its time in milliseconds.
    pub fn slice_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.state;
        for _ in 0..Self::STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & (Self::WORDS - 1)];
            *slot = slot.wrapping_add(x).rotate_left(5);
            x ^= *slot;
        }
        self.state = x;
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// `measured` (any unit of time) in reference units, given the slices
/// taken just before and just after it.
pub fn to_reference(measured: f64, slice_before_ms: f64, slice_after_ms: f64) -> f64 {
    measured * NOMINAL_MS / ((slice_before_ms + slice_after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_scales_with_the_slices_beside_it() {
        // A host running at half speed doubles both the job and the
        // slices: the reference time does not move.
        let fast = to_reference(100.0, NOMINAL_MS, NOMINAL_MS);
        let slow = to_reference(200.0, 2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS);
        assert_eq!(fast, 100.0);
        assert_eq!(slow, 100.0);
        // Real work getting slower at unchanged host speed shows 1:1.
        assert_eq!(to_reference(150.0, NOMINAL_MS, NOMINAL_MS), 150.0);
        // The two neighbours are averaged.
        assert_eq!(to_reference(100.0, NOMINAL_MS, 3.0 * NOMINAL_MS), 50.0);
    }

    #[test]
    fn slices_are_deterministic_work() {
        let mut a = Calibrator::new();
        let mut b = Calibrator::new();
        a.slice_ms();
        b.slice_ms();
        assert_eq!(a.state, b.state);
        assert!(a.slice_ms() > 0.0);
    }
}
