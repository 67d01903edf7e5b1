//! Baseline: naive Elastic Sketch monitoring.
//!
//! Classifies each flow from a *single* monitor interval: elephant iff it
//! moved ≥ τ ([`TAU_BYTES`]) bytes within that interval, mice otherwise —
//! no history, no potential-elephant state. At millisecond intervals this
//! misidentifies congested or late-arriving elephants (the failure mode
//! Figures 10–11 quantify).

use paraleon_sketch::{Fsd, FsdBuilder, TAU_BYTES};

use crate::{FsdMonitor, Nanos, SketchReadings};

/// Per-interval binary elephant/mice classification.
#[derive(Debug, Default)]
pub struct NaiveSketchMonitor {
    uploaded: u64,
}

impl FsdMonitor for NaiveSketchMonitor {
    fn on_interval(&mut self, readings: &SketchReadings, _now: Nanos) -> Option<Fsd> {
        let mut network = Fsd::empty();
        for (_, entries) in readings {
            let mut b = FsdBuilder::new();
            for &(_, bytes) in entries {
                let w = if bytes >= TAU_BYTES { 1.0 } else { 0.0 };
                b.add_flow(bytes, w);
            }
            let local = b.build();
            self.uploaded += local.wire_size_bytes() as u64;
            network.merge(&local);
        }
        Some(network)
    }

    fn uploaded_bytes(&self) -> u64 {
        self.uploaded
    }

    fn name(&self) -> &'static str {
        "ElasticSketch"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn per_interval_threshold_only() {
        let mut m = NaiveSketchMonitor::default();
        let fsd = m
            .on_interval(&[(0, vec![(1, 2 * MB), (2, 100_000)])], 0)
            .unwrap();
        // Flow 1 crosses τ this interval; flow 2 does not.
        assert!(fsd.elephant_share() > 0.9);
    }

    #[test]
    fn misidentifies_throttled_elephant() {
        // The exact failure the paper motivates: an elephant moving less
        // than τ per interval is classified as mice — every interval.
        let mut m = NaiveSketchMonitor::default();
        for _ in 0..10 {
            let fsd = m.on_interval(&[(0, vec![(9, 300_000)])], 0).unwrap();
            assert_eq!(
                fsd.elephant_share(),
                0.0,
                "naive scheme must misclassify (that's its documented flaw)"
            );
        }
    }

    #[test]
    fn no_state_across_intervals() {
        let mut m = NaiveSketchMonitor::default();
        m.on_interval(&[(0, vec![(9, 2 * MB)])], 0);
        // Next interval the same flow trickles: immediately mice again.
        let fsd = m.on_interval(&[(0, vec![(9, 1_000)])], 1).unwrap();
        assert_eq!(fsd.elephant_share(), 0.0);
    }
}
