//! Baseline: NetFlow-style monitoring — packet sampling at a coarse
//! export period.
//!
//! Commodity (non-programmable) switches offer NetFlow/sFlow: each packet
//! is sampled with probability `1/sampling_rate`, per-flow byte counts
//! are scaled back up by the sampling rate, and records are exported only
//! every O(seconds). The paper configures 1:100 sampling with a 1 s
//! export period; both the sampling noise (mice are frequently missed
//! entirely) and the staleness (millisecond workload shifts are invisible
//! between exports) degrade the FSD this scheme feeds the tuner.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use paraleon_sketch::{FlowId, Fsd, FsdBuilder, TAU_BYTES};

use crate::{FsdMonitor, Nanos, SketchReadings};

/// Sample one packet in `SAMPLING_RATE` (paper: 1:100).
const SAMPLING_RATE: u64 = 100;
/// Export period (paper: 1 s).
const EXPORT_PERIOD: Nanos = 1_000_000_000;
/// Assumed packet size for converting bytes to packets.
const PKT_BYTES: u64 = 1000;
/// Sampling RNG seed.
const SEED: u64 = 77;

/// The NetFlow baseline monitor.
#[derive(Debug)]
pub struct NetFlowMonitor {
    rng: StdRng,
    /// Sampled (already scaled-up) byte counts accumulating toward the
    /// next export.
    pending: HashMap<FlowId, u64>,
    window_start: Option<Nanos>,
    last_export: Option<Fsd>,
    uploaded: u64,
}

impl Default for NetFlowMonitor {
    fn default() -> Self {
        Self {
            rng: StdRng::seed_from_u64(SEED),
            pending: HashMap::new(),
            window_start: None,
            last_export: None,
            uploaded: 0,
        }
    }
}

impl NetFlowMonitor {
    /// Sample `n` Bernoulli(p) trials. Exact for small `n`, normal
    /// approximation for large `n` (keeps per-interval cost bounded).
    fn sample_binomial(rng: &mut StdRng, n: u64, p: f64) -> u64 {
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        if n <= 512 {
            (0..n).filter(|_| rng.gen::<f64>() < p).count() as u64
        } else {
            let mean = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            // Box–Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (mean + sd * z).round().clamp(0.0, n as f64) as u64
        }
    }
}

impl FsdMonitor for NetFlowMonitor {
    fn on_interval(&mut self, readings: &SketchReadings, now: Nanos) -> Option<Fsd> {
        let start = *self.window_start.get_or_insert(now);
        let p = 1.0 / SAMPLING_RATE as f64;
        for (_, entries) in readings {
            for &(flow, bytes) in entries {
                let pkts = bytes.div_ceil(PKT_BYTES);
                let sampled = Self::sample_binomial(&mut self.rng, pkts, p);
                if sampled > 0 {
                    // Scale the sampled packets back up.
                    *self.pending.entry(flow).or_insert(0) += sampled * SAMPLING_RATE * PKT_BYTES;
                }
            }
        }
        if now.saturating_sub(start) >= EXPORT_PERIOD {
            let mut b = FsdBuilder::new();
            for (_, &bytes) in self.pending.iter() {
                let w = if bytes >= TAU_BYTES { 1.0 } else { 0.0 };
                b.add_flow(bytes, w);
            }
            let fsd = b.build();
            self.uploaded += fsd.wire_size_bytes() as u64 + self.pending.len() as u64 * 12;
            self.pending.clear();
            self.window_start = Some(now);
            self.last_export = Some(fsd);
        }
        self.last_export.clone()
    }

    fn uploaded_bytes(&self) -> u64 {
        self.uploaded
    }

    fn name(&self) -> &'static str {
        "NetFlow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;
    const MS: Nanos = 1_000_000;
    /// Monitor intervals in one export period.
    const PERIOD_MS: u64 = EXPORT_PERIOD / MS;

    #[test]
    fn nothing_exported_before_period_elapses() {
        let mut m = NetFlowMonitor::default();
        for i in 0..PERIOD_MS {
            let out = m.on_interval(&[(0, vec![(1, 10 * MB)])], i * MS);
            assert!(out.is_none(), "no export before 1 s");
        }
    }

    #[test]
    fn exports_after_period_and_reuses_until_next() {
        let mut m = NetFlowMonitor::default();
        for i in 0..=PERIOD_MS {
            m.on_interval(&[(0, vec![(1, 10 * MB)])], i * MS);
        }
        let first = m.on_interval(&[(0, vec![(1, 10 * MB)])], (PERIOD_MS + 1) * MS);
        assert!(first.is_some() || m.last_export.is_some());
        // Subsequent intervals return the stale export (staleness is the
        // point of this baseline).
        let stale = m.on_interval(&[(0, vec![])], (PERIOD_MS + 2) * MS).unwrap();
        assert!(!stale.is_empty());
    }

    #[test]
    fn big_elephants_survive_sampling_mice_mostly_vanish() {
        let mut m = NetFlowMonitor::default();
        // One 5 MB-per-interval elephant and 200 fresh single-packet mice
        // per interval, over one export period and a bit.
        for i in 0..=PERIOD_MS + 1 {
            let mut entries = vec![(1u64, 5 * MB)];
            for k in 0..200u64 {
                entries.push((1000 + 200 * i + k, 1000));
            }
            m.on_interval(&[(0, entries)], i * MS);
        }
        let fsd = m.last_export.clone().expect("exported");
        // The elephant is detected; 1:100 sampling misses ~99% of the
        // one-packet mice, so flow mass is far below the ~200 000 true
        // flows of the export.
        let true_flows = 200.0 * (PERIOD_MS + 1) as f64;
        assert!(fsd.elephant_share() > 0.5);
        assert!(
            fsd.flow_mass() < 0.02 * true_flows,
            "mass {}",
            fsd.flow_mass()
        );
    }

    #[test]
    fn sampling_estimate_is_unbiased_for_large_flows() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000u64;
        let p = 0.01;
        let mut total = 0u64;
        for _ in 0..50 {
            total += NetFlowMonitor::sample_binomial(&mut rng, n, p);
        }
        let mean = total as f64 / 50.0;
        assert!((mean - 1000.0).abs() < 50.0, "mean {mean}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(NetFlowMonitor::sample_binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(NetFlowMonitor::sample_binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(NetFlowMonitor::sample_binomial(&mut rng, 10, 1.0), 10);
        let s = NetFlowMonitor::sample_binomial(&mut rng, 1_000_000, 0.5);
        assert!(s <= 1_000_000);
    }
}
