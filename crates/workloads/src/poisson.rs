//! Open-loop Poisson flow arrivals at a target network load.
//!
//! FB_Hadoop and SolarRPC traffic are generated the way datacenter
//! transport papers do: flow sizes drawn i.i.d. from a published CDF,
//! arrival times from a Poisson process whose rate is chosen so the
//! offered load equals a fraction of the hosts' aggregate access
//! bandwidth, and (src, dst) pairs uniform over distinct hosts.

use rand::Rng;

use crate::fsize::FlowSizeDist;
use crate::{FlowRequest, HostId, Nanos};

/// Configuration for a Poisson workload.
#[derive(Debug, Clone)]
pub struct PoissonConfig {
    /// Number of participating hosts (ids `0..hosts`).
    pub hosts: usize,
    /// Access-link bandwidth per host, bytes/sec.
    pub host_bw_bytes_per_sec: f64,
    /// Target offered load as a fraction of aggregate access bandwidth
    /// (the paper's default FB_Hadoop load is 0.30).
    pub load: f64,
    /// When the process starts.
    pub start: Nanos,
    /// When the process stops generating new flows.
    pub end: Nanos,
}

/// A Poisson arrival process over a flow-size distribution.
#[derive(Debug, Clone)]
pub struct PoissonWorkload {
    cfg: PoissonConfig,
    dist: FlowSizeDist,
    /// Flow inter-arrival mean in nanoseconds.
    mean_gap_ns: f64,
}

impl PoissonWorkload {
    /// Build a workload; computes the arrival rate from the target load
    /// and the distribution's mean flow size.
    pub fn new(cfg: PoissonConfig, dist: FlowSizeDist) -> Self {
        assert!(cfg.hosts >= 2, "need at least two hosts");
        assert!(cfg.load > 0.0 && cfg.load <= 1.5, "load out of range");
        assert!(cfg.host_bw_bytes_per_sec > 0.0);
        let aggregate_bps = cfg.hosts as f64 * cfg.host_bw_bytes_per_sec;
        let target_bytes_per_sec = cfg.load * aggregate_bps;
        let flows_per_sec = target_bytes_per_sec / dist.mean_bytes();
        let mean_gap_ns = 1e9 / flows_per_sec;
        Self {
            cfg,
            dist,
            mean_gap_ns,
        }
    }

    /// The flow-size distribution in use.
    pub fn dist(&self) -> &FlowSizeDist {
        &self.dist
    }

    /// Generate the full arrival schedule for `[start, end)`.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<FlowRequest> {
        let mut out = Vec::new();
        let mut t = self.cfg.start as f64;
        loop {
            // Exponential inter-arrival via inverse transform.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -self.mean_gap_ns * u.ln();
            if t >= self.cfg.end as f64 {
                break;
            }
            let src: HostId = rng.gen_range(0..self.cfg.hosts);
            let mut dst: HostId = rng.gen_range(0..self.cfg.hosts - 1);
            if dst >= src {
                dst += 1;
            }
            out.push(FlowRequest {
                src,
                dst,
                bytes: self.dist.sample(rng),
                start: t as Nanos,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(load: f64) -> PoissonWorkload {
        PoissonWorkload::new(
            PoissonConfig {
                hosts: 16,
                host_bw_bytes_per_sec: 12.5e9, // 100 Gbps
                load,
                start: 0,
                end: 20_000_000, // 20 ms
            },
            FlowSizeDist::fb_hadoop(),
        )
    }

    #[test]
    fn offered_load_matches_target() {
        let w = workload(0.3);
        let mut rng = StdRng::seed_from_u64(1);
        let flows = w.generate(&mut rng);
        let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        let duration_s = 0.02;
        let offered = bytes as f64 / duration_s;
        let target = 0.3 * 16.0 * 12.5e9;
        // Heavy-tailed sizes make the sample mean noisy; 40% tolerance.
        assert!(
            (offered / target - 1.0).abs() < 0.4,
            "offered {offered:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn arrivals_sorted_and_in_range() {
        let w = workload(0.3);
        let mut rng = StdRng::seed_from_u64(2);
        let flows = w.generate(&mut rng);
        assert!(!flows.is_empty());
        for w2 in flows.windows(2) {
            assert!(w2[0].start <= w2[1].start);
        }
        for f in &flows {
            assert!(f.start < 20_000_000);
            assert_ne!(f.src, f.dst);
            assert!(f.src < 16 && f.dst < 16);
        }
    }

    #[test]
    fn higher_load_means_more_flows() {
        let mut rng = StdRng::seed_from_u64(3);
        let lo = workload(0.1).generate(&mut rng).len();
        let mut rng = StdRng::seed_from_u64(3);
        let hi = workload(0.8).generate(&mut rng).len();
        assert!(hi > 3 * lo, "lo={lo} hi={hi}");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let w = workload(0.3);
        let a = w.generate(&mut StdRng::seed_from_u64(9));
        let b = w.generate(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn dst_never_equals_src_even_under_stress() {
        let w = PoissonWorkload::new(
            PoissonConfig {
                hosts: 2,
                host_bw_bytes_per_sec: 12.5e9,
                load: 0.5,
                start: 0,
                end: 5_000_000,
            },
            FlowSizeDist::solar_rpc(),
        );
        let mut rng = StdRng::seed_from_u64(5);
        for f in w.generate(&mut rng) {
            assert_ne!(f.src, f.dst);
        }
    }
}
