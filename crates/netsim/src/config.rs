//! Simulator configuration.

use crate::packet::HEADER_BYTES;
use crate::Nanos;
use paraleon_dcqcn::DcqcnParams;

/// All knobs of a simulation run that are not topology or workload.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Data packet payload bytes (ns-3 RDMA sims use 1000).
    pub mtu_payload: u32,
    /// Shared packet buffer per switch (paper: 12 MB).
    pub switch_buffer_bytes: u64,
    /// Dynamic-threshold PFC α: a queue may hold up to α × (free buffer)
    /// before pausing its upstream (paper §V: α = 1/8 is standard).
    pub pfc_alpha: f64,
    /// Retransmission timeout for loss recovery (losses only occur if PFC
    /// headroom is ever exceeded; this keeps flows live regardless).
    pub rto: Nanos,
    /// Initial DCQCN parameter setting for RNICs and switches.
    pub dcqcn: DcqcnParams,
    /// Enable the DCQCN+ baseline: NP-side incast-scaled CNP intervals and
    /// RP-side increase scaling.
    pub dcqcn_plus: bool,
    /// Keypoint 1: TOS-bit dedup so each packet enters exactly one sketch.
    /// Disable to reproduce the naive-Elastic-Sketch baseline's overlap.
    pub tos_dedup: bool,
    /// Track exact per-flow bytes per interval (ground truth for the
    /// monitoring-accuracy experiments; small extra cost).
    pub track_ground_truth: bool,
    /// RNG seed (drives ECN coin flips and ECMP-independent choices).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            mtu_payload: 1000,
            switch_buffer_bytes: 12 << 20,
            pfc_alpha: 1.0 / 8.0,
            rto: 1_000_000, // 1 ms
            dcqcn: DcqcnParams::nvidia_default(),
            dcqcn_plus: false,
            tos_dedup: true,
            track_ground_truth: false,
            seed: 1,
        }
    }
}

impl SimConfig {
    /// Wire size of a full data packet.
    pub fn mtu_wire(&self) -> u32 {
        self.mtu_payload + HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_papers_setup() {
        let c = SimConfig::default();
        assert_eq!(c.switch_buffer_bytes, 12 << 20);
        assert!((c.pfc_alpha - 0.125).abs() < 1e-12);
        assert_eq!(c.mtu_wire(), 1048);
        assert!(c.tos_dedup);
        assert!(!c.dcqcn_plus);
    }
}
