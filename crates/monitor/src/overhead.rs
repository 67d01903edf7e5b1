//! Table IV accounting: data transferred between the controller and the
//! switch/RNIC agents.
//!
//! The paper reports per-interval transfer sizes (switches→controller
//! 520 B, RNICs→controller 12 B, controller→devices 76 B). We measure the
//! same three channels from our own wire formats so `exp table4` can
//! report the reproduction's numbers next to the paper's.

use serde::Serialize;

/// Byte counters for the three controller channels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TransferLedger {
    /// Switch agents → controller (local FSDs + switch metrics).
    pub switch_to_controller: u64,
    /// RNIC agents → controller (RTT + PFC metrics).
    pub rnic_to_controller: u64,
    /// Controller → switches & RNICs (DCQCN parameter dispatch).
    pub controller_to_devices: u64,
    /// Intervals accounted.
    pub intervals: u64,
}

impl TransferLedger {
    /// Start an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one monitor interval's transfers.
    pub fn record_interval(&mut self, switch_upload: u64, rnic_upload: u64, dispatch: u64) {
        self.switch_to_controller += switch_upload;
        self.rnic_to_controller += rnic_upload;
        self.controller_to_devices += dispatch;
        self.intervals += 1;
    }

    /// Mean bytes per interval on each channel
    /// `(switch→ctrl, rnic→ctrl, ctrl→devices)`.
    pub fn per_interval(&self) -> (f64, f64, f64) {
        let n = self.intervals.max(1) as f64;
        (
            self.switch_to_controller as f64 / n,
            self.rnic_to_controller as f64 / n,
            self.controller_to_devices as f64 / n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_intervals() {
        let mut l = TransferLedger::new();
        l.record_interval(500, 12, 76);
        l.record_interval(540, 12, 0); // no dispatch when tuning idle
        let (s, r, c) = l.per_interval();
        assert_eq!(s, 520.0);
        assert_eq!(r, 12.0);
        assert_eq!(c, 38.0);
        assert_eq!(l.intervals, 2);
    }

    #[test]
    fn empty_ledger_is_zero() {
        let l = TransferLedger::new();
        assert_eq!(l.per_interval(), (0.0, 0.0, 0.0));
    }
}
