//! Controller-side resilience to a faulty upload channel.
//!
//! Under an explicit control plane (PR 7) the per-ToR local FSDs no
//! longer arrive as one synchronous batch: each measurement point ships
//! a sequence-numbered, λ_MI-stamped [`FsdUpload`], and the channel in
//! between may lose, delay, duplicate or reorder it. The
//! [`StalenessMerger`] is the aggregation half of the Runtime Metric
//! Monitor hardened against that: it keeps only the newest accepted
//! upload per point (sequence numbers make duplicates and stale
//! reorderings idempotent no-ops), and when asked for the network-wide
//! FSD it down-weights each point's contribution by how many intervals
//! old it is — a late switch degrades coverage smoothly instead of
//! poisoning the merge, and a switch silent past the staleness horizon
//! drops out entirely (mirroring `ParaleonMonitor`'s age-out of dead
//! points).
//!
//! Determinism: the merge iterates points in ascending [`PointId`]
//! order (a `BTreeMap`), and a fresh upload (age 0) contributes its FSD
//! bit-identically (`Fsd::scaled(1.0)` is a clone) — so over a clean
//! channel the merger reproduces `ParaleonMonitor::on_interval`'s
//! central merge exactly, byte for byte.

use std::collections::BTreeMap;

use paraleon_sketch::Fsd;
use serde::Serialize;

use crate::{PointId, STALE_AFTER_INTERVALS};

/// One measurement point's per-interval upload: its local FSD, stamped
/// with the λ_MI index it was measured in and a per-point sequence
/// number (monotone at the sender, so the receiver can discard
/// duplicates and stale reorderings).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FsdUpload {
    /// The uploading measurement point (ToR switch).
    pub point: PointId,
    /// Per-point upload sequence number (monotone at the sender).
    pub seq: u64,
    /// Monitor-interval index the reading was measured in.
    pub interval: u64,
    /// The point's local FSD for that interval.
    pub fsd: Fsd,
}

/// Staleness-weighted partial aggregator of per-point FSD uploads. A
/// point drops out once its newest upload is as old as the horizon
/// `ParaleonMonitor` ages its silent points out by.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StalenessMerger {
    /// Newest accepted upload per point, keyed for deterministic
    /// ascending-point merge order.
    latest: BTreeMap<PointId, FsdUpload>,
    /// Uploads accepted as the new latest for their point.
    pub accepted: u64,
    /// Uploads rejected as duplicates or stale reorderings (their
    /// sequence number did not advance the point's newest).
    pub rejected: u64,
    /// Points dropped from the merge after exceeding the staleness
    /// horizon.
    pub aged_out: u64,
    /// Accepted uploads whose sequence number regressed while their
    /// interval advanced — a sender restart (e.g. a cold-restored
    /// tenant re-numbering from 0).
    pub restarts: u64,
}

impl StalenessMerger {
    /// Points currently contributing to the merge.
    pub fn n_points(&self) -> usize {
        self.latest.len()
    }

    /// Ingest one delivered upload. Returns `true` if it became the
    /// point's newest. Admission is interval-first: an upload measured
    /// in an older interval than the point's newest is a stale reorder,
    /// and within the same interval a non-advancing sequence number is a
    /// duplicate — both rejected, which is what makes delivery
    /// idempotent under channel duplication and reordering. An upload
    /// from a strictly newer interval whose sequence number *regressed*
    /// is a sender restart (the sender renumbers from 0 after a cold
    /// restore): it is accepted and counted, so a restarted point is
    /// never permanently rejected by its pre-crash watermark. Within one
    /// sender generation seq and interval are monotone together — the
    /// interval is stamped by the measuring loop, not by sender state —
    /// so the two orderings can only disagree across a restart.
    pub fn ingest(&mut self, up: FsdUpload) -> bool {
        match self.latest.get(&up.point) {
            Some(have) if up.interval < have.interval => {
                self.rejected += 1;
                false
            }
            Some(have) if up.interval == have.interval && up.seq <= have.seq => {
                self.rejected += 1;
                false
            }
            Some(have) if up.seq <= have.seq => {
                self.restarts += 1;
                self.accepted += 1;
                self.latest.insert(up.point, up);
                true
            }
            _ => {
                self.accepted += 1;
                self.latest.insert(up.point, up);
                true
            }
        }
    }

    /// Staleness weight for a reading `age` intervals old: 1 when
    /// fresh, linearly decaying to 0 at the horizon.
    fn weight(age: u64) -> f64 {
        if age >= STALE_AFTER_INTERVALS {
            return 0.0;
        }
        (STALE_AFTER_INTERVALS - age) as f64 / STALE_AFTER_INTERVALS as f64
    }

    /// The network-wide FSD as of interval `now`: prune points past the
    /// staleness horizon, then merge the survivors in ascending point
    /// order, each scaled by its staleness weight. Fresh uploads (age 0)
    /// contribute bit-identically to an unweighted merge.
    pub fn network_fsd(&mut self, now: u64) -> Fsd {
        let before = self.latest.len();
        self.latest
            .retain(|_, up| now.saturating_sub(up.interval) < STALE_AFTER_INTERVALS);
        self.aged_out += (before - self.latest.len()) as u64;
        let mut network = Fsd::empty();
        for up in self.latest.values() {
            let age = now.saturating_sub(up.interval);
            let w = Self::weight(age);
            if age == 0 {
                // `scaled(1.0)` copies; merging the original skips the
                // copy on the clean-channel fast path.
                network.merge(&up.fsd);
            } else {
                network.merge(&up.fsd.scaled(w));
            }
        }
        network
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use paraleon_sketch::FsdBuilder;

    fn one_flow(bytes: u64) -> Fsd {
        let mut b = FsdBuilder::new();
        b.add_flow(bytes, 1.0);
        b.build()
    }

    fn upload(point: PointId, seq: u64, interval: u64, bytes: u64) -> FsdUpload {
        FsdUpload {
            point,
            seq,
            interval,
            fsd: one_flow(bytes),
        }
    }

    #[test]
    fn fresh_merge_matches_unweighted_merge() {
        let mut m = StalenessMerger::default();
        m.ingest(upload(0, 0, 5, 10_000));
        m.ingest(upload(1, 0, 5, 5_000_000));
        let got = m.network_fsd(5);
        let mut want = Fsd::empty();
        want.merge(&one_flow(10_000));
        want.merge(&one_flow(5_000_000));
        assert_eq!(got, want, "age-0 merge must be bit-identical");
    }

    #[test]
    fn duplicates_and_reorders_are_idempotent() {
        let mut m = StalenessMerger::default();
        assert!(m.ingest(upload(0, 3, 3, 1_000)));
        assert!(!m.ingest(upload(0, 3, 3, 1_000)), "duplicate rejected");
        assert!(!m.ingest(upload(0, 1, 1, 9_999)), "stale reorder rejected");
        assert!(m.ingest(upload(0, 4, 4, 2_000)), "newer accepted");
        assert_eq!(m.accepted, 2);
        assert_eq!(m.rejected, 2);
        let fsd = m.network_fsd(4);
        let mut want = Fsd::empty();
        want.merge(&one_flow(2_000));
        assert_eq!(fsd, want, "only the newest upload contributes");
    }

    #[test]
    fn stale_points_decay_then_age_out() {
        let mut m = StalenessMerger::default();
        m.ingest(upload(0, 0, 0, 1_000));
        let fresh_mass = m.network_fsd(0).flow_mass();
        assert!((fresh_mass - 1.0).abs() < 1e-12);
        let aged_mass = m.network_fsd(16).flow_mass();
        assert!(
            (aged_mass - 0.5).abs() < 1e-12,
            "age 16 of 32 → weight 0.5, got {aged_mass}"
        );
        let last_mass = m.network_fsd(31).flow_mass();
        assert!(
            (last_mass - 1.0 / 32.0).abs() < 1e-12,
            "age 31 of 32 → weight 1/32, got {last_mass}"
        );
        assert_eq!(m.n_points(), 1);
        let gone = m.network_fsd(32);
        assert_eq!(gone.flow_mass(), 0.0);
        assert_eq!(m.n_points(), 0, "past horizon: point dropped");
        assert_eq!(m.aged_out, 1);
    }

    #[test]
    fn sender_restart_is_not_permanently_rejected() {
        // Regression: a tenant crash + cold restore renumbers the
        // sender's upload seq from 0. The pre-crash monotone watermark
        // (seq 100) must not permanently reject the fresh stream.
        let mut m = StalenessMerger::default();
        assert!(m.ingest(upload(0, 100, 40, 1_000)));
        // Crash at interval 40; the restored sender resumes at interval
        // 41 with seq 0, 1, 2, ...
        assert!(
            m.ingest(upload(0, 0, 41, 2_000)),
            "restarted stream's first upload must be accepted"
        );
        assert!(m.ingest(upload(0, 1, 42, 3_000)));
        assert_eq!(m.restarts, 1, "only the seq regression counts as restart");
        assert_eq!(m.rejected, 0);
        // The merge reflects the newest post-restart reading.
        let fsd = m.network_fsd(42);
        let mut want = Fsd::empty();
        want.merge(&one_flow(3_000));
        assert_eq!(fsd, want);
        // An old-generation straggler (high seq, old interval) delivered
        // late must not overwrite the fresh stream.
        assert!(
            !m.ingest(upload(0, 99, 39, 9_999)),
            "old-generation straggler rejected by interval"
        );
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn same_interval_duplicates_still_rejected_across_restart() {
        let mut m = StalenessMerger::default();
        assert!(m.ingest(upload(0, 0, 10, 1_000)));
        assert!(
            !m.ingest(upload(0, 0, 10, 1_000)),
            "same interval + same seq is a duplicate, not a restart"
        );
        assert_eq!(m.restarts, 0);
        assert_eq!(m.rejected, 1);
    }

    #[test]
    fn latest_keeps_fresh_and_lagging_points_apart() {
        let mut m = StalenessMerger::default();
        m.ingest(upload(0, 5, 5, 1_000));
        m.ingest(upload(1, 3, 3, 1_000));
        let intervals: Vec<u64> = m.latest.values().map(|up| up.interval).collect();
        assert_eq!(intervals, [5, 3], "one fresh at interval 5, one lagging");
    }
}
