//! PARALEON's own monitoring scheme: per-ToR sliding-window classifiers
//! over drained sketch readings, merged into the network-wide FSD.
//!
//! This is the control-plane half of §III-B: the data plane (Elastic
//! Sketch with TOS dedup) lives in the simulator's switches; this module
//! is the "switch control plane agent" that runs every λ_MI, plus the
//! per-interval upload accounting.

use paraleon_sketch::{Fsd, SlidingWindowClassifier, WindowConfig};

use crate::{FsdMonitor, FsdUpload, Nanos, PointId, SketchReadings, STALE_AFTER_INTERVALS};

/// One measurement point's switch-control-plane agent.
#[derive(Debug)]
struct Agent {
    point: PointId,
    classifier: SlidingWindowClassifier,
    /// Interval index the point last uploaded at.
    last_seen: u64,
}

/// PARALEON's layered FSD monitor (Keypoint 2 on top of Keypoint 1),
/// classifying with `WindowConfig::default()` (τ = 1 MB, δ = 3).
///
/// Its per-point state sits in point-sorted vectors: a fabric has a
/// handful of ToRs, which a binary search finds faster than a hash, and
/// a steady interval inserts nothing.
#[derive(Debug, Default)]
pub struct ParaleonMonitor {
    /// One agent per measurement point (lazy-created), sorted by point.
    agents: Vec<Agent>,
    /// Next upload sequence number per point (control-plane mode),
    /// sorted by point. Not part of `Agent` on purpose: a point that
    /// ages out and returns must continue its sequence, or
    /// `StalenessMerger::ingest` would count a sender restart that never
    /// happened.
    seqs: Vec<(PointId, u64)>,
    /// Intervals processed so far.
    interval: u64,
    uploaded: u64,
}

impl ParaleonMonitor {
    /// Total control-plane memory across switch agents (Table IV).
    pub fn control_plane_memory_bytes(&self) -> usize {
        self.agents
            .iter()
            .map(|a| a.classifier.memory_bytes())
            .sum()
    }

    /// The fabric-side half of one interval: run every reporting point's
    /// classifier, account its upload, hand `emit` the point's local FSD
    /// in `readings` order (the central merge and the per-point upload
    /// path share this), and age out points that stopped reporting.
    fn ingest_points(&mut self, readings: &SketchReadings, mut emit: impl FnMut(PointId, Fsd)) {
        self.interval += 1;
        // Only points that actually uploaded contribute: a dead switch
        // is skipped entirely rather than averaged in as zeros.
        for (point, entries) in readings {
            let at = match self.agents.binary_search_by_key(point, |a| a.point) {
                Ok(at) => at,
                Err(at) => {
                    self.agents.insert(
                        at,
                        Agent {
                            point: *point,
                            classifier: SlidingWindowClassifier::new(WindowConfig::default()),
                            last_seen: 0,
                        },
                    );
                    at
                }
            };
            let agent = &mut self.agents[at];
            agent.last_seen = self.interval;
            agent.classifier.end_interval(entries.iter().copied());
            let local = agent.classifier.local_fsd();
            // Layered upload: each switch ships only its local FSD.
            self.uploaded += local.wire_size_bytes() as u64;
            emit(*point, local);
        }
        // Age out points that stopped reporting: a dead switch's stale
        // window holds control-plane memory and would resume with
        // out-of-date flow history after a long outage.
        let horizon = self.interval.saturating_sub(STALE_AFTER_INTERVALS);
        self.agents.retain(|agent| agent.last_seen > horizon);
    }

    /// Take `point`'s next upload sequence number.
    fn next_seq(&mut self, point: PointId) -> u64 {
        let at = match self.seqs.binary_search_by_key(&point, |&(p, _)| p) {
            Ok(at) => at,
            Err(at) => {
                self.seqs.insert(at, (point, 0));
                at
            }
        };
        let seq = &mut self.seqs[at].1;
        *seq += 1;
        *seq - 1
    }
}

impl FsdMonitor for ParaleonMonitor {
    fn on_interval(&mut self, readings: &SketchReadings, _now: Nanos) -> Option<Fsd> {
        let mut network = Fsd::empty();
        self.ingest_points(readings, |_, local| network.merge(&local));
        Some(network)
    }

    fn uploads(&mut self, readings: &SketchReadings, _now: Nanos, interval: u64) -> Vec<FsdUpload> {
        // Layered by construction: each point ships its own local FSD
        // with a per-point monotone sequence number — no synthetic
        // central wrapper needed.
        let mut ups = Vec::with_capacity(readings.len());
        self.ingest_points(readings, |point, fsd| {
            ups.push(FsdUpload {
                point,
                seq: 0,
                interval,
                fsd,
            });
        });
        for up in &mut ups {
            up.seq = self.next_seq(up.point);
        }
        ups
    }

    fn uploaded_bytes(&self) -> u64 {
        self.uploaded
    }

    fn name(&self) -> &'static str {
        "PARALEON"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn classifies_across_intervals_like_the_window() {
        let mut m = ParaleonMonitor::default();
        // A flow trickling 0.2 MB per interval through switch 0: mice for
        // two intervals, PE from the third, elephant once Φ ≥ 1 MB.
        let step = 200 * 1024;
        let mut shares = Vec::new();
        for _ in 0..6 {
            let fsd = m
                .on_interval(&[(0, vec![(7, step)])], 0)
                .expect("always returns an fsd");
            shares.push(fsd.elephant_share());
        }
        assert_eq!(shares[0], 0.0);
        assert_eq!(shares[1], 0.0);
        assert!(shares[2] > 0.0, "PE contribution appears at MI3");
        assert!(shares[3] > shares[2], "PE likelihood refines upward");
        assert!(shares[5] > 0.99, "Φ = 1.2 MB ≥ τ: full elephant");
    }

    #[test]
    fn merges_multiple_switches() {
        let mut m = ParaleonMonitor::default();
        let fsd = m
            .on_interval(
                &[(0, vec![(1, 5 * MB)]), (1, vec![(2, 2_000), (3, 3_000)])],
                0,
            )
            .unwrap();
        assert!((fsd.flow_mass() - 3.0).abs() < 1e-9);
        assert!(fsd.elephant_share() > 0.99);
    }

    #[test]
    fn upload_accounting_grows_per_switch_per_interval() {
        let mut m = ParaleonMonitor::default();
        m.on_interval(&[(0, vec![(1, 100)]), (1, vec![(2, 100)])], 0);
        let per_switch = Fsd::empty().wire_size_bytes() as u64;
        assert_eq!(m.uploaded_bytes(), 2 * per_switch);
        m.on_interval(&[(0, vec![(1, 100)])], 1);
        assert_eq!(m.uploaded_bytes(), 3 * per_switch);
    }

    #[test]
    fn congested_elephant_stays_elephant() {
        // The headline fix over naive ES: an elephant throttled below τ
        // per interval keeps its state thanks to history.
        let mut m = ParaleonMonitor::default();
        m.on_interval(&[(0, vec![(9, 2 * MB)])], 0);
        for _ in 0..4 {
            let fsd = m.on_interval(&[(0, vec![(9, 10_000)])], 0).unwrap();
            assert!(
                fsd.elephant_share() > 0.99,
                "history must keep the flow an elephant"
            );
        }
    }

    #[test]
    fn missing_upload_does_not_poison_the_merge() {
        let mut m = ParaleonMonitor::default();
        // Two switches each see an elephant.
        m.on_interval(&[(0, vec![(1, 5 * MB)]), (1, vec![(2, 5 * MB)])], 0);
        // Switch 1 dies: only switch 0 uploads. The network FSD must be
        // built from switch 0 alone — not dragged down by zeros for the
        // silent switch.
        let fsd = m.on_interval(&[(0, vec![(1, 5 * MB)])], 1).unwrap();
        assert!((fsd.flow_mass() - 1.0).abs() < 1e-9);
        assert!(fsd.elephant_share() > 0.99);
    }

    #[test]
    fn silent_points_age_out_after_the_idle_horizon() {
        let mut m = ParaleonMonitor::default();
        m.on_interval(&[(0, vec![(1, MB)]), (1, vec![(2, MB)])], 0);
        assert_eq!(m.agents.len(), 2);
        // Switch 1 goes silent; its classifier survives
        // STALE_AFTER_INTERVALS - 1 silent intervals and is discarded on the
        // next one.
        for _ in 1..STALE_AFTER_INTERVALS {
            m.on_interval(&[(0, vec![(1, MB)])], 0);
            assert_eq!(m.agents.len(), 2, "within tolerance: state retained");
        }
        m.on_interval(&[(0, vec![(1, MB)])], 0);
        assert_eq!(m.agents.len(), 1, "past tolerance: state aged out");
        assert!(m.agents.iter().all(|a| a.point != 1));
        // If it comes back, it restarts with a fresh window (no stale
        // elephant history).
        let fsd = m.on_interval(&[(1, vec![(9, 1_000)])], 0).unwrap();
        assert_eq!(m.agents.len(), 2);
        assert!(fsd.elephant_share() < 0.01, "fresh window, mice only");
    }

    #[test]
    fn aged_out_point_resumes_with_a_later_seq() {
        let mut m = ParaleonMonitor::default();
        let mut merger = crate::StalenessMerger::default();
        let both = [(0, vec![(1, MB)]), (1, vec![(2, MB)])];
        let only_0 = [(0, vec![(1, MB)])];
        // Point 1 uploads seq 0 and 1, then stays silent past the idle
        // horizon; the merger, never asked to merge, still holds its
        // watermark.
        let back_at = 2 + STALE_AFTER_INTERVALS;
        for k in 0..back_at {
            let readings = if k < 2 { &both[..] } else { &only_0[..] };
            for u in m.uploads(readings, 0, k) {
                assert!(merger.ingest(u));
            }
        }
        assert_eq!(m.agents.iter().map(|a| a.point).collect::<Vec<_>>(), [0]);
        let ups = m.uploads(&both, 0, back_at);
        assert_eq!(m.agents.len(), 2);
        let back = ups.iter().find(|u| u.point == 1).expect("point 1 reported");
        assert_eq!(back.seq, 2, "the sequence continues, it does not restart");
        for u in ups {
            assert!(merger.ingest(u));
        }
        assert_eq!(merger.restarts, 0);
    }

    #[test]
    fn upload_path_matches_central_merge_bit_for_bit() {
        // Two identical monitors, one driven through `on_interval`
        // (central merge), one through `uploads` + a StalenessMerger
        // (control-plane path, clean channel): the network FSDs must be
        // byte-identical every interval.
        let mut central = ParaleonMonitor::default();
        let mut layered = ParaleonMonitor::default();
        let mut merger = crate::StalenessMerger::default();
        for k in 0..6u64 {
            let readings = [(0, vec![(7, 300 * 1024)]), (1, vec![(8, 2 * MB)])];
            let want = central.on_interval(&readings, 0).unwrap();
            let ups = layered.uploads(&readings, 0, k);
            assert_eq!(ups.len(), 2);
            assert!(ups.iter().all(|u| u.seq == k), "per-point monotone seq");
            for u in ups {
                assert!(merger.ingest(u));
            }
            let got = merger.network_fsd(k);
            assert_eq!(got, want, "interval {k}");
        }
        assert_eq!(central.uploaded_bytes(), layered.uploaded_bytes());
    }

    #[test]
    fn control_plane_memory_tracks_flows() {
        let mut m = ParaleonMonitor::default();
        m.on_interval(&[(0, (0..10u64).map(|f| (f, 1000u64)).collect())], 0);
        assert!(m.control_plane_memory_bytes() > 0);
    }
}
