//! Synchronized alltoall collectives with an ON-OFF compute cycle —
//! the paper's LLM-training workload.
//!
//! During the ON period every worker sends the same message size to every
//! other worker (`n·(n−1)` simultaneous flows — the most incast-prone
//! collective, which is why the paper picks alltoall over ring/tree
//! allreduce). When the **last** flow of the round completes, all workers
//! enter an OFF period (model update, paper default 20 ms) and then start
//! the next round.
//!
//! [`AllToAll`] is a round state machine implementing
//! [`crate::Collective`] over the round bookkeeping the other
//! collectives share: the embedding simulator calls
//! [`Collective::start_round`] to obtain the round's flows and
//! [`Collective::on_flow_done`] at each completion; the latter returns
//! the start time of the next round once the round drains. Misuse
//! (driving a finished machine, completions with no round in flight —
//! states hunt mutations can reach) reports a typed [`CollectiveError`]
//! instead of panicking, and the final round's duration is recorded
//! *before* the finished check so bounded runs never lose their last
//! data point.

use crate::collective::{Collective, CollectiveError, Progress, RoundCore};
use crate::{FlowRequest, HostId, Nanos};

/// Configuration of an ON-OFF alltoall workload.
#[derive(Debug, Clone)]
pub struct AllToAllConfig {
    /// Participating workers (simulator host ids).
    pub workers: Vec<HostId>,
    /// Message size each worker sends to each peer, bytes (paper: 12 MB).
    pub message_bytes: u64,
    /// OFF (compute) period between rounds, ns (paper: 20 ms).
    pub off_time: Nanos,
    /// Number of rounds to run; `None` = unbounded.
    pub rounds: Option<u32>,
}

/// Round state machine for the alltoall collective.
#[derive(Debug, Clone)]
pub struct AllToAll {
    cfg: AllToAllConfig,
    core: RoundCore,
}

impl AllToAll {
    /// Create the state machine. Panics on fewer than two workers.
    pub fn new(cfg: AllToAllConfig) -> Self {
        assert!(cfg.workers.len() >= 2, "alltoall needs >= 2 workers");
        assert!(cfg.message_bytes > 0);
        let core = RoundCore::new(cfg.rounds, cfg.off_time);
        Self { cfg, core }
    }

    /// The configuration.
    pub fn config(&self) -> &AllToAllConfig {
        &self.cfg
    }

    /// The full-mesh flow set of one round starting at `now`.
    fn mesh(&self, now: Nanos) -> Vec<FlowRequest> {
        let n = self.cfg.workers.len();
        let mut flows = Vec::with_capacity(n * (n - 1));
        for (i, &src) in self.cfg.workers.iter().enumerate() {
            for (j, &dst) in self.cfg.workers.iter().enumerate() {
                if i != j {
                    flows.push(FlowRequest {
                        src,
                        dst,
                        bytes: self.cfg.message_bytes,
                        start: now,
                    });
                }
            }
        }
        flows
    }
}

impl Collective for AllToAll {
    fn name(&self) -> &'static str {
        "alltoall"
    }

    fn workers(&self) -> &[HostId] {
        &self.cfg.workers
    }

    fn round_active(&self) -> bool {
        self.core.round_active()
    }

    fn finished(&self) -> bool {
        self.core.finished()
    }

    fn rounds_done(&self) -> u32 {
        self.core.rounds_done
    }

    fn round_durations(&self) -> &[Nanos] {
        &self.core.round_durations
    }

    /// `n·(n−1)·message_bytes`.
    fn bytes_per_round(&self) -> u64 {
        let n = self.cfg.workers.len() as u64;
        n * (n - 1) * self.cfg.message_bytes
    }

    fn per_rank_bytes(&self) -> u64 {
        (self.cfg.workers.len() as u64 - 1) * self.cfg.message_bytes
    }

    /// The full-mesh flow set, or a typed error if a round is already
    /// active or the workload is finished.
    fn start_round(&mut self, now: Nanos) -> Result<Vec<FlowRequest>, CollectiveError> {
        let flows = self.mesh(now);
        self.core.begin(now, flows.len())?;
        Ok(flows)
    }

    /// Alltoall is a single wave, so a drained wave is a drained round:
    /// its duration is accounted, then the next round is due at
    /// `now + off_time` unless all rounds are done.
    fn on_flow_done(&mut self, now: Nanos) -> Result<Progress, CollectiveError> {
        if self.core.flow_done()? {
            Ok(self.core.finish_round(now))
        } else {
            Ok(Progress::Pending)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a2a(n: usize, rounds: Option<u32>) -> AllToAll {
        AllToAll::new(AllToAllConfig {
            workers: (0..n).collect(),
            message_bytes: 1 << 20,
            off_time: 20_000_000,
            rounds,
        })
    }

    #[test]
    fn round_is_a_full_mesh() {
        let mut w = a2a(4, None);
        let flows = w.start_round(0).unwrap();
        assert_eq!(flows.len(), 12);
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert_eq!(f.bytes, 1 << 20);
            assert_eq!(f.start, 0);
        }
        // Every ordered pair exactly once.
        let mut pairs: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 12);
    }

    #[test]
    fn next_round_starts_after_off_time() {
        let mut w = a2a(3, None);
        let flows = w.start_round(100).unwrap();
        let mut next = Progress::Pending;
        for k in 0..flows.len() {
            next = w.on_flow_done(1000 + k as Nanos).unwrap();
        }
        assert_eq!(
            next,
            Progress::RoundDone {
                next_round: Some(1005 + 20_000_000)
            }
        );
        assert_eq!(w.rounds_done(), 1);
        assert_eq!(w.round_durations(), [905]);
    }

    #[test]
    fn bounded_rounds_finish() {
        let mut w = a2a(2, Some(2));
        for round in 0..2 {
            let flows = w.start_round(round * 1000).unwrap();
            assert!(!w.finished());
            for k in 0..flows.len() {
                w.on_flow_done(round * 1000 + 10 + k as Nanos).unwrap();
            }
        }
        assert!(w.finished());
    }

    /// The final round of a bounded run is fully accounted: its
    /// duration is recorded before the finished early-return, so a
    /// 2-round run reports 2 durations (satellite regression).
    #[test]
    fn final_round_duration_is_recorded_when_bounded() {
        let mut w = a2a(2, Some(2));
        let mut last = Progress::Pending;
        for round in 0u64..2 {
            let start = round * 1_000_000;
            let flows = w.start_round(start).unwrap();
            for k in 0..flows.len() {
                last = w.on_flow_done(start + 500 + k as Nanos).unwrap();
            }
        }
        assert!(w.finished());
        assert_eq!(w.round_durations(), [501, 501]);
        // The last round ended at its final completion, 1_000_501.
        assert_eq!(last, Progress::RoundDone { next_round: None });
    }

    #[test]
    fn algbw_matches_definition() {
        let mut w = a2a(4, Some(1));
        let flows = w.start_round(0).unwrap();
        let end = 1_000_000; // 1 ms round
        for _ in 0..flows.len() {
            w.on_flow_done(end).unwrap();
        }
        let algbw = w.algbw_bytes_per_sec(0).unwrap();
        let expect = 3.0 * (1 << 20) as f64 / 1e-3;
        assert!((algbw - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn misuse_reports_typed_errors() {
        let mut w = a2a(3, Some(1));
        // Completion with no round in flight.
        assert_eq!(w.on_flow_done(0), Err(CollectiveError::NoRoundInFlight));
        // Overlapping rounds.
        let flows = w.start_round(0).unwrap();
        assert_eq!(w.start_round(1), Err(CollectiveError::RoundInFlight));
        for k in 0..flows.len() {
            w.on_flow_done(10 + k as Nanos).unwrap();
        }
        // Starting past the configured round budget.
        assert_eq!(w.start_round(100), Err(CollectiveError::Finished));
        // And the stray completion after the last round.
        assert_eq!(w.on_flow_done(100), Err(CollectiveError::NoRoundInFlight));
    }

    #[test]
    fn bytes_per_round_formula() {
        let w = a2a(5, None);
        assert_eq!(w.bytes_per_round(), 5 * 4 * (1 << 20));
    }

    #[test]
    fn trait_object_reports_round_done_with_off_gap() {
        let mut w = a2a(2, Some(1));
        let c: &mut dyn Collective = &mut w;
        let flows = c.start_round(0).unwrap();
        assert_eq!(flows.len(), 2);
        assert_eq!(c.on_flow_done(10).unwrap(), Progress::Pending);
        assert_eq!(
            c.on_flow_done(20).unwrap(),
            Progress::RoundDone { next_round: None }
        );
        assert_eq!(c.per_rank_bytes(), 1 << 20);
        assert!(c.finished());
    }
}
