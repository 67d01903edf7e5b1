//! Collective round machines behind a common [`Collective`] trait.
//!
//! The paper's LLM workload is a synchronized alltoall, but ROADMAP
//! item 2 asks whether PARALEON's dominant-flow-type guidance survives
//! *other* collectives — the ones NCCL actually schedules. This module
//! adds ring allreduce, tree (binomial) allreduce and pipeline-parallel
//! activation bursts alongside [`crate::AllToAll`], all driven through
//! one trait so the simulator embedding is written once.
//!
//! A collective is a sequence of **rounds** separated by an OFF
//! (compute) period. A round is one or more **waves**: a set of flows
//! released together behind a barrier — the next wave starts only when
//! every flow of the current wave has completed. Alltoall is a single
//! wave of `n·(n−1)` flows; ring allreduce is `2(n−1)` waves of `n`
//! chunk flows; tree allreduce is `2·⌈log₂n⌉` waves tracing the
//! binomial tree up then down; a pipeline burst is one wave of
//! neighbor flows per microbatch.
//!
//! The embedding contract mirrors [`crate::AllToAll`]: call
//! [`Collective::start_round`] to get the first wave, feed every
//! completion to [`Collective::on_flow_done`], and act on the returned
//! [`Progress`] (admit the next wave, or schedule the next round).
//! All methods return typed [`CollectiveError`]s instead of panicking —
//! hunt-generated genomes can drive these machines into states a
//! hand-written harness never would.

use crate::{FlowRequest, HostId, Nanos};

/// Misuse of a collective round machine, reported instead of panicking
/// so fuzzed/hunted drivers can observe the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveError {
    /// `start_round` while a round is still draining.
    RoundInFlight,
    /// `on_flow_done` with no round in flight.
    NoRoundInFlight,
    /// `start_round` after all configured rounds completed.
    Finished,
}

impl std::fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RoundInFlight => write!(f, "previous round still in flight"),
            Self::NoRoundInFlight => write!(f, "no round in flight"),
            Self::Finished => write!(f, "workload already finished"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// What one completion did to the round state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Progress {
    /// The current wave still has flows in flight.
    Pending,
    /// The wave drained and the round continues: admit these flows now
    /// (the barrier release — all of them start together).
    NextWave(Vec<FlowRequest>),
    /// The round drained. `next_round` is when to call `start_round`
    /// again (`now + off_time`), or `None` when all rounds are done.
    RoundDone {
        /// Start time of the next round, if any remain.
        next_round: Option<Nanos>,
    },
}

/// A synchronized collective as a round state machine. The driver owns
/// the clock and the network; the machine owns membership, wave
/// sequencing and per-round accounting.
pub trait Collective {
    /// Short name for tables and JSON rows (e.g. `"ring_allreduce"`).
    fn name(&self) -> &'static str;

    /// Participating workers (simulator host ids).
    fn workers(&self) -> &[HostId];

    /// Whether a round is currently in flight.
    fn round_active(&self) -> bool;

    /// Whether all configured rounds have completed.
    fn finished(&self) -> bool;

    /// Rounds fully completed so far.
    fn rounds_done(&self) -> u32;

    /// Wall-clock duration of each completed round (the collective FCT).
    fn round_durations(&self) -> &[Nanos];

    /// Total bytes the network carries per round (all waves).
    fn bytes_per_round(&self) -> u64;

    /// Per-rank payload bytes per round — the numerator of NCCL-style
    /// algorithm bandwidth (`algbw = payload / round time`).
    fn per_rank_bytes(&self) -> u64;

    /// Begin a round at `now`; returns the first wave's flows.
    fn start_round(&mut self, now: Nanos) -> Result<Vec<FlowRequest>, CollectiveError>;

    /// Record one flow completion at `now`.
    fn on_flow_done(&mut self, now: Nanos) -> Result<Progress, CollectiveError>;

    /// NCCL-style algorithm bandwidth of finished round `idx`, bytes/sec.
    fn algbw_bytes_per_sec(&self, idx: usize) -> Option<f64> {
        let d = *self.round_durations().get(idx)?;
        if d == 0 {
            return None;
        }
        Some(self.per_rank_bytes() as f64 / (d as f64 / 1e9))
    }
}

/// Shared round bookkeeping: outstanding-wave counting, round
/// durations, bounded-round termination and the OFF gap. Recording the
/// duration happens *before* the finished check, so the final round of
/// a bounded run is always accounted.
#[derive(Debug, Clone)]
struct RoundCore {
    rounds: Option<u32>,
    off_time: Nanos,
    outstanding: usize,
    rounds_done: u32,
    round_start: Option<Nanos>,
    round_durations: Vec<Nanos>,
}

impl RoundCore {
    fn new(rounds: Option<u32>, off_time: Nanos) -> Self {
        Self {
            rounds,
            off_time,
            outstanding: 0,
            rounds_done: 0,
            round_start: None,
            round_durations: Vec::new(),
        }
    }

    fn round_active(&self) -> bool {
        self.outstanding > 0
    }

    fn finished(&self) -> bool {
        match self.rounds {
            Some(r) => self.rounds_done >= r && !self.round_active(),
            None => false,
        }
    }

    fn begin(&mut self, now: Nanos, wave_len: usize) -> Result<(), CollectiveError> {
        if self.round_active() {
            return Err(CollectiveError::RoundInFlight);
        }
        if self.finished() {
            return Err(CollectiveError::Finished);
        }
        self.outstanding = wave_len;
        self.round_start = Some(now);
        Ok(())
    }

    /// One completion; `Ok(true)` when the current wave just drained.
    fn flow_done(&mut self) -> Result<bool, CollectiveError> {
        if self.outstanding == 0 {
            return Err(CollectiveError::NoRoundInFlight);
        }
        self.outstanding -= 1;
        Ok(self.outstanding == 0)
    }

    fn next_wave(&mut self, wave_len: usize) {
        debug_assert_eq!(self.outstanding, 0);
        self.outstanding = wave_len;
    }

    /// Close the round at `now`: account its duration, then decide
    /// whether another round follows.
    fn finish_round(&mut self, now: Nanos) -> Progress {
        self.rounds_done += 1;
        if let Some(start) = self.round_start.take() {
            self.round_durations.push(now.saturating_sub(start));
        }
        let next_round = if self.finished() {
            None
        } else {
            Some(now + self.off_time)
        };
        Progress::RoundDone { next_round }
    }
}

// ---------------------------------------------------------------------------
// Ring allreduce
// ---------------------------------------------------------------------------

/// Configuration of a ring-allreduce collective.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Participating workers in ring order.
    pub workers: Vec<HostId>,
    /// Per-rank payload bytes (the tensor being reduced).
    pub message_bytes: u64,
    /// OFF (compute) period between rounds, ns.
    pub off_time: Nanos,
    /// Number of rounds; `None` = unbounded.
    pub rounds: Option<u32>,
}

/// Ring allreduce: `2(n−1)` barrier-separated steps, each a wave of
/// `n` simultaneous neighbor transfers of one `message/n` chunk —
/// `n−1` reduce-scatter steps followed by `n−1` allgather steps. The
/// traffic pattern (who talks to whom, how much, when) is identical in
/// both phases, so the machine models them as `2(n−1)` equal waves.
#[derive(Debug, Clone)]
pub struct RingAllreduce {
    cfg: RingConfig,
    core: RoundCore,
    /// Wave index within the current round, `0..2(n−1)`.
    step: usize,
}

impl RingAllreduce {
    /// Create the machine. Panics on fewer than two workers or an empty
    /// message (static configuration errors, not runtime states).
    pub fn new(cfg: RingConfig) -> Self {
        assert!(cfg.workers.len() >= 2, "ring allreduce needs >= 2 workers");
        assert!(cfg.message_bytes > 0);
        let core = RoundCore::new(cfg.rounds, cfg.off_time);
        Self { cfg, core, step: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    fn steps_per_round(&self) -> usize {
        2 * (self.cfg.workers.len() - 1)
    }

    /// Chunk size per step: the message split `n` ways, rounded up.
    pub fn chunk_bytes(&self) -> u64 {
        let n = self.cfg.workers.len() as u64;
        self.cfg.message_bytes.div_ceil(n).max(1)
    }

    /// One wave: every worker sends its current chunk to its ring
    /// successor.
    fn wave(&self, now: Nanos) -> Vec<FlowRequest> {
        let n = self.cfg.workers.len();
        let chunk = self.chunk_bytes();
        (0..n)
            .map(|i| FlowRequest {
                src: self.cfg.workers[i],
                dst: self.cfg.workers[(i + 1) % n],
                bytes: chunk,
                start: now,
            })
            .collect()
    }
}

impl Collective for RingAllreduce {
    fn name(&self) -> &'static str {
        "ring_allreduce"
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

    fn bytes_per_round(&self) -> u64 {
        let n = self.cfg.workers.len() as u64;
        self.steps_per_round() as u64 * n * self.chunk_bytes()
    }

    fn per_rank_bytes(&self) -> u64 {
        self.cfg.message_bytes
    }

    fn start_round(&mut self, now: Nanos) -> Result<Vec<FlowRequest>, CollectiveError> {
        let flows = self.wave(now);
        self.core.begin(now, flows.len())?;
        self.step = 0;
        Ok(flows)
    }

    fn on_flow_done(&mut self, now: Nanos) -> Result<Progress, CollectiveError> {
        if !self.core.flow_done()? {
            return Ok(Progress::Pending);
        }
        self.step += 1;
        if self.step < self.steps_per_round() {
            let flows = self.wave(now);
            self.core.next_wave(flows.len());
            Ok(Progress::NextWave(flows))
        } else {
            Ok(self.core.finish_round(now))
        }
    }
}

// ---------------------------------------------------------------------------
// Tree (binomial) allreduce
// ---------------------------------------------------------------------------

/// Configuration of a tree-allreduce collective.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Participating workers; index 0 is the tree root.
    pub workers: Vec<HostId>,
    /// Per-rank payload bytes.
    pub message_bytes: u64,
    /// OFF (compute) period between rounds, ns.
    pub off_time: Nanos,
    /// Number of rounds; `None` = unbounded.
    pub rounds: Option<u32>,
}

/// Binomial-tree allreduce: `⌈log₂n⌉` reduce waves toward rank 0
/// (level `k` pairs rank `i` with `i − 2ᵏ` for every `i ≡ 2ᵏ mod
/// 2ᵏ⁺¹`), then the mirror-image broadcast waves back down. Each edge
/// carries the full message, so the wire traffic concentrates toward
/// the root — the opposite stress pattern from the ring's uniform
/// neighbor load.
#[derive(Debug, Clone)]
pub struct TreeAllreduce {
    cfg: TreeConfig,
    core: RoundCore,
    levels: usize,
    /// Wave index within the current round, `0..2·levels`.
    step: usize,
}

impl TreeAllreduce {
    /// Create the machine. Panics on fewer than two workers or an empty
    /// message.
    pub fn new(cfg: TreeConfig) -> Self {
        assert!(cfg.workers.len() >= 2, "tree allreduce needs >= 2 workers");
        assert!(cfg.message_bytes > 0);
        let levels = usize::BITS as usize - (cfg.workers.len() - 1).leading_zeros() as usize;
        let core = RoundCore::new(cfg.rounds, cfg.off_time);
        Self {
            cfg,
            core,
            levels,
            step: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.cfg
    }

    fn steps_per_round(&self) -> usize {
        2 * self.levels
    }

    /// Wave `idx`: reduce level `idx` going up, then broadcast levels
    /// mirrored going down.
    fn wave(&self, idx: usize, now: Nanos) -> Vec<FlowRequest> {
        let n = self.cfg.workers.len();
        let (k, reduce) = if idx < self.levels {
            (idx, true)
        } else {
            (2 * self.levels - 1 - idx, false)
        };
        let stride = 1usize << (k + 1);
        let mut flows = Vec::new();
        let mut i = 1usize << k;
        while i < n {
            let (child, parent) = (i, i - (1 << k));
            let (src, dst) = if reduce {
                (child, parent)
            } else {
                (parent, child)
            };
            flows.push(FlowRequest {
                src: self.cfg.workers[src],
                dst: self.cfg.workers[dst],
                bytes: self.cfg.message_bytes,
                start: now,
            });
            i += stride;
        }
        flows
    }
}

impl Collective for TreeAllreduce {
    fn name(&self) -> &'static str {
        "tree_allreduce"
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

    fn bytes_per_round(&self) -> u64 {
        // A binomial tree over n ranks has n−1 edges, traversed once up
        // and once down, each carrying the full message.
        2 * (self.cfg.workers.len() as u64 - 1) * self.cfg.message_bytes
    }

    fn per_rank_bytes(&self) -> u64 {
        self.cfg.message_bytes
    }

    fn start_round(&mut self, now: Nanos) -> Result<Vec<FlowRequest>, CollectiveError> {
        let flows = self.wave(0, now);
        self.core.begin(now, flows.len())?;
        self.step = 0;
        Ok(flows)
    }

    fn on_flow_done(&mut self, now: Nanos) -> Result<Progress, CollectiveError> {
        if !self.core.flow_done()? {
            return Ok(Progress::Pending);
        }
        self.step += 1;
        if self.step < self.steps_per_round() {
            let flows = self.wave(self.step, now);
            self.core.next_wave(flows.len());
            Ok(Progress::NextWave(flows))
        } else {
            Ok(self.core.finish_round(now))
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline-parallel activation bursts
// ---------------------------------------------------------------------------

/// Configuration of a pipeline-parallel burst collective.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Pipeline stages in order; stage `i` feeds stage `i+1`.
    pub workers: Vec<HostId>,
    /// Activation bytes per microbatch per stage boundary.
    pub microbatch_bytes: u64,
    /// Microbatches per round (one wave each).
    pub microbatches: u32,
    /// OFF (compute) period between rounds, ns.
    pub off_time: Nanos,
    /// Number of rounds; `None` = unbounded.
    pub rounds: Option<u32>,
}

/// Pipeline-parallel bursts: each microbatch releases a wave of `n−1`
/// neighbor flows (stage `i` → `i+1`, all boundaries at once — the
/// steady-state pipeline where every stage forwards simultaneously),
/// with a barrier between microbatches. Unlike the allreduces, traffic
/// is strictly chain-shaped: each link between adjacent stages carries
/// the whole activation, nothing crosses the chain.
#[derive(Debug, Clone)]
pub struct PipelineBurst {
    cfg: PipelineConfig,
    core: RoundCore,
    /// Microbatch index within the current round.
    step: u32,
}

impl PipelineBurst {
    /// Create the machine. Panics on fewer than two stages, an empty
    /// microbatch, or zero microbatches.
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(cfg.workers.len() >= 2, "pipeline needs >= 2 stages");
        assert!(cfg.microbatch_bytes > 0);
        assert!(cfg.microbatches >= 1);
        let core = RoundCore::new(cfg.rounds, cfg.off_time);
        Self { cfg, core, step: 0 }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    fn wave(&self, now: Nanos) -> Vec<FlowRequest> {
        self.cfg
            .workers
            .windows(2)
            .map(|w| FlowRequest {
                src: w[0],
                dst: w[1],
                bytes: self.cfg.microbatch_bytes,
                start: now,
            })
            .collect()
    }
}

impl Collective for PipelineBurst {
    fn name(&self) -> &'static str {
        "pipeline_burst"
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

    fn bytes_per_round(&self) -> u64 {
        (self.cfg.workers.len() as u64 - 1)
            * self.cfg.microbatch_bytes
            * u64::from(self.cfg.microbatches)
    }

    fn per_rank_bytes(&self) -> u64 {
        // Bytes one stage boundary carries per round.
        self.cfg.microbatch_bytes * u64::from(self.cfg.microbatches)
    }

    fn start_round(&mut self, now: Nanos) -> Result<Vec<FlowRequest>, CollectiveError> {
        let flows = self.wave(now);
        self.core.begin(now, flows.len())?;
        self.step = 0;
        Ok(flows)
    }

    fn on_flow_done(&mut self, now: Nanos) -> Result<Progress, CollectiveError> {
        if !self.core.flow_done()? {
            return Ok(Progress::Pending);
        }
        self.step += 1;
        if self.step < self.cfg.microbatches {
            let flows = self.wave(now);
            self.core.next_wave(flows.len());
            Ok(Progress::NextWave(flows))
        } else {
            Ok(self.core.finish_round(now))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a whole round synchronously: start it, complete every
    /// flow of every wave at `t += 10`, return the wave sizes.
    fn drive_round(c: &mut dyn Collective, start: Nanos) -> Vec<usize> {
        let mut waves = vec![c.start_round(start).unwrap().len()];
        let mut t = start;
        let mut pending = *waves.last().unwrap();
        loop {
            t += 10;
            pending -= 1;
            match c.on_flow_done(t).unwrap() {
                Progress::Pending => assert!(pending > 0),
                Progress::NextWave(flows) => {
                    assert_eq!(pending, 0, "barrier released early");
                    waves.push(flows.len());
                    pending = flows.len();
                }
                Progress::RoundDone { .. } => {
                    assert_eq!(pending, 0, "round ended with flows in flight");
                    return waves;
                }
            }
        }
    }

    #[test]
    fn ring_runs_2n_minus_2_uniform_waves() {
        let mut ring = RingAllreduce::new(RingConfig {
            workers: (0..4).collect(),
            message_bytes: 4 << 20,
            off_time: 1000,
            rounds: Some(1),
        });
        let waves = drive_round(&mut ring, 0);
        assert_eq!(waves, vec![4; 6]); // 2(n−1) = 6 waves of n = 4 flows
        assert!(ring.finished());
        assert_eq!(ring.round_durations().len(), 1);
        assert_eq!(ring.chunk_bytes(), 1 << 20);
        assert_eq!(ring.bytes_per_round(), 6 * 4 * (1 << 20));
    }

    #[test]
    fn ring_wave_is_successor_ring() {
        let mut ring = RingAllreduce::new(RingConfig {
            workers: vec![3, 5, 7],
            message_bytes: 3000,
            off_time: 0,
            rounds: None,
        });
        let flows = ring.start_round(0).unwrap();
        let pairs: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        assert_eq!(pairs, vec![(3, 5), (5, 7), (7, 3)]);
        assert!(flows.iter().all(|f| f.bytes == 1000));
    }

    #[test]
    fn tree_waves_trace_binomial_up_then_down() {
        let mut tree = TreeAllreduce::new(TreeConfig {
            workers: (0..5).collect(),
            message_bytes: 1 << 20,
            off_time: 1000,
            rounds: Some(1),
        });
        // n = 5 → 3 levels. Reduce: {1→0, 3→2}, {2→0}, {4→0};
        // broadcast mirrors in reverse.
        let first = tree.start_round(0).unwrap();
        let pairs: Vec<_> = first.iter().map(|f| (f.src, f.dst)).collect();
        assert_eq!(pairs, vec![(1, 0), (3, 2)]);
        let waves = {
            // Finish the round from here on.
            let mut waves = vec![first.len()];
            let mut pending = first.len();
            let mut t = 0;
            loop {
                t += 10;
                pending -= 1;
                match tree.on_flow_done(t).unwrap() {
                    Progress::Pending => {}
                    Progress::NextWave(flows) => {
                        assert_eq!(pending, 0, "a wave starts when the last one drained");
                        waves.push(flows.len());
                        pending = flows.len();
                    }
                    Progress::RoundDone { next_round } => {
                        assert_eq!((pending, next_round), (0, None));
                        break;
                    }
                }
            }
            waves
        };
        assert_eq!(waves, vec![2, 1, 1, 1, 1, 2]);
        // Total edges each direction: n−1 = 4.
        assert_eq!(waves.iter().sum::<usize>(), 8);
        assert_eq!(tree.bytes_per_round(), 8 * (1 << 20));
        assert!(tree.finished());
    }

    #[test]
    fn tree_power_of_two_is_log_deep() {
        let mut tree = TreeAllreduce::new(TreeConfig {
            workers: (0..8).collect(),
            message_bytes: 1000,
            off_time: 0,
            rounds: Some(1),
        });
        let waves = drive_round(&mut tree, 0);
        assert_eq!(waves, vec![4, 2, 1, 1, 2, 4]);
    }

    #[test]
    fn pipeline_runs_one_wave_per_microbatch() {
        let mut pipe = PipelineBurst::new(PipelineConfig {
            workers: (0..4).collect(),
            microbatch_bytes: 1 << 20,
            microbatches: 3,
            off_time: 1000,
            rounds: Some(2),
        });
        let waves = drive_round(&mut pipe, 0);
        assert_eq!(waves, vec![3; 3]); // 3 microbatches × (n−1) flows
        assert!(!pipe.finished());
        assert_eq!(pipe.rounds_done(), 1);
        let flows = pipe.start_round(10_000).unwrap();
        let pairs: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn off_gap_and_bounded_rounds() {
        let mut ring = RingAllreduce::new(RingConfig {
            workers: (0..2).collect(),
            message_bytes: 100,
            off_time: 5_000,
            rounds: Some(2),
        });
        // Round 1: 2 waves of 2 flows.
        ring.start_round(0).unwrap();
        let mut last = Progress::Pending;
        for t in [10, 20, 30, 40] {
            last = ring.on_flow_done(t).unwrap();
        }
        assert_eq!(
            last,
            Progress::RoundDone {
                next_round: Some(40 + 5_000)
            }
        );
        // Round 2 drains → no next round, duration still recorded.
        ring.start_round(5_040).unwrap();
        for t in [5_050, 5_060, 5_070, 5_080] {
            last = ring.on_flow_done(t).unwrap();
        }
        assert_eq!(last, Progress::RoundDone { next_round: None });
        assert!(ring.finished());
        assert_eq!(ring.round_durations(), &[40, 40]);
    }

    #[test]
    fn typed_errors_instead_of_panics() {
        let mut ring = RingAllreduce::new(RingConfig {
            workers: (0..2).collect(),
            message_bytes: 100,
            off_time: 0,
            rounds: Some(1),
        });
        assert_eq!(ring.on_flow_done(0), Err(CollectiveError::NoRoundInFlight));
        ring.start_round(0).unwrap();
        assert_eq!(ring.start_round(1), Err(CollectiveError::RoundInFlight));
        for t in [10, 20, 30, 40] {
            ring.on_flow_done(t).unwrap();
        }
        assert_eq!(ring.start_round(50), Err(CollectiveError::Finished));
        assert_eq!(ring.on_flow_done(50), Err(CollectiveError::NoRoundInFlight));
    }

    #[test]
    fn algbw_uses_per_rank_payload() {
        let mut ring = RingAllreduce::new(RingConfig {
            workers: (0..4).collect(),
            message_bytes: 4 << 20,
            off_time: 0,
            rounds: Some(1),
        });
        ring.start_round(0).unwrap();
        let mut done = false;
        let mut t = 0;
        while !done {
            t += 10;
            done = matches!(ring.on_flow_done(t).unwrap(), Progress::RoundDone { .. });
        }
        let d = ring.round_durations()[0];
        let algbw = ring.algbw_bytes_per_sec(0).unwrap();
        let expect = (4 << 20) as f64 / (d as f64 / 1e9);
        assert!((algbw - expect).abs() / expect < 1e-12);
    }
}
