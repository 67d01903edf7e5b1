//! Synchronized collectives: one round machine over [`CollectiveKind`].
//!
//! The paper's LLM workload is a synchronized alltoall (every worker
//! sends one message to every other worker — the most incast-prone
//! collective, which is why the paper picks it). ROADMAP item 2 asks
//! whether PARALEON's dominant-flow-type guidance survives the *other*
//! collectives NCCL schedules, so the same machine also runs ring
//! allreduce, binomial-tree allreduce and pipeline-parallel activation
//! bursts.
//!
//! A collective is a sequence of **rounds** separated by an OFF
//! (compute) period. A round is one or more **waves**: a set of flows
//! released together behind a barrier — the next wave starts only when
//! every flow of the current wave has completed. Alltoall is a single
//! wave of `n·(n−1)` flows; ring allreduce is `2(n−1)` waves of `n`
//! chunk flows; tree allreduce is `2·⌈log₂n⌉` waves tracing the
//! binomial tree up then down; a pipeline burst is one wave of `n−1`
//! neighbor flows per microbatch.
//!
//! [`Collective`] writes the round sequencing once; the kinds differ
//! only in their wave generator, wave count and two byte formulas. The
//! embedding simulator calls [`Collective::start_round`] to get the
//! first wave, feeds every completion to [`Collective::on_flow_done`],
//! and acts on the returned [`Progress`] (admit the next wave, or
//! schedule the next round). Misuse (driving a finished machine,
//! completions with no round in flight — states hunt mutations can
//! reach) reports a typed [`CollectiveError`] instead of panicking, and
//! the final round's duration is recorded *before* the finished check
//! so bounded runs never lose their last data point.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

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

/// Which collective a [`CollectiveSpec`] describes. The variant names
/// are the genome JSON spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Full-mesh alltoall (the paper's LLM workload).
    Alltoall,
    /// Ring allreduce: `2(n−1)` barrier-separated steps, each a wave of
    /// `n` simultaneous neighbor transfers of one `message/n` chunk —
    /// `n−1` reduce-scatter steps then `n−1` allgather steps, whose
    /// traffic (who talks to whom, how much, when) is identical.
    RingAllreduce,
    /// Binomial-tree allreduce: `⌈log₂n⌉` reduce waves toward rank 0
    /// (level `k` pairs rank `i` with `i − 2ᵏ` for every `i ≡ 2ᵏ mod
    /// 2ᵏ⁺¹`), then the mirror-image broadcast waves back down. Each
    /// edge carries the full message, so the wire traffic concentrates
    /// toward the root.
    TreeAllreduce,
    /// Pipeline-parallel bursts: each microbatch releases a wave of
    /// `n−1` neighbor flows (stage `i` → `i+1`, all boundaries at once),
    /// with a barrier between microbatches. Nothing crosses the chain.
    PipelineBurst,
}

impl CollectiveKind {
    /// Every kind. The order is fixed: the hunt's mutator draws a kind
    /// by index into it.
    pub const ALL: [Self; 4] = [
        Self::Alltoall,
        Self::RingAllreduce,
        Self::TreeAllreduce,
        Self::PipelineBurst,
    ];

    /// Short name for tables and JSON rows (e.g. `"ring_allreduce"`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Alltoall => "alltoall",
            Self::RingAllreduce => "ring_allreduce",
            Self::TreeAllreduce => "tree_allreduce",
            Self::PipelineBurst => "pipeline_burst",
        }
    }
}

/// The one description of a collective: which kind, which ranks, how
/// much payload, how many rounds. Experiments build it directly; hunt
/// genomes carry it as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveSpec {
    /// Round-machine family.
    pub kind: CollectiveKind,
    /// Participating ranks (host ids), in rank order: ring order, tree
    /// rank 0 first, pipeline stage order.
    pub workers: Vec<HostId>,
    /// Per-message payload, bytes: the alltoall message to each peer,
    /// the allreduced tensor, or one pipeline microbatch.
    pub message_bytes: u64,
    /// Microbatches per round; read only by
    /// [`CollectiveKind::PipelineBurst`].
    pub microbatches: u32,
    /// Rounds to run; `None` = unbounded.
    pub rounds: Option<u32>,
    /// OFF (compute) gap between rounds, ns.
    pub off_time: Nanos,
}

impl CollectiveSpec {
    /// Check the spec describes a runnable collective: at least two
    /// distinct workers, a non-empty payload, a non-zero round bound and,
    /// for a pipeline, at least one microbatch.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers.len() < 2 {
            return Err("collective: needs >= 2 workers".into());
        }
        let mut seen = HashSet::with_capacity(self.workers.len());
        if let Some(w) = self.workers.iter().find(|&&w| !seen.insert(w)) {
            return Err(format!("collective: duplicate worker {w}"));
        }
        if self.message_bytes == 0 {
            return Err("collective: empty payload".into());
        }
        if self.rounds == Some(0) {
            return Err("collective: zero rounds".into());
        }
        if self.kind == CollectiveKind::PipelineBurst && self.microbatches == 0 {
            return Err("collective: pipeline needs >= 1 microbatch".into());
        }
        Ok(())
    }
}

/// The four-field form of an alltoall spec, as the benchmark harness
/// writes it.
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

impl From<AllToAllConfig> for CollectiveSpec {
    fn from(c: AllToAllConfig) -> Self {
        Self {
            kind: CollectiveKind::Alltoall,
            workers: c.workers,
            message_bytes: c.message_bytes,
            microbatches: 1,
            rounds: c.rounds,
            off_time: c.off_time,
        }
    }
}

/// The alltoall round machine under the name the benchmark harness uses.
pub type AllToAll = Collective;

/// A synchronized collective as a round state machine. The driver owns
/// the clock and the network; the machine owns membership, wave
/// sequencing and per-round accounting.
#[derive(Debug, Clone)]
pub struct Collective {
    spec: CollectiveSpec,
    /// Wave index within the current round.
    wave: usize,
    /// Flows of the current wave still in flight.
    outstanding: usize,
    rounds_done: u32,
    round_start: Nanos,
    round_durations: Vec<Nanos>,
}

impl Collective {
    /// Create the machine. Panics on a spec [`CollectiveSpec::validate`]
    /// refuses (a static configuration error, not a runtime state).
    pub fn new(spec: impl Into<CollectiveSpec>) -> Self {
        let spec = spec.into();
        spec.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            spec,
            wave: 0,
            outstanding: 0,
            rounds_done: 0,
            round_start: 0,
            round_durations: Vec::new(),
        }
    }

    /// The spec this machine runs.
    pub fn config(&self) -> &CollectiveSpec {
        &self.spec
    }

    fn round_active(&self) -> bool {
        self.outstanding > 0
    }

    /// Whether all configured rounds have completed.
    pub fn finished(&self) -> bool {
        self.spec
            .rounds
            .is_some_and(|r| self.rounds_done >= r && !self.round_active())
    }

    /// Rounds fully completed so far.
    pub fn rounds_done(&self) -> u32 {
        self.rounds_done
    }

    /// Wall-clock duration of each completed round (the collective FCT).
    pub fn round_durations(&self) -> &[Nanos] {
        &self.round_durations
    }

    fn n(&self) -> u64 {
        self.spec.workers.len() as u64
    }

    /// Ring chunk size per step: the message split `n` ways, rounded up.
    fn chunk_bytes(&self) -> u64 {
        self.spec.message_bytes.div_ceil(self.n()).max(1)
    }

    /// Levels of the binomial tree over `n` ranks, `⌈log₂n⌉`.
    fn tree_levels(&self) -> usize {
        (u64::BITS - (self.n() - 1).leading_zeros()) as usize
    }

    fn waves_per_round(&self) -> usize {
        match self.spec.kind {
            CollectiveKind::Alltoall => 1,
            CollectiveKind::RingAllreduce => 2 * (self.spec.workers.len() - 1),
            CollectiveKind::TreeAllreduce => 2 * self.tree_levels(),
            CollectiveKind::PipelineBurst => self.spec.microbatches as usize,
        }
    }

    /// Per-rank payload bytes per round — the numerator of NCCL-style
    /// algorithm bandwidth (`algbw = payload / round time`).
    fn per_rank_bytes(&self) -> u64 {
        let m = self.spec.message_bytes;
        match self.spec.kind {
            CollectiveKind::Alltoall => (self.n() - 1) * m,
            CollectiveKind::RingAllreduce | CollectiveKind::TreeAllreduce => m,
            // Bytes one stage boundary carries per round.
            CollectiveKind::PipelineBurst => m * u64::from(self.spec.microbatches),
        }
    }

    /// The flows of wave `self.wave`, all starting at `now`.
    fn wave_flows(&self, now: Nanos) -> Vec<FlowRequest> {
        let w = &self.spec.workers;
        let n = w.len();
        let m = self.spec.message_bytes;
        let flow = |src: usize, dst: usize, bytes: u64| FlowRequest {
            src: w[src],
            dst: w[dst],
            bytes,
            start: now,
        };
        match self.spec.kind {
            CollectiveKind::Alltoall => (0..n)
                .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
                .map(|(i, j)| flow(i, j, m))
                .collect(),
            // Every worker sends its current chunk to its ring successor.
            CollectiveKind::RingAllreduce => {
                let chunk = self.chunk_bytes();
                (0..n).map(|i| flow(i, (i + 1) % n, chunk)).collect()
            }
            // Reduce level `wave` going up, then the levels mirrored
            // going down as broadcasts.
            CollectiveKind::TreeAllreduce => {
                let levels = self.tree_levels();
                let (k, reduce) = if self.wave < levels {
                    (self.wave, true)
                } else {
                    (2 * levels - 1 - self.wave, false)
                };
                (1 << k..n)
                    .step_by(1 << (k + 1))
                    .map(|child| {
                        let parent = child - (1 << k);
                        if reduce {
                            flow(child, parent, m)
                        } else {
                            flow(parent, child, m)
                        }
                    })
                    .collect()
            }
            CollectiveKind::PipelineBurst => (1..n).map(|i| flow(i - 1, i, m)).collect(),
        }
    }

    /// Begin a round at `now`; returns the first wave's flows, or a typed
    /// error if a round is already active or the workload is finished.
    pub fn start_round(&mut self, now: Nanos) -> Result<Vec<FlowRequest>, CollectiveError> {
        if self.round_active() {
            return Err(CollectiveError::RoundInFlight);
        }
        if self.finished() {
            return Err(CollectiveError::Finished);
        }
        self.wave = 0;
        self.round_start = now;
        let flows = self.wave_flows(now);
        self.outstanding = flows.len();
        Ok(flows)
    }

    /// Record one flow completion at `now`. A drained wave releases the
    /// next one; a drained last wave closes the round — its duration is
    /// accounted, then the next round is due at `now + off_time` unless
    /// all rounds are done.
    pub fn on_flow_done(&mut self, now: Nanos) -> Result<Progress, CollectiveError> {
        if !self.round_active() {
            return Err(CollectiveError::NoRoundInFlight);
        }
        self.outstanding -= 1;
        if self.round_active() {
            return Ok(Progress::Pending);
        }
        self.wave += 1;
        if self.wave < self.waves_per_round() {
            let flows = self.wave_flows(now);
            self.outstanding = flows.len();
            return Ok(Progress::NextWave(flows));
        }
        self.rounds_done += 1;
        self.round_durations
            .push(now.saturating_sub(self.round_start));
        let next_round = (!self.finished()).then(|| now + self.spec.off_time);
        Ok(Progress::RoundDone { next_round })
    }

    /// NCCL-style algorithm bandwidth of finished round `idx`, bytes/sec.
    pub fn algbw_bytes_per_sec(&self, idx: usize) -> Option<f64> {
        let d = *self.round_durations.get(idx)?;
        if d == 0 {
            return None;
        }
        Some(self.per_rank_bytes() as f64 / (d as f64 / 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` workers `0..n`, 3 microbatches, a 1 µs OFF gap.
    fn spec(
        kind: CollectiveKind,
        n: usize,
        message_bytes: u64,
        rounds: Option<u32>,
    ) -> CollectiveSpec {
        CollectiveSpec {
            kind,
            workers: (0..n).collect(),
            message_bytes,
            microbatches: 3,
            rounds,
            off_time: 1000,
        }
    }

    fn machine(
        kind: CollectiveKind,
        n: usize,
        message_bytes: u64,
        rounds: Option<u32>,
    ) -> Collective {
        Collective::new(spec(kind, n, message_bytes, rounds))
    }

    /// Drive a whole round synchronously: start it, complete every
    /// flow of every wave at `t += 10`, return the wave sizes.
    fn drive_round(c: &mut Collective, start: Nanos) -> Vec<usize> {
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

    /// Drive one round to its end, returning the bytes its flows carry.
    fn round_bytes(c: &mut Collective) -> u64 {
        let wave_bytes = |flows: &[FlowRequest]| flows.iter().map(|f| f.bytes).sum::<u64>();
        let mut bytes = wave_bytes(&c.start_round(0).unwrap());
        loop {
            match c.on_flow_done(0).unwrap() {
                Progress::Pending => {}
                Progress::NextWave(flows) => bytes += wave_bytes(&flows),
                Progress::RoundDone { .. } => return bytes,
            }
        }
    }

    fn pairs(flows: &[FlowRequest]) -> Vec<(HostId, HostId)> {
        flows.iter().map(|f| (f.src, f.dst)).collect()
    }

    #[test]
    fn alltoall_round_is_a_full_mesh() {
        let mut w = machine(CollectiveKind::Alltoall, 4, 1 << 20, None);
        let flows = w.start_round(0).unwrap();
        assert_eq!(flows.len(), 12);
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert_eq!(f.bytes, 1 << 20);
            assert_eq!(f.start, 0);
        }
        // Every ordered pair exactly once, source-major.
        let mut sorted = pairs(&flows);
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, pairs(&flows));
        let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
        assert_eq!(bytes, 12 * (1 << 20));
    }

    #[test]
    fn alltoall_next_round_starts_after_off_time() {
        let mut w = machine(CollectiveKind::Alltoall, 3, 1 << 20, None);
        let flows = w.start_round(100).unwrap();
        let mut next = Progress::Pending;
        for k in 0..flows.len() {
            next = w.on_flow_done(1000 + k as Nanos).unwrap();
        }
        assert_eq!(
            next,
            Progress::RoundDone {
                next_round: Some(1005 + 1000)
            }
        );
        assert_eq!(w.rounds_done(), 1);
        assert_eq!(w.round_durations(), [905]);
    }

    /// The final round of a bounded run is fully accounted: its
    /// duration is recorded before the finished check, so a 2-round run
    /// reports 2 durations.
    #[test]
    fn final_round_duration_is_recorded_when_bounded() {
        let mut w = machine(CollectiveKind::Alltoall, 2, 1 << 20, Some(2));
        let mut last = Progress::Pending;
        for round in 0u64..2 {
            let start = round * 1_000_000;
            let flows = w.start_round(start).unwrap();
            assert!(!w.finished());
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
    fn alltoall_algbw_counts_every_peer() {
        let mut w = machine(CollectiveKind::Alltoall, 4, 1 << 20, Some(1));
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
    fn ring_runs_2n_minus_2_uniform_waves() {
        let mut ring = machine(CollectiveKind::RingAllreduce, 4, 4 << 20, Some(1));
        let waves = drive_round(&mut ring, 0);
        assert_eq!(waves, vec![4; 6]); // 2(n−1) = 6 waves of n = 4 flows
        assert!(ring.finished());
        assert_eq!(ring.round_durations().len(), 1);
        assert_eq!(ring.chunk_bytes(), 1 << 20);
        let mut fresh = machine(CollectiveKind::RingAllreduce, 4, 4 << 20, Some(1));
        assert_eq!(round_bytes(&mut fresh), 6 * 4 * (1 << 20));
    }

    #[test]
    fn ring_wave_is_successor_ring() {
        let mut ring = Collective::new(CollectiveSpec {
            kind: CollectiveKind::RingAllreduce,
            workers: vec![3, 5, 7],
            message_bytes: 3000,
            microbatches: 1,
            rounds: None,
            off_time: 0,
        });
        let flows = ring.start_round(0).unwrap();
        assert_eq!(pairs(&flows), vec![(3, 5), (5, 7), (7, 3)]);
        assert!(flows.iter().all(|f| f.bytes == 1000));
    }

    #[test]
    fn tree_waves_trace_binomial_up_then_down() {
        let mut tree = machine(CollectiveKind::TreeAllreduce, 5, 1 << 20, Some(1));
        // n = 5 → 3 levels. Reduce: {1→0, 3→2}, {2→0}, {4→0};
        // broadcast mirrors in reverse.
        let first = tree.start_round(0).unwrap();
        assert_eq!(pairs(&first), vec![(1, 0), (3, 2)]);
        let mut waves = vec![pairs(&first)];
        let mut pending = first.len();
        let mut t = 0;
        loop {
            t += 10;
            pending -= 1;
            match tree.on_flow_done(t).unwrap() {
                Progress::Pending => {}
                Progress::NextWave(flows) => {
                    assert_eq!(pending, 0, "a wave starts when the last one drained");
                    pending = flows.len();
                    waves.push(pairs(&flows));
                }
                Progress::RoundDone { next_round } => {
                    assert_eq!((pending, next_round), (0, None));
                    break;
                }
            }
        }
        assert_eq!(
            waves,
            vec![
                vec![(1, 0), (3, 2)],
                vec![(2, 0)],
                vec![(4, 0)],
                vec![(0, 4)],
                vec![(0, 2)],
                vec![(0, 1), (2, 3)],
            ]
        );
        assert!(tree.finished());
        let mut fresh = machine(CollectiveKind::TreeAllreduce, 5, 1 << 20, Some(1));
        assert_eq!(round_bytes(&mut fresh), 8 * (1 << 20));
    }

    #[test]
    fn tree_power_of_two_is_log_deep() {
        let mut tree = machine(CollectiveKind::TreeAllreduce, 8, 1000, Some(1));
        let waves = drive_round(&mut tree, 0);
        assert_eq!(waves, vec![4, 2, 1, 1, 2, 4]);
    }

    #[test]
    fn pipeline_runs_one_wave_per_microbatch() {
        let mut pipe = machine(CollectiveKind::PipelineBurst, 4, 1 << 20, Some(2));
        let waves = drive_round(&mut pipe, 0);
        assert_eq!(waves, vec![3; 3]); // 3 microbatches × (n−1) flows
        assert!(!pipe.finished());
        assert_eq!(pipe.rounds_done(), 1);
        let flows = pipe.start_round(10_000).unwrap();
        assert_eq!(pairs(&flows), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn off_gap_and_bounded_rounds() {
        let mut ring = Collective::new(CollectiveSpec {
            off_time: 5_000,
            ..spec(CollectiveKind::RingAllreduce, 2, 100, Some(2))
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
    fn misuse_reports_typed_errors() {
        for kind in CollectiveKind::ALL {
            let mut c = machine(kind, 3, 300, Some(1));
            // Completion with no round in flight.
            assert_eq!(c.on_flow_done(0), Err(CollectiveError::NoRoundInFlight));
            // Overlapping rounds.
            c.start_round(0).unwrap();
            assert_eq!(c.start_round(1), Err(CollectiveError::RoundInFlight));
            let mut t = 10;
            while !matches!(c.on_flow_done(t), Ok(Progress::RoundDone { .. })) {
                t += 10;
            }
            // Starting past the configured round budget.
            assert_eq!(c.start_round(t), Err(CollectiveError::Finished));
            // And the stray completion after the last round.
            assert_eq!(c.on_flow_done(t), Err(CollectiveError::NoRoundInFlight));
        }
    }

    #[test]
    fn algbw_uses_per_rank_payload() {
        let mut ring = machine(CollectiveKind::RingAllreduce, 4, 4 << 20, Some(1));
        drive_round(&mut ring, 0);
        let d = ring.round_durations()[0];
        let algbw = ring.algbw_bytes_per_sec(0).unwrap();
        let expect = (4 << 20) as f64 / (d as f64 / 1e9);
        assert!((algbw - expect).abs() / expect < 1e-12);
    }

    /// A spec that repeats a worker would make alltoall emit a
    /// `src == dst` flow the fabric refuses mid-run; it is refused at
    /// construction instead.
    #[test]
    fn invalid_specs_are_refused_at_construction() {
        let ok = spec(CollectiveKind::PipelineBurst, 3, 100, Some(1));
        assert_eq!(ok.validate(), Ok(()));
        let repeated = CollectiveSpec {
            kind: CollectiveKind::Alltoall,
            workers: vec![0, 1, 0],
            ..ok.clone()
        };
        assert_eq!(
            repeated.validate(),
            Err("collective: duplicate worker 0".into())
        );
        let refused = std::panic::catch_unwind(|| Collective::new(repeated));
        assert!(refused.is_err(), "a repeated worker must not build");
        for bad in [
            CollectiveSpec {
                workers: vec![0],
                ..ok.clone()
            },
            CollectiveSpec {
                message_bytes: 0,
                ..ok.clone()
            },
            CollectiveSpec {
                rounds: Some(0),
                ..ok.clone()
            },
            CollectiveSpec {
                microbatches: 0,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
        // Microbatches are read only by the pipeline kind.
        let a2a = CollectiveSpec {
            kind: CollectiveKind::Alltoall,
            microbatches: 0,
            ..ok
        };
        assert_eq!(a2a.validate(), Ok(()));
    }
}
