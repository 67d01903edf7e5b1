//! The oracle suite: machine-checkable definitions of "this run went
//! pathologically wrong", shared between the hunter and the experiment
//! harness.
//!
//! Detectors come in two layers. The *measures* at the top
//! ([`goodput_collapse`], [`pfc_storm`], `jain_index`) are pure
//! functions over per-interval signal slices — `exp faults` consumes
//! them directly on closed-loop history, the hunter on raw-simulator
//! runs. The [`OracleReport`] below combines them (plus audit and
//! livelock evidence) into fired/score verdicts over a faulted run and
//! its fault-free twin.
//!
//! Scores are smooth in `[0, 1]` so the search has a gradient to climb
//! *before* an oracle fires; `fired` is the hard verdict a corpus case
//! replays against.

use std::ops::Range;

use paraleon::stats::{gbps_of, mean};
use serde::{Deserialize, Serialize};

use crate::eval::RunMetrics;

/// Goodput-collapse measure: tail-mean goodput against a baseline mean.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CollapseMeasure {
    /// Mean goodput over the baseline window (bytes/sec).
    pub baseline: f64,
    /// Mean goodput over the last `tail_len` intervals (bytes/sec).
    pub tail: f64,
    /// `tail / max(baseline, 1)` — below 1 the run degraded, near 0 it
    /// collapsed.
    pub recovery_ratio: f64,
}

/// Compare tail goodput against a baseline window of the same series
/// (the fault-experiment's recovery check) or of a twin run's series
/// (the hunter's collapse oracle). Ranges are clamped to the series.
pub fn goodput_collapse(
    goodputs: &[f64],
    baseline: Range<usize>,
    tail_len: usize,
) -> CollapseMeasure {
    let baseline_slice =
        &goodputs[baseline.start.min(goodputs.len())..baseline.end.min(goodputs.len())];
    let tail_slice = &goodputs[goodputs.len().saturating_sub(tail_len)..];
    let baseline = mean(baseline_slice);
    let tail = mean(tail_slice);
    CollapseMeasure {
        baseline,
        tail,
        recovery_ratio: tail / baseline.max(1.0),
    }
}

/// PFC pause-storm measure over a per-interval pause-ratio series.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StormMeasure {
    /// Largest sliding-window mean pause ratio.
    pub peak_window_mean: f64,
    /// Number of intervals whose pause ratio exceeds the threshold.
    pub intervals_above: usize,
}

/// Slide a `window`-interval mean over the pause-ratio series. A pause
/// *storm* (as opposed to transient backpressure) is sustained: the
/// network-mean pause ratio stays high across a whole window, which on
/// a multi-port fabric means pauses propagated beyond a single queue.
pub fn pfc_storm(pause_ratios: &[f64], window: usize, threshold: f64) -> StormMeasure {
    let window = window.max(1);
    let mut peak = 0f64;
    if pause_ratios.len() >= window {
        for w in pause_ratios.windows(window) {
            peak = peak.max(mean(w));
        }
    } else {
        peak = mean(pause_ratios);
    }
    StormMeasure {
        peak_window_mean: peak,
        intervals_above: pause_ratios.iter().filter(|&&r| r > threshold).count(),
    }
}

/// Jain's fairness index over per-flow allocations: 1 is perfectly fair,
/// `1/n` is one flow taking everything. Empty or all-zero input is
/// vacuously fair (1.0).
pub(crate) fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if n == 0.0 || sumsq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n * sumsq)
    }
}

/// Control-plane divergence measure, produced by the evaluator's
/// closed-loop probe when (and only when) a candidate schedules
/// control-plane faults. Both protocol variants run the same topology,
/// workload, seed and fault plan; `converged` means the loop reached
/// quiescence (no pending dispatch, both channel lanes drained) with the
/// fabric's deployed parameters equal to the controller's belief.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CtrlMeasure {
    /// The hardened (epoch-stamped, retried, snapshot-restored) protocol
    /// converged.
    pub hardened_converged: bool,
    /// The naive (apply-everything-in-arrival-order) protocol converged.
    pub naive_converged: bool,
    /// Control messages the hardened run's channels lost, both lanes.
    pub msgs_lost: u64,
    /// Dispatch retries the hardened run spent recovering.
    pub retries: u64,
    /// Controller crashes replayed against the hardened run.
    pub crashes: u64,
    /// Lost fraction of sent control messages, `[0, 1]` — the smooth
    /// stress signal the search climbs before divergence manifests.
    pub loss_ratio: f64,
}

/// The pathology classes the hunter can confirm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OracleKind {
    /// Tail goodput collapsed relative to the fault-free twin run.
    GoodputCollapse,
    /// Sustained network-wide PFC pause storm.
    PfcStorm,
    /// Per-flow unfairness or outright starvation in the tail window.
    Unfairness,
    /// `paraleon-audit` invariant violations during the run.
    AuditViolation,
    /// The run churned events without delivering (or blew its
    /// deterministic event budget before its scheduled end).
    Livelock,
    /// Under the same control-plane faults, the naive (epoch-less)
    /// dispatch protocol left the fabric on stale parameters at
    /// quiescence while the hardened epoch/retry/snapshot protocol
    /// converged. Opt-in: not part of [`ALL_ORACLES`] — default hunts
    /// and pre-existing corpus cases never judge it — target it through
    /// [`SearchConfig::targets`](crate::SearchConfig::targets).
    CtrlDivergence,
}

/// The always-judged oracle kinds, in report order. The opt-in
/// [`OracleKind::CtrlDivergence`] is deliberately absent: it needs the
/// (closed-loop, twice-as-expensive) control-plane probe, which only
/// runs for candidates that schedule control-plane faults.
pub const ALL_ORACLES: [OracleKind; 5] = [
    OracleKind::GoodputCollapse,
    OracleKind::PfcStorm,
    OracleKind::Unfairness,
    OracleKind::AuditViolation,
    OracleKind::Livelock,
];

impl OracleKind {
    /// CLI / corpus-file name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::GoodputCollapse => "goodput_collapse",
            OracleKind::PfcStorm => "pfc_storm",
            OracleKind::Unfairness => "unfairness",
            OracleKind::AuditViolation => "audit_violation",
            OracleKind::Livelock => "livelock",
            OracleKind::CtrlDivergence => "ctrl_divergence",
        }
    }
}

/// Thresholds the verdicts are judged against. Committed with each
/// corpus case so replays judge by the thresholds the case was found
/// under, even if the defaults later move.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OracleConfig {
    /// Collapse fires when `tail / twin_tail` drops below this.
    pub collapse_ratio: f64,
    /// ... and the twin's tail goodput exceeds this (Gbps): a fabric
    /// idling in both runs is not a collapse.
    pub collapse_floor_gbps: f64,
    /// Storm sliding-window length (intervals).
    pub storm_window: usize,
    /// Storm fires when the peak window-mean pause ratio reaches this.
    pub storm_threshold: f64,
    /// Unfairness fires when tail Jain index drops below this.
    pub jain_threshold: f64,
    /// Fairness needs at least this many eligible flows to judge.
    pub min_fairness_flows: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            collapse_ratio: 0.5,
            collapse_floor_gbps: 1.0,
            storm_window: 5,
            storm_threshold: 0.25,
            jain_threshold: 0.5,
            min_fairness_flows: 2,
        }
    }
}

/// One oracle's verdict on a run.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OracleOutcome {
    /// Which oracle.
    pub kind: OracleKind,
    /// Hard verdict: the pathology is confirmed.
    pub fired: bool,
    /// Smooth signal in `[0, 1]` the search climbs.
    pub score: f64,
}

/// The full oracle evaluation of one faulted run + twin pair. Every
/// field is derived deterministically from the two runs, so a replay of
/// a corpus case must reproduce this struct *byte for byte* in JSON.
#[derive(Debug, Clone, Serialize)]
pub struct OracleReport {
    /// Per-oracle verdicts: [`ALL_ORACLES`] order, plus a trailing
    /// [`OracleKind::CtrlDivergence`] entry when the probe ran.
    pub outcomes: Vec<OracleOutcome>,
    /// Faulted run tail goodput, Gbps.
    pub tail_goodput_gbps: f64,
    /// Twin run tail goodput, Gbps.
    pub twin_tail_goodput_gbps: f64,
    /// `tail / twin_tail` (1.0 when the twin idles).
    pub collapse_ratio: f64,
    /// Peak sliding-window mean pause ratio of the faulted run.
    pub peak_pause_window: f64,
    /// Tail Jain fairness index over eligible flows (1.0 if too few).
    pub jain_tail: f64,
    /// Eligible flows that moved zero bytes in the tail while at least
    /// one other made progress.
    pub starved_flows: u64,
    /// Flows judged for fairness.
    pub eligible_flows: u64,
    /// Audit invariant violations drained after the faulted run.
    pub audit_violations: u64,
    /// Events the faulted run processed.
    pub events_processed: u64,
    /// Whether the faulted run blew its event budget before its
    /// scheduled end.
    pub aborted_early: bool,
    /// Intervals the faulted run actually completed.
    pub intervals_run: u64,
    /// Control-plane probe measure — present only for candidates that
    /// schedule control-plane faults. Omitted rather than `null` when
    /// absent, so the reports of ctrl-free candidates (every corpus case
    /// committed before the control-plane oracle among them) keep their
    /// bytes.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ctrl: Option<CtrlMeasure>,
}

impl OracleReport {
    /// The verdict for `kind`, if this report judged it — the opt-in
    /// [`OracleKind::CtrlDivergence`] is only present when the probe
    /// ran.
    pub fn outcome(&self, kind: OracleKind) -> Option<&OracleOutcome> {
        self.outcomes.iter().find(|o| o.kind == kind)
    }

    /// Whether `kind` confirmed its pathology (false when unjudged).
    pub fn fired(&self, kind: OracleKind) -> bool {
        self.outcome(kind).is_some_and(|o| o.fired)
    }

    /// The score the search climbs for `kind` (0 when unjudged, so a
    /// ctrl-divergence lane breeds toward candidates that at least carry
    /// control-plane faults).
    pub fn score(&self, kind: OracleKind) -> f64 {
        self.outcome(kind).map_or(0.0, |o| o.score)
    }
}

/// Judge a faulted run against its fault-free twin.
///
/// `audit_violations` is whatever the evaluator drained from the audit
/// registry after the faulted run (always 0 when the `audit` feature is
/// compiled out — the oracle is then inert, never falsely negative).
pub(crate) fn judge(
    cfg: &OracleConfig,
    run: &RunMetrics,
    twin: &RunMetrics,
    audit_violations: u64,
    ctrl: Option<CtrlMeasure>,
) -> OracleReport {
    let tail_len = run.tail_len;
    // --- Goodput collapse vs the twin. ---
    let tail = goodput_collapse(&run.goodput, 0..0, tail_len).tail;
    let twin_tail = goodput_collapse(&twin.goodput, 0..0, tail_len).tail;
    let tail_gbps = gbps_of(tail);
    let twin_gbps = gbps_of(twin_tail);
    let meaningful_twin = twin_gbps >= cfg.collapse_floor_gbps;
    let ratio = if meaningful_twin {
        tail / twin_tail.max(1.0)
    } else {
        1.0
    };
    let collapse_fired = meaningful_twin && ratio < cfg.collapse_ratio;
    let collapse_score = if meaningful_twin {
        (1.0 - ratio).clamp(0.0, 1.0)
    } else {
        0.0
    };

    // --- PFC pause storm. ---
    let storm = pfc_storm(&run.pause_ratio, cfg.storm_window, cfg.storm_threshold);
    let storm_fired = storm.peak_window_mean >= cfg.storm_threshold;
    let storm_score = storm.peak_window_mean.clamp(0.0, 1.0);

    // --- Unfairness / starvation over the tail window. ---
    let eligible = &run.eligible_tail_bytes;
    let (jain, starved) = if eligible.len() >= cfg.min_fairness_flows {
        let bytes: Vec<f64> = eligible.iter().map(|&(_, b)| b as f64).collect();
        let max = bytes.iter().cloned().fold(0f64, f64::max);
        let starved = if max > 0.0 {
            bytes.iter().filter(|&&b| b == 0.0).count() as u64
        } else {
            0
        };
        (jain_index(&bytes), starved)
    } else {
        (1.0, 0)
    };
    let unfair_fired = jain < cfg.jain_threshold || starved > 0;
    let unfair_score = (1.0 - jain)
        .clamp(0.0, 1.0)
        .max(if starved > 0 { 0.9 } else { 0.0 });

    // --- Audit invariant violations. ---
    let audit_fired = audit_violations > 0;
    let audit_score = (audit_violations as f64 / 5.0).clamp(0.0, 1.0);

    // --- Livelock: budget blown, or tail churn with zero delivery. ---
    let tail_start = run.bytes_delivered.len().saturating_sub(tail_len);
    let tail_delivered: u64 = run.bytes_delivered[tail_start..].iter().sum();
    let tail_churn: u64 = run.cnps[tail_start..].iter().sum::<u64>()
        + run.pfc_events[tail_start..].iter().sum::<u64>();
    let starved_fabric =
        tail_delivered == 0 && run.active_flows_end > 0 && tail_churn > 0 && tail_start > 0;
    let livelock_fired = run.aborted_early || starved_fabric;
    let zero_frac = if run.bytes_delivered.is_empty() {
        0.0
    } else {
        run.bytes_delivered[tail_start..]
            .iter()
            .filter(|&&b| b == 0)
            .count() as f64
            / run.bytes_delivered[tail_start..].len().max(1) as f64
    };
    let livelock_score = if livelock_fired { 1.0 } else { 0.8 * zero_frac };

    let mut outcomes = vec![
        OracleOutcome {
            kind: OracleKind::GoodputCollapse,
            fired: collapse_fired,
            score: collapse_score,
        },
        OracleOutcome {
            kind: OracleKind::PfcStorm,
            fired: storm_fired,
            score: storm_score,
        },
        OracleOutcome {
            kind: OracleKind::Unfairness,
            fired: unfair_fired,
            score: unfair_score,
        },
        OracleOutcome {
            kind: OracleKind::AuditViolation,
            fired: audit_fired,
            score: audit_score,
        },
        OracleOutcome {
            kind: OracleKind::Livelock,
            fired: livelock_fired,
            score: livelock_score,
        },
    ];

    // --- Control-plane divergence (probe-gated, opt-in). ---
    if let Some(m) = ctrl {
        // The finding is a *differential*: the hardened protocol must
        // survive the exact faults that strand the naive one — a
        // scenario breaking both is channel vandalism, not a protocol
        // pathology.
        let fired = m.hardened_converged && !m.naive_converged;
        let stress = 0.6 * m.loss_ratio
            + 0.2 * (m.retries.min(5) as f64 / 5.0)
            + 0.2 * if m.naive_converged { 0.0 } else { 1.0 };
        let score = if fired {
            1.0
        } else {
            (0.9 * stress).clamp(0.0, 0.9)
        };
        outcomes.push(OracleOutcome {
            kind: OracleKind::CtrlDivergence,
            fired,
            score,
        });
    }
    OracleReport {
        outcomes,
        tail_goodput_gbps: tail_gbps,
        twin_tail_goodput_gbps: twin_gbps,
        collapse_ratio: ratio,
        peak_pause_window: storm.peak_window_mean,
        jain_tail: jain,
        starved_flows: starved,
        eligible_flows: eligible.len() as u64,
        audit_violations,
        events_processed: run.events_processed,
        aborted_early: run.aborted_early,
        intervals_run: run.intervals_run,
        ctrl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapse_measure_matches_hand_math() {
        let g = [10.0, 10.0, 10.0, 10.0, 2.0, 2.0];
        let m = goodput_collapse(&g, 0..4, 2);
        assert_eq!(m.baseline, 10.0);
        assert_eq!(m.tail, 2.0);
        assert!((m.recovery_ratio - 0.2).abs() < 1e-12);
    }

    #[test]
    fn storm_peak_is_worst_window() {
        let p = [0.0, 0.1, 0.9, 0.9, 0.9, 0.0];
        let m = pfc_storm(&p, 3, 0.5);
        assert!((m.peak_window_mean - 0.9).abs() < 1e-12);
        assert_eq!(m.intervals_above, 3);
        // Short series fall back to the overall mean.
        assert!(pfc_storm(&p[..2], 3, 0.5).peak_window_mean < 0.1);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0]), 1.0);
        let skew = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
    }

    fn flat_metrics() -> crate::eval::RunMetrics {
        crate::eval::RunMetrics {
            goodput: vec![1e9; 8],
            pause_ratio: vec![0.0; 8],
            bytes_delivered: vec![1_000_000; 8],
            cnps: vec![0; 8],
            pfc_events: vec![0; 8],
            eligible_tail_bytes: vec![(0, 500_000), (1, 500_000)],
            active_flows_end: 0,
            aborted_early: false,
            events_processed: 1_000,
            intervals_run: 8,
            tail_len: 3,
        }
    }

    #[test]
    fn ctrl_outcome_is_appended_only_when_the_probe_ran() {
        let cfg = OracleConfig::default();
        let (run, twin) = (flat_metrics(), flat_metrics());
        let plain = judge(&cfg, &run, &twin, 0, None);
        assert_eq!(plain.outcomes.len(), ALL_ORACLES.len());
        assert!(plain.outcome(OracleKind::CtrlDivergence).is_none());
        assert!(!plain.fired(OracleKind::CtrlDivergence));
        assert_eq!(plain.score(OracleKind::CtrlDivergence), 0.0);
        // A ctrl-free report must serialize without any `ctrl` key so
        // pre-existing corpus bytes are preserved verbatim.
        assert!(!serde_json::to_string(&plain).unwrap().contains("ctrl"));

        let diverged = judge(
            &cfg,
            &run,
            &twin,
            0,
            Some(CtrlMeasure {
                hardened_converged: true,
                naive_converged: false,
                msgs_lost: 7,
                retries: 2,
                crashes: 0,
                loss_ratio: 0.35,
            }),
        );
        assert_eq!(diverged.outcomes.len(), ALL_ORACLES.len() + 1);
        assert!(diverged.fired(OracleKind::CtrlDivergence));
        assert_eq!(diverged.score(OracleKind::CtrlDivergence), 1.0);
        assert!(serde_json::to_string(&diverged)
            .unwrap()
            .contains("\"ctrl\""));
    }

    #[test]
    fn ctrl_divergence_is_differential() {
        let cfg = OracleConfig::default();
        let (run, twin) = (flat_metrics(), flat_metrics());
        // Both protocols stranded: vandalism, not a protocol pathology —
        // but the stress score still climbs.
        let both_dead = judge(
            &cfg,
            &run,
            &twin,
            0,
            Some(CtrlMeasure {
                hardened_converged: false,
                naive_converged: false,
                msgs_lost: 40,
                retries: 9,
                crashes: 1,
                loss_ratio: 0.8,
            }),
        );
        assert!(!both_dead.fired(OracleKind::CtrlDivergence));
        let s = both_dead.score(OracleKind::CtrlDivergence);
        assert!(s > 0.0 && s <= 0.9, "stress score in (0, 0.9]: {s}");
    }
}
