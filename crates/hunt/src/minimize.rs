//! Delta-debugging minimizer: shrink a confirmed finding while its
//! oracle keeps firing.
//!
//! Greedy passes over every shrinkable axis — drop workload specs and
//! fault events (rightmost-first, so later passes see stable indices),
//! halve repetition counts and flow sizes, reset each DCQCN parameter to
//! its NVIDIA default, shrink the fabric itself (re-addressing every
//! endpoint through `remap_point`) — repeated until a
//! full sweep accepts nothing. Running to fixpoint makes the minimizer
//! *idempotent*: minimizing an already-minimal point performs one sweep
//! of rejected trials and returns it unchanged, a property the test
//! suite checks with synthetic predicates and real corpus cases alike.
//!
//! The predicate is injected ([`minimize_with`]), so tests can shrink
//! against cheap synthetic invariants; [`minimize`] wires in the real
//! "evaluate and check the oracle still fires" check.

use paraleon_dcqcn::DcqcnParams;
use paraleon_netsim::{ClosSpec, FaultPlan, TopoSpec};
use paraleon_workloads::CollectiveSpec;
use serde::{Deserialize, Serialize};

use crate::eval::{evaluate, EvalConfig};
use crate::genome::{remap_point, HuntPoint};
use crate::oracle::{OracleConfig, OracleKind};

/// What the minimizer did, recorded into the corpus case.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MinimizeStats {
    /// Shrink candidates tried (predicate evaluations).
    pub trials: u64,
    /// Candidates accepted (each strictly simplified the point).
    pub accepted: u64,
    /// Whether the pass loop reached its fixpoint within the trial
    /// budget (false means the point may shrink further).
    pub converged: bool,
}

/// Shrink `point` while `fires` stays true.
///
/// `fires` must be deterministic. The returned point always satisfies
/// the predicate; if even the input does not, it is returned unchanged
/// with zero trials (a defensive guard — the search only minimizes
/// confirmed findings).
pub fn minimize_with<F>(
    point: &HuntPoint,
    max_trials: u64,
    mut fires: F,
) -> (HuntPoint, MinimizeStats)
where
    F: FnMut(&HuntPoint) -> bool,
{
    let mut stats = MinimizeStats {
        trials: 0,
        accepted: 0,
        converged: false,
    };
    if !fires(point) {
        return (point.clone(), stats);
    }
    let mut best = point.clone();
    loop {
        let mut improved = false;
        let mut try_candidate =
            |cand: HuntPoint, best: &mut HuntPoint, stats: &mut MinimizeStats| {
                if stats.trials >= max_trials || cand == *best || cand.validate().is_err() {
                    return false;
                }
                stats.trials += 1;
                if fires(&cand) {
                    stats.accepted += 1;
                    *best = cand;
                    true
                } else {
                    false
                }
            };

        // Pass 1: drop whole workload specs, rightmost-first.
        let mut i = best.workload.len();
        while i > 0 {
            i -= 1;
            if best.workload.len() <= 1 {
                break;
            }
            let mut cand = best.clone();
            cand.workload.remove(i);
            improved |= try_candidate(cand, &mut best, &mut stats);
        }

        // Pass 2: halve repetition counts (floor 1), to local fixpoint.
        for i in 0..best.workload.len() {
            while best.workload[i].count > 1 {
                let mut cand = best.clone();
                cand.workload[i].count = (cand.workload[i].count / 2).max(1);
                if !try_candidate(cand, &mut best, &mut stats) {
                    break;
                }
                improved = true;
            }
        }

        // Pass 3: halve flow sizes (floor 1 KiB), to local fixpoint.
        for i in 0..best.workload.len() {
            while best.workload[i].bytes > 1024 {
                let mut cand = best.clone();
                cand.workload[i].bytes = (cand.workload[i].bytes / 2).max(1024);
                if !try_candidate(cand, &mut best, &mut stats) {
                    break;
                }
                improved = true;
            }
        }

        // Pass 3b: strip the collective, or failing that shrink it —
        // halve the payload (floor 1 KiB) and collapse to one round. A
        // finding that survives without its collective is a plain
        // workload bug; one that doesn't has proven the barrier matters.
        if best.collective.is_some() {
            let mut cand = best.clone();
            cand.collective = None;
            improved |= try_candidate(cand, &mut best, &mut stats);
        }
        if let Some(c) = best.collective.as_ref().filter(|c| c.rounds > Some(1)) {
            let mut cand = best.clone();
            cand.collective = Some(CollectiveSpec {
                rounds: Some(1),
                ..c.clone()
            });
            improved |= try_candidate(cand, &mut best, &mut stats);
        }
        while let Some(c) = best.collective.as_ref().filter(|c| c.message_bytes > 1024) {
            let mut cand = best.clone();
            cand.collective = Some(CollectiveSpec {
                message_bytes: (c.message_bytes / 2).max(1024),
                ..c.clone()
            });
            if !try_candidate(cand, &mut best, &mut stats) {
                break;
            }
            improved = true;
        }

        // Pass 4: drop fault events, rightmost-first. Dropping half of a
        // paired transition (a storm's end, a loss window's clear) is
        // legal — the fault simply persists, often an even simpler repro.
        let mut i = best.faults.len();
        while i > 0 {
            i -= 1;
            let mut faults = FaultPlan::new(best.faults.seed);
            for (j, ev) in best.faults.events().iter().enumerate() {
                if j != i {
                    faults.push(*ev);
                }
            }
            let mut cand = best.clone();
            cand.faults = faults;
            improved |= try_candidate(cand, &mut best, &mut stats);
        }

        // Pass 5: reset each DCQCN parameter to its default.
        let defaults = DcqcnParams::nvidia_default();
        for id in paraleon_dcqcn::ALL_PARAMS {
            if best.params.get(id) != defaults.get(id) {
                let mut cand = best.clone();
                cand.params.set(id, defaults.get(id));
                improved |= try_candidate(cand, &mut best, &mut stats);
            }
        }
        if best.params.clamp_tgt_rate != defaults.clamp_tgt_rate {
            let mut cand = best.clone();
            cand.params.clamp_tgt_rate = defaults.clamp_tgt_rate;
            improved |= try_candidate(cand, &mut best, &mut stats);
        }

        // Pass 6a: collapse an exotic topology family back to the plain
        // two-tier Clos with the same host count. Fault events that no
        // longer address a real port make the candidate invalid and the
        // collapse is skipped (dropping them first is pass 4's job); a
        // finding that survives the collapse didn't need the family.
        if best.topo.as_two_tier().is_none() {
            let mut cand = best.clone();
            cand.topo = TopoSpec::TwoTier(best.topo.to_two_tier());
            improved |= try_candidate(cand, &mut best, &mut stats);
        }

        // Pass 6b: shrink the fabric one dimension at a time, re-mapping
        // every endpoint; a shrink that orphans anything fails remap and
        // is skipped without spending a trial. Each candidate derives
        // from the *current* best topology — deriving all three from the
        // sweep-start topology would let a later candidate silently
        // restore a dimension an earlier acceptance just shrank, and the
        // minimizer would oscillate instead of converging. Dimension
        // shrinking only understands the two-tier family; exotic families
        // must collapse (pass 6a) before their dims can shrink.
        for dim in 0..3usize {
            if let Some(&t) = best.topo.as_two_tier() {
                let new_topo = match dim {
                    0 => ClosSpec {
                        n_leaf: t.n_leaf.saturating_sub(1).max(1),
                        ..t
                    },
                    1 => ClosSpec {
                        n_tor: t.n_tor.saturating_sub(1).max(1),
                        ..t
                    },
                    _ => ClosSpec {
                        hosts_per_tor: t.hosts_per_tor.saturating_sub(1).max(1),
                        ..t
                    },
                };
                if TopoSpec::TwoTier(new_topo) == best.topo {
                    continue;
                }
                if let Some(cand) = remap_point(&best, new_topo) {
                    improved |= try_candidate(cand, &mut best, &mut stats);
                }
            }
        }

        if stats.trials >= max_trials {
            // Out of budget: a sweep that "accepted nothing" here proves
            // nothing (try_candidate refuses every trial), so converged
            // stays false.
            break;
        }
        if !improved {
            stats.converged = true;
            break;
        }
    }
    (best, stats)
}

/// Shrink a confirmed finding while oracle `kind` keeps firing under the
/// exact configs it was found with.
pub fn minimize(
    point: &HuntPoint,
    kind: OracleKind,
    eval_cfg: &EvalConfig,
    oracle_cfg: &OracleConfig,
    max_trials: u64,
) -> (HuntPoint, MinimizeStats) {
    minimize_with(point, max_trials, |p| {
        evaluate(eval_cfg, oracle_cfg, p)
            .map(|ev| ev.report.fired(kind))
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::FlowSpec;
    use paraleon_netsim::MILLI;

    fn fat_point() -> HuntPoint {
        let mut faults = FaultPlan::new(3);
        faults.pfc_storm(0, MILLI, 2 * MILLI);
        faults.degrade(MILLI, 9, 0, 0.1);
        HuntPoint {
            topo: TopoSpec::TwoTier(ClosSpec {
                n_tor: 2,
                hosts_per_tor: 4,
                n_leaf: 2,
                host_gbps: 100.0,
                uplink_gbps: 100.0,
                delay_ns: 4_000,
            }),
            workload: vec![
                FlowSpec {
                    src: 0,
                    dst: 4,
                    bytes: 4_000_000,
                    start: 0,
                    count: 16,
                    gap: MILLI,
                },
                FlowSpec {
                    src: 5,
                    dst: 1,
                    bytes: 2_000_000,
                    start: 0,
                    count: 8,
                    gap: MILLI,
                },
            ],
            collective: None,
            faults,
            params: DcqcnParams::expert(),
            seed: 5,
        }
    }

    #[test]
    fn shrinks_to_the_load_bearing_core() {
        // Synthetic oracle: fires while the point still has a storm
        // fault and at least 4 total repetitions. Everything else is
        // incidental and must be stripped.
        let fires = |p: &HuntPoint| {
            let storm = p
                .faults
                .events()
                .iter()
                .any(|e| matches!(e.kind, paraleon_netsim::FaultKind::PfcStormStart));
            let reps: u32 = p.workload.iter().map(|f| f.count).sum();
            storm && reps >= 4
        };
        let (min, stats) = minimize_with(&fat_point(), 10_000, fires);
        assert!(stats.converged);
        assert!(fires(&min));
        assert_eq!(min.workload.len(), 1);
        assert_eq!(min.workload[0].count, 4);
        assert_eq!(min.workload[0].bytes, 1024);
        assert_eq!(min.faults.len(), 1, "only the storm start survives");
        assert_eq!(min.params.ai_rate, DcqcnParams::nvidia_default().ai_rate);
        // The fabric shrank to the minimum that still hosts the genome.
        assert!(min.topo.n_hosts() < fat_point().topo.n_hosts());
    }

    #[test]
    fn shrinks_collective_and_collapses_family() {
        use paraleon_workloads::CollectiveKind;
        // Start on a rail fabric with a fat allreduce; the synthetic
        // oracle only needs *a* collective with ≥ 4 KiB messages, so the
        // minimizer must collapse the family, drop the extra round and
        // halve the payload down to the 4 KiB floor the predicate sets.
        let mut p = fat_point();
        p.topo = TopoSpec::Rail(paraleon_netsim::RailSpec {
            n_rail: 2,
            n_server: 4,
            n_spine: 2,
            host_gbps: 100.0,
            uplink_gbps: 100.0,
            delay_ns: 4_000,
        });
        p.collective = Some(CollectiveSpec {
            kind: CollectiveKind::RingAllreduce,
            workers: vec![0, 1, 2, 3],
            message_bytes: 1 << 20,
            microbatches: 2,
            rounds: Some(4),
            off_time: MILLI,
        });
        p.validate().expect("fixture valid");
        let fires = |p: &HuntPoint| {
            p.collective
                .as_ref()
                .is_some_and(|c| c.message_bytes >= 4096)
        };
        let (min, stats) = minimize_with(&p, 10_000, fires);
        assert!(stats.converged);
        let c = min.collective.expect("collective is load-bearing");
        assert_eq!(c.rounds, Some(1));
        assert_eq!(c.message_bytes, 4096);
        assert!(
            min.topo.as_two_tier().is_some(),
            "family must collapse to two-tier, got {:?}",
            min.topo
        );
    }

    #[test]
    fn minimization_is_idempotent() {
        let fires = |p: &HuntPoint| !p.workload.is_empty() && p.workload[0].count >= 2;
        let (once, s1) = minimize_with(&fat_point(), 10_000, fires);
        let (twice, s2) = minimize_with(&once, 10_000, fires);
        assert!(s1.converged && s2.converged);
        assert_eq!(once, twice);
        assert_eq!(s2.accepted, 0, "second run must accept nothing");
    }

    #[test]
    fn non_firing_input_returns_unchanged() {
        let p = fat_point();
        let (out, stats) = minimize_with(&p, 100, |_| false);
        assert_eq!(out, p);
        assert_eq!(stats.trials, 0);
    }
}
