//! The hunt loop: seeded (µ+λ)-style guided search over the genome.
//!
//! Each generation builds a batch of candidates — every targeted oracle
//! kind gets slots, each mutated from that kind's current elite (or a
//! fresh seed point while none exists) — and fans their evaluations
//! across worker threads with [`paraleon::sweep::run`]. Because the batch
//! is assembled on the coordinator thread from one seeded RNG and sweep
//! results come back in job order, a hunt is a pure function of
//! [`SearchConfig`]: `--threads 8` finds byte-for-byte what `--threads 1`
//! finds, only sooner.
//!
//! Selection is per-kind elitism on the oracle's smooth score, which
//! gives the search a gradient to climb before anything fires (a 40%
//! goodput dip breeds toward a 60% collapse). The best *fired* point per
//! kind is kept as that kind's finding and optionally delta-debugged
//! down to a minimal repro.

use paraleon::sweep;
use paraleon_netsim::Nanos;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::eval::{evaluate, EvalConfig, Evaluation};
use crate::genome::HuntPoint;
use crate::minimize::{minimize, MinimizeStats};
use crate::mutate::{mutate, seed_point};
use crate::oracle::{OracleConfig, OracleKind, OracleReport, ALL_ORACLES};

/// Candidates per generation.
const BATCH: usize = 16;

/// Trial budget per minimization.
const MINIMIZE_TRIALS: u64 = 400;

/// Everything that defines one hunt. A hunt is deterministic in this
/// struct: same config, same findings, any thread count.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Total candidate evaluations to spend.
    pub budget: u64,
    /// Search RNG seed.
    pub seed: u64,
    /// Worker threads for fanning evaluations.
    pub threads: usize,
    /// Per-candidate run length and budgets.
    pub eval: EvalConfig,
    /// Oracle thresholds.
    pub oracles: OracleConfig,
    /// Which pathology classes to hunt (empty means all).
    pub targets: Vec<OracleKind>,
    /// Delta-debug each finding down to a minimal repro.
    pub minimize: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            budget: 64,
            seed: 42,
            threads: 1,
            eval: EvalConfig::default(),
            oracles: OracleConfig::default(),
            targets: ALL_ORACLES.to_vec(),
            minimize: true,
        }
    }
}

/// One confirmed, (optionally) minimized pathology.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which oracle confirmed it.
    pub kind: OracleKind,
    /// The repro genome (minimized when the hunt minimizes).
    pub point: HuntPoint,
    /// The oracle report of `point` — re-judged after minimization, so
    /// it always describes the committed genome.
    pub report: OracleReport,
    /// The score at which the un-minimized ancestor was selected.
    pub found_score: f64,
    /// Evaluations spent when the ancestor first fired.
    pub found_at_eval: u64,
    /// Minimization accounting, when it ran.
    pub minimize: Option<MinimizeStats>,
}

/// Aggregate result of one hunt.
#[derive(Debug, Clone)]
pub struct HuntResult {
    /// Best confirmed finding per fired kind, in [`ALL_ORACLES`] order.
    pub findings: Vec<Finding>,
    /// Evaluations actually spent in the search loop (minimization
    /// trials are accounted separately, inside each finding).
    pub evals: u64,
    /// Generations run.
    pub generations: u64,
}

/// Per-kind search state.
struct Lane {
    kind: OracleKind,
    /// Highest-scoring point so far (fired or not) — the breeding elite.
    elite: Option<(HuntPoint, f64)>,
    /// Highest-scoring *fired* point so far.
    fired: Option<(HuntPoint, OracleReport, f64, u64)>,
}

/// Mutation horizon for candidates run under `eval`: the run length, so
/// no start or fault time lands past the run's end as a dead gene.
fn horizon(eval: &EvalConfig) -> Nanos {
    eval.intervals * eval.lambda_mi
}

/// Run the hunt.
pub fn hunt(cfg: &SearchConfig) -> HuntResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let horizon = horizon(&cfg.eval);
    let targets = if cfg.targets.is_empty() {
        ALL_ORACLES.to_vec()
    } else {
        cfg.targets.clone()
    };
    let mut lanes: Vec<Lane> = targets
        .iter()
        .map(|&kind| Lane {
            kind,
            elite: None,
            fired: None,
        })
        .collect();

    let mut evals = 0u64;
    let mut generations = 0u64;
    let mut seen = std::collections::HashSet::new();

    while evals < cfg.budget {
        let want = (cfg.budget - evals).min(BATCH as u64) as usize;
        // Assemble the generation on the coordinator thread: lane
        // round-robin, mutate from the lane elite once one exists.
        let mut batch: Vec<(usize, HuntPoint)> = Vec::with_capacity(want);
        let mut attempts = 0;
        while batch.len() < want && attempts < want * 10 {
            attempts += 1;
            let li = (batch.len() + attempts) % lanes.len();
            let lane = &lanes[li];
            let cand = match &lane.elite {
                Some((elite, _)) => mutate(elite, lane.kind, horizon, &mut rng),
                None => {
                    let p = seed_point(horizon, &mut rng);
                    mutate(&p, lane.kind, horizon, &mut rng)
                }
            };
            if seen.insert(cand.key()) {
                batch.push((li, cand));
            }
        }
        if batch.is_empty() {
            break;
        }

        let eval_cfg = cfg.eval;
        let oracle_cfg = cfg.oracles;
        let jobs: Vec<_> = batch
            .iter()
            .map(|(_, p)| {
                let p = p.clone();
                move || evaluate(&eval_cfg, &oracle_cfg, &p)
            })
            .collect();
        let results: Vec<Result<Evaluation, String>> = sweep::run(cfg.threads, jobs);

        for ((li, point), result) in batch.into_iter().zip(results) {
            evals += 1;
            let Ok(ev) = result else { continue };
            let lane = &mut lanes[li];
            let score = ev.report.score(lane.kind);
            if lane.elite.as_ref().is_none_or(|(_, s)| score > *s) {
                lane.elite = Some((point.clone(), score));
            }
            if ev.report.fired(lane.kind)
                && lane.fired.as_ref().is_none_or(|(_, _, s, _)| score > *s)
            {
                lane.fired = Some((point, ev.report, score, evals));
            }
        }
        generations += 1;
    }

    let mut findings = Vec::new();
    for lane in lanes {
        let Some((point, report, found_score, found_at_eval)) = lane.fired else {
            continue;
        };
        let (point, report, stats) = if cfg.minimize {
            let (small, stats) =
                minimize(&point, lane.kind, &cfg.eval, &cfg.oracles, MINIMIZE_TRIALS);
            let rejudged = evaluate(&cfg.eval, &cfg.oracles, &small)
                .expect("minimized point evaluates")
                .report;
            (small, rejudged, Some(stats))
        } else {
            (point, report, None)
        };
        findings.push(Finding {
            kind: lane.kind,
            point,
            report,
            found_score,
            found_at_eval,
            minimize: stats,
        });
    }
    HuntResult {
        findings,
        evals,
        generations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SearchConfig {
        SearchConfig {
            budget: 6,
            seed: 1,
            threads: 2,
            eval: EvalConfig {
                intervals: 4,
                lambda_mi: paraleon_netsim::MILLI,
                event_budget: 5_000_000,
                tail: 2,
            },
            minimize: false,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn hunt_is_deterministic_across_thread_counts() {
        let serial = hunt(&SearchConfig {
            threads: 1,
            ..tiny_cfg()
        });
        let parallel = hunt(&SearchConfig {
            threads: 4,
            ..tiny_cfg()
        });
        assert_eq!(serial.evals, parallel.evals);
        assert_eq!(serial.findings.len(), parallel.findings.len());
        for (a, b) in serial.findings.iter().zip(&parallel.findings) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.point.key(), b.point.key());
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap()
            );
        }
    }

    #[test]
    fn mutation_stays_inside_a_short_run() {
        let horizon = horizon(&tiny_cfg().eval);
        assert_eq!(horizon, 4 * paraleon_netsim::MILLI);
        let mut rng = StdRng::seed_from_u64(5);
        let mut p = seed_point(horizon, &mut rng);
        for i in 0..300 {
            p = mutate(&p, ALL_ORACLES[i % ALL_ORACLES.len()], horizon, &mut rng);
            for f in &p.workload {
                assert!(f.start < horizon, "flow start {} past the run", f.start);
            }
            for ev in p.faults.events() {
                assert!(ev.at < horizon, "fault at {} past the run", ev.at);
            }
        }
    }

    #[test]
    fn hunt_respects_its_budget() {
        let r = hunt(&tiny_cfg());
        assert!(r.evals <= 6);
        assert!(r.generations >= 1);
    }
}
