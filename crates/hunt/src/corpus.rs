//! The regression corpus: every confirmed, minimized pathology is
//! serialized as one JSON file and committed under `corpus/`. The
//! `exp corpus` row of `paraleon-bench` (and the `corpus_replay`
//! integration test) re-runs each case and demands two things:
//!
//! 1. the recorded oracle still *fires* — the pathology reproduces;
//! 2. the fresh [`OracleReport`](crate::OracleReport)
//!    re-serializes **byte-identically** to the committed one — the
//!    simulator's behavior on this scenario has not drifted at all, down
//!    to every goodput digit. `exp corpus --check` holds the whole case
//!    file to its committed bytes; without `--check` it repins every
//!    case that still fires, and `exp hunt` writes new cases to promote.
//!
//! The second check is deliberately brutal: it turns each found anomaly
//! into a change-detector for the whole stack (simulator, DCQCN state
//! machines, fault injection, metrics), the same way the committed
//! `results/*.json` gate the paper experiments.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

use crate::eval::EvalConfig;
use crate::genome::HuntPoint;
use crate::minimize::MinimizeStats;
use crate::oracle::{OracleConfig, OracleKind};
use crate::search::Finding;

/// One committed repro: the genome, the configs it was judged under,
/// and the expected oracle report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HuntCase {
    /// File stem / display name, e.g. `pfc_storm_seed42`.
    pub name: String,
    /// The oracle this case regression-tests.
    pub kind: OracleKind,
    /// Run length and budgets the case was found under.
    pub eval: EvalConfig,
    /// Oracle thresholds the case was found under.
    pub oracles: OracleConfig,
    /// Minimization accounting (absent for hand-written cases).
    pub minimize: Option<MinimizeStats>,
    /// The repro genome.
    pub point: HuntPoint,
    /// Expected oracle report, kept as the raw serialized tree so the
    /// replay comparison is over bytes, not re-interpreted floats.
    pub report: Value,
}

impl HuntCase {
    /// Package a search [`Finding`] for the corpus.
    pub fn from_finding(
        name: impl Into<String>,
        cfg_eval: &EvalConfig,
        cfg_oracles: &OracleConfig,
        f: &Finding,
    ) -> Self {
        Self {
            name: name.into(),
            kind: f.kind,
            eval: *cfg_eval,
            oracles: *cfg_oracles,
            minimize: f.minimize,
            point: f.point.clone(),
            report: f.report.serialize_value(),
        }
    }

    /// Parse a case file and check its run lengths and genome.
    pub fn load(path: &Path) -> Result<Self, String> {
        let err = |e: String| format!("{}: {e}", path.display());
        let text = fs::read_to_string(path).map_err(|e| err(e.to_string()))?;
        let v = serde_json::from_str_value(&text).map_err(|e| err(e.to_string()))?;
        let case = Self::from_value(&v).map_err(err)?;
        case.eval.validate().map_err(err)?;
        case.point.validate().map_err(err)?;
        Ok(case)
    }
}

/// Load every `*.json` case in `dir`, sorted by file name for
/// deterministic iteration. A missing directory is an empty corpus.
pub fn load_dir(dir: &Path) -> Result<Vec<HuntCase>, String> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    paths.sort();
    paths.iter().map(|p| HuntCase::load(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use paraleon_dcqcn::DcqcnParams;
    use paraleon_netsim::{ClosSpec, FaultPlan, TopoSpec, MILLI};

    fn case() -> HuntCase {
        let mut faults = FaultPlan::new(1);
        faults.pfc_storm(0, MILLI, 3 * MILLI);
        HuntCase {
            name: "unit_case".into(),
            kind: OracleKind::PfcStorm,
            eval: EvalConfig {
                intervals: 4,
                lambda_mi: MILLI,
                event_budget: 10_000_000,
                tail: 2,
            },
            oracles: OracleConfig::default(),
            minimize: None,
            point: HuntPoint {
                topo: TopoSpec::TwoTier(ClosSpec {
                    n_tor: 2,
                    hosts_per_tor: 2,
                    n_leaf: 1,
                    host_gbps: 100.0,
                    uplink_gbps: 100.0,
                    delay_ns: 2_000,
                }),
                workload: vec![crate::genome::FlowSpec {
                    src: 2,
                    dst: 0,
                    bytes: 500_000,
                    start: 0,
                    count: 4,
                    gap: MILLI,
                }],
                collective: None,
                faults,
                params: DcqcnParams::nvidia_default(),
                seed: 1,
            },
            report: Value::Null,
        }
    }

    #[test]
    fn case_files_round_trip() {
        let dir = std::env::temp_dir().join("paraleon_hunt_corpus_test");
        let _ = fs::remove_dir_all(&dir);
        let mut c = case();
        // Commit the real report so the round-trip covers it too.
        c.report = evaluate(&c.eval, &c.oracles, &c.point)
            .expect("case evaluates")
            .report
            .serialize_value();
        fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("unit_case.json");
        fs::write(&path, serde_json::to_string_pretty(&c).unwrap()).expect("writes");
        let back = HuntCase::load(&path).expect("loads");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&c).unwrap(),
            "case JSON must round-trip byte-identically"
        );
        let loaded = load_dir(&dir).expect("dir loads");
        assert_eq!(loaded.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A case whose topology or run length is out of range is refused
    /// where it enters, naming the type and the field, before anything
    /// builds the fabric or runs the clock (either would panic).
    #[test]
    fn load_refuses_invalid_cases_naming_type_and_field() {
        let dir = std::env::temp_dir().join("paraleon_hunt_corpus_invalid");
        fs::create_dir_all(&dir).expect("dir");
        let with_clos = |edit: fn(&mut ClosSpec)| {
            let mut c = case();
            if let TopoSpec::TwoTier(s) = &mut c.point.topo {
                edit(s);
            }
            c
        };
        // 20 intervals of 10^18 ns end past the u64 clock.
        let mut overflow = case();
        overflow.eval.intervals = 20;
        overflow.eval.lambda_mi = 1_000_000_000_000_000_000;
        let cases = [
            (
                with_clos(|s| s.n_leaf = 0),
                "ClosSpec: `n_leaf` must be >= 1",
            ),
            (
                with_clos(|s| s.delay_ns = 0),
                "ClosSpec: delay_ns must be >= 1",
            ),
            (
                with_clos(|s| s.host_gbps = 0.0),
                "ClosSpec: `host_gbps` must be positive and finite",
            ),
            (
                with_clos(|s| s.uplink_gbps = -100.0),
                "ClosSpec: `uplink_gbps` must be positive and finite",
            ),
            (
                overflow,
                "EvalConfig: intervals × lambda_mi overflows the u64 clock",
            ),
        ];
        for (i, (c, want)) in cases.into_iter().enumerate() {
            let path = dir.join(format!("bad_{i}.json"));
            fs::write(&path, serde_json::to_string_pretty(&c).unwrap()).expect("writes");
            let err = HuntCase::load(&path).unwrap_err();
            assert!(
                err.starts_with(&format!("{}: {want}", path.display())),
                "{err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_corpus_dir_is_empty() {
        let cases = load_dir(Path::new("/nonexistent/paraleon")).expect("empty");
        assert!(cases.is_empty());
    }
}
