//! The regression corpus: every confirmed, minimized pathology is
//! serialized as one JSON file and committed. `hunt corpus replay`
//! (and the `corpus_replays` integration test) re-runs each case and
//! demands two things:
//!
//! 1. the recorded oracle still *fires* — the pathology reproduces;
//! 2. the fresh [`OracleReport`](crate::oracle::OracleReport)
//!    re-serializes **byte-identically** to the committed one — the
//!    simulator's behavior on this scenario has not drifted at all, down
//!    to every goodput digit.
//!
//! The second check is deliberately brutal: it turns each found anomaly
//! into a change-detector for the whole stack (simulator, DCQCN state
//! machines, fault injection, metrics), the same way the committed
//! `results/*.json` gate the paper experiments.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use crate::eval::{evaluate, EvalConfig};
use crate::genome::HuntPoint;
use crate::minimize::MinimizeStats;
use crate::oracle::{OracleConfig, OracleKind};
use crate::search::Finding;

/// One committed repro: the genome, the configs it was judged under,
/// and the expected oracle report.
#[derive(Debug, Clone, Serialize)]
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

    /// Reconstruct from the [`Serialize`] representation.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("HuntCase: missing `{name}`"))
        };
        let kind_name = field("kind")?
            .as_str()
            .ok_or("HuntCase: `kind` is not a string")?;
        Ok(Self {
            name: field("name")?
                .as_str()
                .ok_or("HuntCase: `name` is not a string")?
                .to_string(),
            kind: OracleKind::from_name(kind_name)
                .ok_or_else(|| format!("HuntCase: unknown oracle `{kind_name}`"))?,
            eval: EvalConfig::from_value(field("eval")?)?,
            oracles: OracleConfig::from_value(field("oracles")?)?,
            minimize: match v.get("minimize") {
                None | Some(Value::Null) => None,
                Some(m) => Some(MinimizeStats::from_value(m)?),
            },
            point: HuntPoint::from_value(field("point")?)?,
            report: field("report")?.clone(),
        })
    }

    /// Parse a case file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v =
            serde_json::from_str_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_value(&v)
    }

    /// Write the case as pretty JSON (plus trailing newline, so the
    /// files are diff-friendly) into `dir`, named `<name>.json`.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.json", self.name));
        let json = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        let mut f = fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{json}").map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// The verdict of replaying one case.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The case's oracle fired again.
    pub fired: bool,
    /// The fresh report re-serialized byte-identically to the committed
    /// one.
    pub identical: bool,
    /// Fresh report, compact JSON.
    pub got: String,
    /// Committed report, compact JSON.
    pub want: String,
}

impl Replay {
    /// A replay passes when the pathology reproduces *and* nothing about
    /// its measured signature moved.
    pub fn passed(&self) -> bool {
        self.fired && self.identical
    }
}

/// Re-run a case and compare against its committed report.
pub fn replay(case: &HuntCase) -> Result<Replay, String> {
    let ev = evaluate(&case.eval, &case.oracles, &case.point)?;
    let got = serde_json::to_string(&ev.report).map_err(|e| e.to_string())?;
    let want = serde_json::to_string(&case.report).map_err(|e| e.to_string())?;
    Ok(Replay {
        fired: ev.report.fired(case.kind),
        identical: got == want,
        got,
        want,
    })
}

/// The committed corpus directory: `$HUNT_CORPUS_DIR` when set (the CI
/// smoke job points scratch hunts elsewhere), otherwise `corpus/` at the
/// repository root.
pub fn corpus_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HUNT_CORPUS_DIR") {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
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
        let path = c.write(&dir).expect("writes");
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

    #[test]
    fn replay_detects_both_failure_modes() {
        let mut c = case();
        let ev = evaluate(&c.eval, &c.oracles, &c.point).expect("evaluates");
        c.report = ev.report.serialize_value();
        let ok = replay(&c).expect("replays");
        assert!(ok.identical, "self-replay must be byte-identical");

        // Tamper with the committed report: replay must flag the drift.
        c.report = Value::Object(vec![("outcomes".into(), Value::Array(vec![]))]);
        let bad = replay(&c).expect("replays");
        assert!(!bad.identical);
        assert!(!bad.passed());
    }

    #[test]
    fn missing_corpus_dir_is_empty() {
        let cases = load_dir(Path::new("/nonexistent/paraleon")).expect("empty");
        assert!(cases.is_empty());
    }
}
