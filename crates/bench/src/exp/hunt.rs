//! The anomaly hunt and its regression corpus (README "Anomaly hunting").
//!
//! `hunt` runs the committed search: [`SearchConfig::default`] (budget 64,
//! seed 42, minimised) over the always-judged oracles, then one lane for
//! the opt-in [`OracleKind::CtrlDivergence`]. It pins one row per finding
//! and gates that the first lane finds at least two pathology classes and
//! the second fires. Outside `--check` each finding is also written as a
//! case file under `results/hunt/` (git-ignored); promoting a case to the
//! regression corpus is copying its file into `corpus/`.
//!
//! `corpus` replays every committed `corpus/*.json` case on the sweep.
//! Each must fire its oracle again. Under `--check` each case file, fresh
//! oracle report included, must re-serialise to its committed bytes, so
//! any drift in the simulator, DCQCN, fault or control-plane stack fails
//! here. Without `--check` every case that still fires is repinned with
//! its fresh report; one that does not fire fails the row and its file is
//! left as it is.

use paraleon_hunt::corpus::{self, HuntCase};
use paraleon_hunt::{evaluate, Finding, MinimizeStats, OracleKind, SearchConfig};
use serde::Serialize;

use crate::Ctx;

#[derive(Serialize)]
struct Found {
    kind: &'static str,
    found_at_eval: u64,
    found_score: f64,
    minimize: Option<MinimizeStats>,
    flows: usize,
    fault_events: usize,
    hosts: usize,
}

impl From<&Finding> for Found {
    fn from(f: &Finding) -> Self {
        Self {
            kind: f.kind.name(),
            found_at_eval: f.found_at_eval,
            found_score: f.found_score,
            minimize: f.minimize,
            flows: f.point.workload.len(),
            fault_events: f.point.faults.len(),
            hosts: f.point.topo.n_hosts(),
        }
    }
}

pub(crate) fn hunt(ctx: &Ctx) {
    let cfg = SearchConfig {
        threads: ctx.threads(),
        ..SearchConfig::default()
    };
    let ctrl_lane = SearchConfig {
        targets: vec![OracleKind::CtrlDivergence],
        ..cfg.clone()
    };
    let [fabric, ctrl] = [&cfg, &ctrl_lane].map(|lane| paraleon_hunt::hunt(lane).findings);
    let classes = fabric.len();
    ctx.gate(
        classes >= 2,
        format!("{classes} pathology classes, want >= 2"),
    );
    ctx.gate(!ctrl.is_empty(), "the ctrl_divergence lane found nothing");
    let findings = [fabric, ctrl].concat();
    if !ctx.check {
        for f in &findings {
            let name = format!("{}_seed{}", f.kind.name(), cfg.seed);
            let path = ctx.results_dir().join("hunt").join(format!("{name}.json"));
            let case = HuntCase::from_finding(name, &cfg.eval, &cfg.oracles, f);
            ctx.pin(&path, &case, true);
        }
    }
    ctx.write(&findings.iter().map(Found::from).collect::<Vec<_>>());
}

#[derive(Serialize)]
struct Replayed {
    name: String,
    kind: &'static str,
    fired: bool,
    score: f64,
}

pub(crate) fn corpus(ctx: &Ctx) {
    let dir = ctx.results_dir().with_file_name("corpus");
    let cases = match corpus::load_dir(&dir) {
        Ok(cases) if !cases.is_empty() => cases,
        Ok(_) => return ctx.gate(false, format!("{}: no cases", dir.display())),
        Err(e) => return ctx.gate(false, e),
    };
    let replayed = ctx.sweep(cases, |case| {
        let report = evaluate(&case.eval, &case.oracles, &case.point).map(|ev| ev.report);
        (case, report)
    });
    let mut rows = Vec::new();
    for (case, report) in replayed {
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                ctx.gate(false, format!("{}: {e}", case.name));
                continue;
            }
        };
        let row = Replayed {
            name: case.name.clone(),
            kind: case.kind.name(),
            fired: report.fired(case.kind),
            score: report.score(case.kind),
        };
        let (name, kind) = (&row.name, row.kind);
        ctx.gate(
            row.fired,
            format!("{name}: the {kind} oracle does not fire"),
        );
        if row.fired {
            let path = dir.join(format!("{name}.json"));
            let report = report.serialize_value();
            ctx.pin(&path, &HuntCase { report, ..case }, !ctx.check);
        }
        rows.push(row);
    }
    ctx.write(&rows);
}
