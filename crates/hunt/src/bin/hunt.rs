//! `hunt` — adversarial anomaly hunter CLI.
//!
//! Modes:
//!
//! * `hunt [--budget N] [--seed S] [--oracle k1,k2] [--threads N]`
//!   run a hunt; `--write` commits each finding into the corpus.
//! * `hunt --replay case.json` — re-run one committed case and verify
//!   its oracle still fires with a byte-identical report.
//! * `hunt corpus replay` — regression mode: replay every committed
//!   case; non-zero exit on any drift.
//! * `hunt corpus repin` — after a *deliberate* simulator semantics
//!   change: re-evaluate every case, verify its oracle still fires, and
//!   rewrite the pinned report in place. Refuses to repin a case whose
//!   pathology no longer reproduces.
//!
//! `--expect N` makes the hunt itself a gate: exit non-zero unless at
//! least N distinct pathology classes were found (the CI smoke job uses
//! this to prove the search still finds what it once found).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use paraleon_hunt::corpus::{self, HuntCase};
use paraleon_hunt::oracle::{OracleKind, ALL_ORACLES};
use paraleon_hunt::search::{hunt, SearchConfig};
use serde::Serialize as _;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hunt [--budget N] [--seed S] [--oracle k1,k2] [--threads N]\n\
         \x20           [--no-minimize] [--minimize-trials N] [--write] [--corpus DIR] [--expect N]\n\
         \x20      hunt --replay CASE.json...\n\
         \x20      hunt corpus replay [--corpus DIR]\n\
         \x20      hunt corpus repin [--corpus DIR]\n\
         oracles: {} (opt-in: {})",
        ALL_ORACLES
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", "),
        OracleKind::CtrlDivergence.name(),
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut corpus_dir = corpus::corpus_dir();
    if let Some(i) = args.iter().position(|a| a == "--corpus") {
        match args.get(i + 1) {
            Some(d) => corpus_dir = PathBuf::from(d),
            None => return usage(),
        }
    }

    // Replay modes.
    if args.first().map(String::as_str) == Some("corpus") {
        return match args.get(1).map(String::as_str) {
            Some("replay") => replay_corpus(&corpus_dir),
            Some("repin") => repin_corpus(&corpus_dir),
            _ => usage(),
        };
    }
    if let Some(i) = args.iter().position(|a| a == "--replay") {
        let files: Vec<&String> = args[i + 1..]
            .iter()
            .take_while(|a| !a.starts_with("--"))
            .collect();
        if files.is_empty() {
            return usage();
        }
        let mut ok = true;
        for f in files {
            ok &= replay_one(&PathBuf::from(f));
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Hunt mode.
    let mut cfg = SearchConfig {
        threads: paraleon::sweep::effective_threads(usize::MAX),
        ..SearchConfig::default()
    };
    let mut write = false;
    let mut expect = 0usize;
    let flag_u64 = |args: &[String], name: &str| -> Option<Option<u64>> {
        let i = args.iter().position(|a| a == name)?;
        Some(args.get(i + 1).and_then(|v| v.parse().ok()))
    };
    for (name, slot) in [
        ("--budget", &mut cfg.budget),
        ("--seed", &mut cfg.seed),
        ("--minimize-trials", &mut cfg.minimize_trials),
    ] {
        match flag_u64(&args, name) {
            Some(Some(v)) => *slot = v,
            Some(None) => return usage(),
            None => {}
        }
    }
    for (name, slot) in [("--expect", &mut expect), ("--threads", &mut cfg.threads)] {
        match flag_u64(&args, name) {
            Some(Some(v)) => *slot = v as usize,
            Some(None) => return usage(),
            None => {}
        }
    }
    if args.iter().any(|a| a == "--no-minimize") {
        cfg.minimize = false;
    }
    if args.iter().any(|a| a == "--write") {
        write = true;
    }
    if let Some(i) = args.iter().position(|a| a == "--oracle") {
        let Some(list) = args.get(i + 1) else {
            return usage();
        };
        let mut targets = Vec::new();
        for name in list.split(',') {
            match OracleKind::from_name(name.trim()) {
                Some(k) => targets.push(k),
                None => {
                    eprintln!("unknown oracle `{name}`");
                    return usage();
                }
            }
        }
        cfg.targets = targets;
    }

    eprintln!(
        "hunting: budget={} seed={} threads={} oracles=[{}]",
        cfg.budget,
        cfg.seed,
        cfg.threads,
        cfg.targets
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(",")
    );
    let result = hunt(&cfg);
    for f in &result.findings {
        eprintln!(
            "FOUND {}: score {:.3} at eval {}{}, repro: {} flow spec(s), {} fault event(s), {} hosts",
            f.kind.name(),
            f.found_score,
            f.found_at_eval,
            f.minimize
                .map(|m| format!(", minimized in {} trials ({} accepted)", m.trials, m.accepted))
                .unwrap_or_default(),
            f.point.workload.len(),
            f.point.faults.len(),
            f.point.topo.n_hosts(),
        );
        if write {
            let name = format!("{}_seed{}", f.kind.name(), cfg.seed);
            let case = HuntCase::from_finding(name, &cfg.eval, &cfg.oracles, f);
            match case.write(&corpus_dir) {
                Ok(path) => eprintln!("  wrote {}", path.display()),
                Err(e) => {
                    eprintln!("  write failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    println!(
        "{}",
        serde_json::to_string(&result.summary()).expect("summary serializes")
    );
    if result.findings.len() < expect {
        eprintln!(
            "expected >= {expect} pathology classes, found {}",
            result.findings.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn replay_one(path: &Path) -> bool {
    let case = match HuntCase::load(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL {}: {e}", path.display());
            return false;
        }
    };
    match corpus::replay(&case) {
        Ok(r) if r.passed() => {
            eprintln!("ok {} ({})", case.name, case.kind.name());
            true
        }
        Ok(r) => {
            eprintln!(
                "FAIL {}: fired={} identical={}",
                case.name, r.fired, r.identical
            );
            if !r.identical {
                eprintln!("  want: {}", r.want);
                eprintln!("  got:  {}", r.got);
            }
            false
        }
        Err(e) => {
            eprintln!("FAIL {}: {e}", case.name);
            false
        }
    }
}

fn repin_corpus(dir: &Path) -> ExitCode {
    let cases = match corpus::load_dir(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cases.is_empty() {
        eprintln!("corpus at {} is empty", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for case in cases {
        let ev = match paraleon_hunt::eval::evaluate(&case.eval, &case.oracles, &case.point) {
            Ok(ev) => ev,
            Err(e) => {
                failed += 1;
                eprintln!("FAIL {}: {e}", case.name);
                continue;
            }
        };
        if !ev.report.fired(case.kind) {
            failed += 1;
            eprintln!(
                "FAIL {}: the {} oracle no longer fires; not repinning",
                case.name,
                case.kind.name()
            );
            continue;
        }
        let mut repinned = case;
        repinned.report = ev.report.serialize_value();
        match repinned.write(dir) {
            Ok(path) => eprintln!("repinned {}", path.display()),
            Err(e) => {
                failed += 1;
                eprintln!("FAIL {}: {e}", repinned.name);
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn replay_corpus(dir: &Path) -> ExitCode {
    let cases = match corpus::load_dir(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cases.is_empty() {
        eprintln!("corpus at {} is empty", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for case in &cases {
        match corpus::replay(case) {
            Ok(r) if r.passed() => eprintln!("ok {} ({})", case.name, case.kind.name()),
            Ok(r) => {
                failed += 1;
                eprintln!(
                    "FAIL {}: fired={} identical={}",
                    case.name, r.fired, r.identical
                );
                if !r.identical {
                    eprintln!("  want: {}", r.want);
                    eprintln!("  got:  {}", r.got);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("FAIL {}: {e}", case.name);
            }
        }
    }
    eprintln!(
        "corpus replay: {}/{} passed",
        cases.len() - failed,
        cases.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
