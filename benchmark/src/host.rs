//! Where a row was measured: host provenance and build-profile parity.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::workloads::threads_available;

/// The benchmark package's directory (holds `Cargo.toml`, `out/`).
pub fn bench_dir() -> PathBuf {
    // `cargo run` exports the manifest directory; a binary started by
    // hand falls back to where it was built.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The repository root the benchmark measures.
pub fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

fn first_line_of(cmd: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Git revision, compiler, core count and CPU model. A checkout that is
/// not a git repository reports `unknown` for the revision.
pub fn provenance() -> Value {
    let unknown = || "unknown".to_string();
    let root = repo_root();
    Value::Object(vec![
        (
            "git_rev".into(),
            Value::String(
                first_line_of("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(unknown),
            ),
        ),
        (
            "rustc".into(),
            Value::String(first_line_of("rustc", &["-V"], &root).unwrap_or_else(unknown)),
        ),
        ("nproc".into(), Value::UInt(threads_available() as u64)),
        ("cpu_model".into(), Value::String(cpu_model())),
    ])
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// whitespace-normalised and sorted.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// Refuse to measure when the benchmark was built with other settings
/// than the program's own binaries: thin LTO and one codegen unit are
/// worth ~25% of event throughput here, so a mismatch would compare
/// builds, not code.
pub fn check_profile_parity() -> Result<(), String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let root = release_profile(&read(repo_root().join("Cargo.toml"))?);
    let own = release_profile(&read(bench_dir().join("Cargo.toml"))?);
    if root.is_empty() {
        return Err("root Cargo.toml has no [profile.release] table".into());
    }
    if root != own {
        return Err(format!(
            "[profile.release] differs: root {root:?}, benchmark {own:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_extracted_and_normalised() {
        let m = "[package]\nname = \"x\"\n\n# why\n[profile.release]\ndebug = true\nlto   =  \"thin\"\n# c\ncodegen-units = 1\n\n[features]\na = []\n";
        assert_eq!(
            release_profile(m),
            vec!["codegen-units=1", "debug=true", "lto=\"thin\""]
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn this_package_matches_the_root_profile() {
        check_profile_parity().expect("profiles match");
    }
}
