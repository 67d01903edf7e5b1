//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! paraleon-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! paraleon-benchmark compare A.json B.json
//! paraleon-benchmark spec            # print BENCHMARK.json from the tables in spec.rs
//! ```

mod calib;
mod compare;
mod fingerprint;
mod host;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use workloads::Workload;

const USAGE: &str = "usage:
  run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
      measure W (default: all five, then perf_probe's pinned probe); the last
      line of standard output is the result object of the last workload
  compare A.json B.json
      judge two `run --out` files against the benchmark's bounds
  spec
      print BENCHMARK.json as the tables in src/spec.rs define it";

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{k}`"))?;
            let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
            out.push((key.to_string(), v.clone()));
        }
        Ok(Self(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace takes 0 or 1, not `{v}`")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("workload")
            .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .transpose()
    }
}

fn cmd_run(flags: &Flags) -> Result<u8, String> {
    let one = flags.workload()?;
    let seconds: f64 = flags.parsed("seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(run::run(&run::RunOptions {
        workloads: one.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]),
        seed: flags.parsed("seed", spec::DEFAULT_SEED)?,
        seconds,
        traced: flags.trace()?,
        out: flags.get("out").map(PathBuf::from),
        pin: one.is_none(),
    }))
}

/// One repetition, in this process; prints its output as one line.
fn cmd_rep(flags: &Flags) -> Result<u8, String> {
    let w = flags.workload()?.ok_or("rep needs --workload")?;
    let trace_out = flags.get("trace-out").map(PathBuf::from);
    let out = workloads::run_repetition(
        w,
        flags.parsed("seed", spec::DEFAULT_SEED)?,
        flags.trace()?,
        trace_out.as_deref(),
    );
    println!(
        "{}",
        serde_json::to_string(&out.to_json()).map_err(|e| e.to_string())?
    );
    Ok(0)
}

fn spec_json() -> Value {
    let s = |v: &str| Value::String(v.to_string());
    let named = |name: &str, rest: Vec<(&str, Value)>| {
        let mut e = vec![("name".to_string(), s(name))];
        e.extend(rest.into_iter().map(|(k, v)| (k.to_string(), v)));
        Value::Object(e)
    };
    Value::Object(vec![
        (
            "command".into(),
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .iter()
                .map(|a| s(a))
                .collect(),
            ),
        ),
        ("paths".into(), Value::Array(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(spec::RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                spec::WORKLOADS
                    .iter()
                    .map(|w| named(w.name, vec![("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                spec::END_TO_END
                    .iter()
                    .map(|m| {
                        named(
                            m.name,
                            vec![
                                ("unit", s(m.unit)),
                                ("better", s(m.better.as_str())),
                                ("bound", Value::Float(m.bound)),
                            ],
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                spec::PER_LAYER
                    .iter()
                    .map(|m| {
                        named(
                            m.name,
                            vec![("unit", s(m.unit)), ("better", s(m.better.as_str()))],
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dispatch(args: &[String]) -> Result<u8, String> {
    let (cmd, rest) = args.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "run" => cmd_run(&Flags::parse(rest)?),
        "rep" => cmd_rep(&Flags::parse(rest)?),
        "compare" => match rest {
            [a, b] => Ok(compare::compare(a.as_ref(), b.as_ref())),
            _ => Err(USAGE.into()),
        },
        "spec" => {
            println!(
                "{}",
                serde_json::to_string_pretty(&spec_json()).map_err(|e| e.to_string())?
            );
            Ok(0)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
