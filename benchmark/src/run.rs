//! The runner: repetitions in child processes until `--seconds` of
//! measured time, medians over repetitions, correctness checks against
//! the library's own drivers, and the result line the pipeline reads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde_json::Value;

use crate::host;
use crate::layers::{self, LayerNumbers};
use crate::spec;
use crate::stats::{max, median, min, tail};
use crate::workloads::{clos, ctrl, fleet, threads_available, RepOutput, Workload};

pub struct RunOptions {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out: Option<PathBuf>,
    /// Also re-run `perf_probe`'s pinned probe (a full run's last check).
    pub pin: bool,
}

/// One reported metric: the median over repetitions, with its range.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// Samples behind the value (repetitions, or pooled timing samples).
    pub n: usize,
}

pub struct WorkloadResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub repetitions: usize,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub fingerprint: String,
    pub threads_effective: usize,
    pub end_to_end: Vec<Metric>,
    /// `spec::SAME_SEED`: comparable between runs of one seed only.
    pub same_seed: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Run one repetition in a child process (fresh allocator, its own
/// `VmHWM`) and parse the line it prints.
fn spawn_rep(
    w: Workload,
    seed: u64,
    traced: bool,
    trace_out: Option<&PathBuf>,
) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(p) = trace_out {
        cmd.arg("--trace-out").arg(p);
    }
    // `output()` waits for the child and reaps it.
    let out = cmd.output().map_err(|e| format!("spawn repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("repetition output: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("repetition printed nothing")?;
    let v = serde_json::from_str_value(line).map_err(|e| format!("repetition output: {e}"))?;
    RepOutput::from_json(&v)
}

/// What the library's own driver produces for this workload's input:
/// `(reference fingerprint, wall seconds of that run)`.
fn reference(w: Workload, seed: u64) -> (String, f64) {
    match w {
        Workload::Hadoop => clos::hadoop_reference(seed, false),
        Workload::HadoopPar2 => clos::hadoop_reference(seed, true),
        Workload::AllToAll => clos::alltoall_reference(seed),
        Workload::Fleet => fleet::reference(seed),
        Workload::CtrlReplay => ctrl::reference(seed),
    }
}

struct Reps {
    /// `(traced, output)` in run order.
    all: Vec<(bool, RepOutput)>,
}

impl Reps {
    fn of(&self, traced: bool) -> impl Iterator<Item = &RepOutput> {
        self.all
            .iter()
            .filter(move |(t, _)| *t == traced)
            .map(|(_, r)| r)
    }

    /// `nums[name]` of each traced repetition.
    fn traced_nums(&self, name: &str) -> Vec<f64> {
        self.of(true).map(|r| r.get(name)).collect()
    }

    /// `samples[name]` of the traced repetitions, pooled.
    fn traced_samples(&self, name: &str) -> Vec<f64> {
        self.of(true)
            .flat_map(|r| r.samples.get(name).cloned().unwrap_or_default())
            .collect()
    }

    fn first(&self) -> &RepOutput {
        &self.all[0].1
    }
}

/// One repetition's measured phase — its jobs back to back — in
/// seconds. `sample` is `job_ref_ms` (reference milliseconds, see
/// [`crate::calib`]) or `job_ms` (as measured).
fn rep_wall_s(r: &RepOutput, sample: &str) -> f64 {
    r.samples
        .get(sample)
        .map_or(0.0, |j| j.iter().sum::<f64>() / 1e3)
}

/// The median over `reps` of the measured phase, reference seconds.
///
/// Why the median only *after* calibration: as measured, 40 identical
/// repetitions spread 13% (quartile distance ÷ median) and the median of
/// six of them still 5%, because the host's slow swings outlast a run;
/// in reference time the repetitions spread 6% and the median of six 3%.
/// (Taking each job at its fastest repetition instead — the right
/// estimator for raw times, where noise only adds — is worse here: the
/// slices' own measurement noise is two-sided, and a minimum picks it.)
fn typical_wall_s(reps: &[&RepOutput]) -> f64 {
    median(
        &reps
            .iter()
            .map(|r| rep_wall_s(r, "job_ref_ms"))
            .collect::<Vec<f64>>(),
    )
    .unwrap_or(0.0)
}

/// The median job latency, reference ms. Every repetition runs the same
/// jobs in the same order, so job `i` is first taken at its median over
/// the repetitions; the metric is the median of those. (A plain median
/// over one repetition's jobs sits between two jobs of a ramp and jumps
/// by their distance when either moves by a percent.)
fn typical_job_ms(reps: &[&RepOutput]) -> f64 {
    let jobs: Vec<&Vec<f64>> = reps
        .iter()
        .filter_map(|r| r.samples.get("job_ref_ms"))
        .collect();
    let n = jobs.iter().map(|j| j.len()).min().unwrap_or(0);
    let per_job: Vec<f64> = (0..n)
        .filter_map(|i| median(&jobs.iter().map(|j| j[i]).collect::<Vec<f64>>()))
        .collect();
    median(&per_job).unwrap_or(0.0)
}

/// The value of bounded metric `name` over `reps` (untraced, one seed).
/// Host times are in reference seconds.
fn estimate(name: &str, reps: &[&RepOutput]) -> f64 {
    let first = |num: &str| reps.first().map_or(0.0, |r| r.get(num));
    let over_reps =
        |num: &str| median(&reps.iter().map(|r| r.get(num)).collect::<Vec<f64>>()).unwrap_or(0.0);
    match name {
        "setup_s" => {
            let pooled: Vec<f64> = reps
                .iter()
                .flat_map(|r| r.samples.get("setup_ref_s").cloned().unwrap_or_default())
                .collect();
            median(&pooled).unwrap_or(0.0)
        }
        "wall_s" => typical_wall_s(reps),
        "work_per_s" => ratio(first("work_units"), typical_wall_s(reps)),
        "jobs_per_s" => ratio(first("jobs_per_rep"), typical_wall_s(reps)),
        "job_ms_p50" => typical_job_ms(reps),
        "peak_rss_mb" => over_reps(name),
        // Simulated statistics: every repetition agrees (checked).
        simulated => first(simulated),
    }
}

/// The bounded metrics (`table` is `spec::END_TO_END` or
/// `spec::SAME_SEED`) from the untraced repetitions — all of them on an
/// untraced run. `min`/`max` are the jackknife range: the values the
/// metric would have read had any one repetition been missing.
fn bounded_metrics(table: &'static [spec::EndToEnd], reps: &Reps) -> Vec<Metric> {
    let clean: Vec<&RepOutput> = reps.of(false).collect();
    table
        .iter()
        .map(|m| {
            let value = estimate(m.name, &clean);
            let mut around = vec![value];
            if clean.len() > 1 {
                around.extend((0..clean.len()).map(|skip| {
                    let rest: Vec<&RepOutput> = clean
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != skip)
                        .map(|(_, r)| *r)
                        .collect();
                    estimate(m.name, &rest)
                }));
            }
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                min: min(&around).unwrap_or(value),
                max: max(&around).unwrap_or(value),
                n: clean.len(),
            }
        })
        .collect()
}

/// Traced wall over untraced wall, minus one (medians, reference time).
fn trace_overhead_frac(reps: &Reps) -> f64 {
    let typical = |traced: bool| typical_wall_s(&reps.of(traced).collect::<Vec<_>>());
    let clean = typical(false);
    if clean > 0.0 {
        typical(true) / clean - 1.0
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics: spans and exact counts of the traced repetitions,
/// the isolated drivers' ns/op, and the reference run's wall time.
/// A metric whose layer does no work on this workload reads 0.
fn per_layer(
    w: Workload,
    reps: &Reps,
    same_seed: &[Metric],
    drivers: &LayerNumbers,
    reference_wall_s: f64,
) -> Vec<Metric> {
    let med = |name: &str| median(&reps.traced_nums(name)).unwrap_or(0.0);
    let exact = |name: &str| reps.first().get(name);
    let span_total = |span: &str| med(&format!("span.{span}.total_s"));
    let span_us = |span: &str| reps.traced_samples(&format!("span.{span}.us"));
    // Shares are taken within one repetition, then the median over the
    // traced repetitions: numerator and denominator saw the same noise.
    let share_of_wall = |num: &str| {
        let shares: Vec<f64> = reps
            .of(true)
            .map(|r| ratio(r.get(num), r.get("wall_s")))
            .collect();
        median(&shares).unwrap_or(0.0)
    };
    // As measured, not in reference seconds: what this host did.
    let raw_walls: Vec<f64> = reps.of(false).map(|r| rep_wall_s(r, "job_ms")).collect();
    let raw_wall_s = median(&raw_walls).unwrap_or(0.0);
    let run_until_s = span_total("netsim.run_until");
    let pkts = exact("netsim.data_pkts_est");
    let drv = |name: &str| drivers.get(name).copied().unwrap_or(0.0);
    let is_fleet = w == Workload::Fleet;
    let fleet_only = |v: f64| if is_fleet { v } else { 0.0 };

    let mut m: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| {
        m.insert(name, (v, 1));
    };
    put("netsim.run_until_s", run_until_s);
    put(
        "netsim.run_until_share",
        share_of_wall("span.netsim.run_until.total_s"),
    );
    put("netsim.events", exact("netsim.events"));
    put(
        "netsim.events_per_s",
        ratio(exact("netsim.events"), raw_wall_s),
    );
    let slices: Vec<f64> = reps
        .all
        .iter()
        .flat_map(|(_, r)| r.samples.get("calib_ms").cloned().unwrap_or_default())
        .collect();
    put(
        "bench.host_speed",
        ratio(crate::calib::NOMINAL_MS, median(&slices).unwrap_or(0.0)),
    );
    put(
        "netsim.ns_per_event",
        ratio(run_until_s * 1e9, exact("netsim.events")),
    );
    put(
        "netsim.add_flow_ns",
        ratio(span_total("netsim.add_flow") * 1e9, exact("admitted_flows")),
    );
    for name in [
        "netsim.cnps",
        "netsim.ecn_marks",
        "netsim.pfc_events",
        "netsim.drops",
        "netsim.data_pkts_est",
        "netsim.completions",
        "netsim.fct_slowdown_tail",
        "netsim.fct_slowdown_tail_pct",
        "netsim.par_shards",
        "tuner.deploys",
        "core.triggers",
        "core.guard_rejects",
        "core.rollbacks",
    ] {
        put(name, exact(name));
    }
    // Serial library run of the same input over the sharded median.
    put(
        "netsim.par2_speedup",
        if w == Workload::HadoopPar2 {
            ratio(reference_wall_s, raw_wall_s)
        } else {
            0.0
        },
    );
    let dcqcn_ns = (drv("dcqcn.rp_on_send_ns")
        + drv("dcqcn.np_on_packet_ns")
        + drv("dcqcn.cp_should_mark_ns"))
        * pkts
        + drv("dcqcn.rp_on_cnp_ns") * exact("netsim.cnps");
    put("dcqcn.est_share", ratio(dcqcn_ns, run_until_s * 1e9));
    put(
        "sketch.est_share",
        ratio(drv("sketch.insert_ns") * pkts, run_until_s * 1e9),
    );
    put("core.step_overhead_share", share_of_wall("span.job.self_s"));
    put("core.monitor_cpu_s", med("core.monitor_cpu_s"));
    put("core.tuner_cpu_s", med("core.tuner_cpu_s"));
    for name in ["fleet.snapshot_ms", "fleet.restore_ms"] {
        put(name, fleet_only(med(name)));
    }
    for name in [
        "fleet.ctrl_mem_bytes_per_tenant",
        "fleet.upload_drops",
        "fleet.starved_turns",
    ] {
        put(name, fleet_only(exact(name)));
    }
    put(
        "fleet.threads_effective",
        fleet_only(exact("threads_effective")),
    );
    put("bench.trace_overhead_frac", trace_overhead_frac(reps));
    let same = |name: &str| {
        same_seed
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    put("bench.wall_s", same("wall_s"));
    put("bench.jobs_per_s", same("jobs_per_s"));
    put("bench.job_ms_p50", same("job_ms_p50"));
    put("bench.peak_rss_mb", same("peak_rss_mb"));
    put("netsim.goodput_gbps", same("sim_goodput_gbps"));
    put("bench.threads_available", threads_available() as f64);
    for (name, v) in drivers {
        put(name, *v);
    }
    // Pooled timing samples: a median, and the tail the count supports.
    let mut pooled_p50 = |name: &'static str, samples: Vec<f64>| {
        m.insert(name, (median(&samples).unwrap_or(0.0), samples.len()));
    };
    pooled_p50(
        "netsim.collect_interval_us_p50",
        span_us("netsim.collect_interval"),
    );
    pooled_p50(
        "netsim.take_completions_us_p50",
        span_us("netsim.take_completions"),
    );
    pooled_p50(
        "core.process_interval_us_p50",
        span_us("core.process_interval"),
    );
    pooled_p50(
        "core.deliver_dispatch_us_p50",
        span_us("core.deliver_dispatches"),
    );
    pooled_p50(
        "fleet.phase_a_ms_p50",
        if is_fleet {
            reps.traced_samples("fleet.phase_a_ms")
        } else {
            vec![]
        },
    );
    pooled_p50(
        "fleet.phase_b_us_p50",
        if is_fleet {
            reps.traced_samples("fleet.phase_b_us")
        } else {
            vec![]
        },
    );
    let mut pooled_tail = |value: &'static str, pct: &'static str, samples: Vec<f64>| {
        let (p, v) = tail(&samples).unwrap_or((0.0, 0.0));
        m.insert(value, (v, samples.len()));
        m.insert(pct, (p, samples.len()));
    };
    pooled_tail(
        "core.process_interval_us_tail",
        "core.process_interval_tail_pct",
        span_us("core.process_interval"),
    );
    pooled_tail(
        "fleet.tick_ms_tail",
        "fleet.tick_tail_pct",
        if is_fleet {
            reps.traced_samples("job_ms")
        } else {
            vec![]
        },
    );

    spec::PER_LAYER
        .iter()
        .map(|p| {
            let (value, n) = *m.get(p.name).unwrap_or_else(|| {
                panic!("per-layer metric {} is declared but never computed", p.name)
            });
            Metric {
                name: p.name,
                unit: p.unit,
                value,
                min: value,
                max: value,
                n,
            }
        })
        .collect()
}

/// Run `w` for `seconds` of measured time and aggregate.
pub fn run_workload(w: Workload, seed: u64, seconds: f64, traced: bool) -> WorkloadResult {
    let trace_path = host::bench_dir()
        .join("out")
        .join(format!("trace_{}.jsonl", w.name()));
    let mut reps = Reps { all: Vec::new() };
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut crashed = 0u64;
    let mut measured = 0.0;
    // A traced run alternates traced and clean repetitions: the traced
    // ones give the per-layer numbers, the clean ones the wall time the
    // tracing overhead is taken against.
    let min_reps = if traced {
        spec::MIN_REPS + 1
    } else {
        spec::MIN_REPS
    };
    for i in 0..spec::MAX_REPS {
        if i >= min_reps && measured >= seconds {
            break;
        }
        let rep_traced = traced && i % 2 == 0;
        let first_trace = (rep_traced && i == 0).then_some(&trace_path);
        match spawn_rep(w, seed, rep_traced, first_trace) {
            Ok(r) => {
                measured += r.get("wall_s");
                reps.all.push((rep_traced, r));
            }
            Err(e) => {
                eprintln!("{}: repetition {i} failed: {e}", w.name());
                crashed += 1;
                if crashed >= 2 {
                    break;
                }
            }
        }
    }
    checks.push((
        "every_repetition_returned".into(),
        crashed == 0 && !reps.all.is_empty(),
    ));
    if reps.all.is_empty() {
        return WorkloadResult {
            workload: w,
            seed,
            traced,
            repetitions: 0,
            attempted: crashed.max(1),
            failed: crashed.max(1),
            checks,
            fingerprint: String::new(),
            threads_effective: 0,
            end_to_end: Vec::new(),
            same_seed: Vec::new(),
            per_layer: Vec::new(),
        };
    }

    // Checks each repetition made on itself.
    let mut names: Vec<&String> = reps
        .all
        .iter()
        .flat_map(|(_, r)| r.checks.iter().map(|(k, _)| k))
        .collect();
    names.sort();
    names.dedup();
    for name in names {
        let ok = reps
            .all
            .iter()
            .all(|(_, r)| r.checks.iter().all(|(k, ok)| k != name || *ok));
        checks.push((name.clone(), ok));
    }
    // Same seed, same inputs: every repetition — traced or not — must
    // have produced the same events, completions, records and parameters.
    let fp = reps.first().fingerprint.clone();
    let stable = reps.all.iter().all(|(_, r)| r.fingerprint == fp);
    checks.push(("sim_fingerprint_stable".into(), stable));
    // The hand-rolled loops against the library's own drivers.
    let t = Instant::now();
    let (want, reference_wall_s) = reference(w, seed);
    eprintln!(
        "{}: reference run took {:.2}s",
        w.name(),
        t.elapsed().as_secs_f64()
    );
    let matches = reps
        .all
        .iter()
        .all(|(_, r)| r.reference_fingerprint == want);
    checks.push(("matches_library_driver".into(), matches));

    let attempted: u64 = reps.all.iter().map(|(_, r)| r.attempted).sum::<u64>() + crashed;
    let mut failed: u64 = reps.all.iter().map(|(_, r)| r.failed).sum::<u64>() + crashed;
    if !stable {
        // No telling which repetition is right: none of them counts.
        failed = attempted;
    }

    let drivers = if traced {
        layers::run_all(seed)
    } else {
        LayerNumbers::new()
    };
    let same_seed = bounded_metrics(spec::SAME_SEED, &reps);
    WorkloadResult {
        workload: w,
        seed,
        traced,
        repetitions: reps.all.len(),
        attempted,
        failed,
        checks,
        fingerprint: fp,
        threads_effective: reps.first().get("threads_effective") as usize,
        end_to_end: bounded_metrics(spec::END_TO_END, &reps),
        per_layer: if traced {
            per_layer(w, &reps, &same_seed, &drivers, reference_wall_s)
        } else {
            Vec::new()
        },
        same_seed,
    }
}

fn metric_json(m: &Metric) -> Value {
    Value::Object(vec![
        ("unit".into(), Value::String(m.unit.into())),
        ("median".into(), Value::Float(m.value)),
        ("min".into(), Value::Float(m.min)),
        ("max".into(), Value::Float(m.max)),
        ("n".into(), Value::UInt(m.n as u64)),
    ])
}

fn metrics_json(ms: &[Metric]) -> Value {
    Value::Object(
        ms.iter()
            .map(|m| (m.name.to_string(), metric_json(m)))
            .collect(),
    )
}

/// One row of an `--out` file.
fn row_json(r: &WorkloadResult) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::String(r.workload.name().into())),
        ("seed".into(), Value::UInt(r.seed)),
        ("traced".into(), Value::Bool(r.traced)),
        ("repetitions".into(), Value::UInt(r.repetitions as u64)),
        (
            "threads_available".into(),
            Value::UInt(threads_available() as u64),
        ),
        (
            "threads_effective".into(),
            Value::UInt(r.threads_effective as u64),
        ),
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), Value::UInt(r.attempted)),
        ("failed".into(), Value::UInt(r.failed)),
        (
            "ops_failed_frac".into(),
            Value::Float(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        ("fingerprint".into(), Value::String(r.fingerprint.clone())),
        (
            "checks".into(),
            Value::Object(
                r.checks
                    .iter()
                    .map(|(k, ok)| (k.clone(), Value::Bool(*ok)))
                    .collect(),
            ),
        ),
        ("end_to_end".into(), metrics_json(&r.end_to_end)),
        ("same_seed".into(), metrics_json(&r.same_seed)),
        ("per_layer".into(), metrics_json(&r.per_layer)),
    ])
}

/// The line the pipeline reads: `correct`, `attempted`, `failed`, and
/// the end-to-end metrics (untraced) or the per-layer metrics (traced).
pub fn result_line(r: &WorkloadResult) -> String {
    let metrics = if r.traced {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    let v = Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct())),
        ("attempted".into(), Value::UInt(r.attempted.max(1))),
        ("failed".into(), Value::UInt(r.failed)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|m| {
                        let entry = vec![
                            ("value".into(), Value::Float(m.value)),
                            ("unit".into(), Value::String(m.unit.into())),
                        ];
                        (m.name.to_string(), Value::Object(entry))
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string(&v).expect("a Value tree always serialises")
}

fn print_human(r: &WorkloadResult) {
    let w = r.workload.name();
    println!(
        "== {w}  seed {}  {} repetitions  threads {}/{}  fingerprint {}",
        r.seed,
        r.repetitions,
        r.threads_effective,
        threads_available(),
        r.fingerprint
    );
    for m in r.end_to_end.iter().chain(&r.same_seed) {
        let bound = spec::end_to_end(m.name).map_or(0.0, |e| e.bound);
        println!(
            "{w} {:<28} {:>16.6} {:<7} min {:.6} max {:.6} n {} bound {:.0}%",
            m.name,
            m.value,
            m.unit,
            m.min,
            m.max,
            m.n,
            bound * 100.0
        );
    }
    for m in &r.per_layer {
        println!(
            "{w} {:<40} {:>16.6} {:<7} n {}",
            m.name, m.value, m.unit, m.n
        );
    }
    println!(
        "{w} ops_failed_frac {:.6} ({} failed of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for (name, ok) in &r.checks {
        println!("{w} check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
}

/// `run`: every selected workload, human-readable lines, the optional
/// `--out` file, and last the pipeline's result line. Returns the
/// process exit code: 0 only when every check passed.
pub fn run(opts: &RunOptions) -> u8 {
    if let Err(e) = host::check_profile_parity() {
        eprintln!("refusing to measure: {e}");
        return 2;
    }
    let mut rows = Vec::new();
    let mut ok = true;
    let mut last_line = String::new();
    for &w in &opts.workloads {
        let r = run_workload(w, opts.seed, opts.seconds, opts.traced);
        print_human(&r);
        ok &= r.correct();
        rows.push(row_json(&r));
        last_line = result_line(&r);
    }
    if opts.pin {
        let (events, done, flows) = clos::perf_probe_pin();
        let pinned = (events, done, flows) == (57_288_867, 6191, 6330);
        println!(
            "check perf_probe_pin: {events} events, {done}/{flows} completions: {}",
            if pinned {
                "ok"
            } else {
                "FAILED (57288867 events, 6191/6330 expected)"
            }
        );
        ok &= pinned;
    }
    if let Some(path) = &opts.out {
        let doc = Value::Object(vec![
            ("schema".into(), Value::UInt(1)),
            ("provenance".into(), host::provenance()),
            ("seconds".into(), Value::Float(opts.seconds)),
            ("rows".into(), Value::Array(rows)),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("a Value tree always serialises");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{last_line}");
    u8::from(!ok)
}
