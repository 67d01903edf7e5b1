//! The five workloads. Each is a closed loop with one client: a job
//! starts when the previous one returns. One *repetition* is a fixed
//! amount of work (sizes frozen in [`crate::spec`]); a run is as many
//! repetitions as fit `--seconds`, each in its own process.

pub mod clos;
pub mod ctrl;
pub mod fleet;

use std::collections::BTreeMap;
use std::time::Instant;

use paraleon::prelude::{IntervalRecord, TunerCell};
use serde_json::Value;

use crate::calib::{to_reference, Calibrator};
use crate::spec;
use crate::trace::{totals_by_name, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hadoop,
    AllToAll,
    HadoopPar2,
    Fleet,
    CtrlReplay,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Hadoop,
        Workload::AllToAll,
        Workload::HadoopPar2,
        Workload::Fleet,
        Workload::CtrlReplay,
    ];

    pub fn name(self) -> &'static str {
        let i = Self::ALL.iter().position(|w| *w == self).expect("listed");
        spec::WORKLOADS[i].name
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many times one repetition sets up. Cheap set-ups (a few
    /// milliseconds at most) are repeated until the median sits well
    /// past the first, cold, handful; `ctrl_replay`'s records a tape by
    /// simulating, once.
    fn setup_repeats(self) -> usize {
        match self {
            Workload::CtrlReplay => 1,
            _ => 25,
        }
    }
}

/// Threads this process may use.
pub fn threads_available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one repetition reports to the runner. Scalars in `nums`, timing
/// samples in `samples`; names are metric names or their raw inputs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RepOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Hash of everything the repetition produced (see `fingerprint`).
    pub fingerprint: String,
    /// Hash of the part the runner re-derives through the library's own
    /// drivers (`run_schedule`, `run_collective`, `standalone_run`).
    pub reference_fingerprint: String,
    pub checks: Vec<(String, bool)>,
    pub nums: BTreeMap<String, f64>,
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl RepOutput {
    pub fn num(&mut self, name: &str, v: f64) {
        self.nums.insert(name.to_string(), v);
    }

    pub fn sample(&mut self, name: &str, v: Vec<f64>) {
        self.samples.insert(name.to_string(), v);
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.nums.get(name).copied().unwrap_or(0.0)
    }

    pub fn to_json(&self) -> Value {
        let obj = |m: Vec<(String, Value)>| Value::Object(m);
        obj(vec![
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            (
                "fingerprint".into(),
                Value::String(self.fingerprint.clone()),
            ),
            (
                "reference_fingerprint".into(),
                Value::String(self.reference_fingerprint.clone()),
            ),
            (
                "checks".into(),
                obj(self
                    .checks
                    .iter()
                    .map(|(k, ok)| (k.clone(), Value::Bool(*ok)))
                    .collect()),
            ),
            (
                "nums".into(),
                obj(self
                    .nums
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect()),
            ),
            (
                "samples".into(),
                obj(self
                    .samples
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            Value::Array(v.iter().map(|x| Value::Float(*x)).collect()),
                        )
                    })
                    .collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("repetition output: no `{k}`"))
        };
        let entries = |k: &str| match field(k)? {
            Value::Object(e) => Ok(e.clone()),
            _ => Err(format!("repetition output: `{k}` is not an object")),
        };
        let text = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("repetition output: `{k}` is not a string"))
        };
        let mut out = RepOutput {
            attempted: field("attempted")?
                .as_u64()
                .ok_or("attempted: not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed: not a count")?,
            fingerprint: text("fingerprint")?,
            reference_fingerprint: text("reference_fingerprint")?,
            ..RepOutput::default()
        };
        for (k, ok) in entries("checks")? {
            out.checks
                .push((k, ok.as_bool().ok_or("check: not a bool")?));
        }
        for (k, n) in entries("nums")? {
            out.nums.insert(k, n.as_f64().ok_or("num: not a number")?);
        }
        for (k, a) in entries("samples")? {
            let items = a.as_array().ok_or("samples: not an array")?;
            let vals: Option<Vec<f64>> = items.iter().map(Value::as_f64).collect();
            out.samples.insert(k, vals.ok_or("sample: not a number")?);
        }
        Ok(out)
    }
}

/// Per-job bookkeeping shared by every workload's measured loop: job
/// times, and the calibration slices taken between jobs (see
/// [`crate::calib`]).
pub struct JobLog {
    pub job_ms: Vec<f64>,
    pub failed: u64,
    started: Option<Instant>,
    calib: Calibrator,
    /// Slice times, ms. `slices[0]` precedes the first job.
    slices: Vec<f64>,
    /// Per job, the index of the last slice taken before it; the next
    /// slice after it is at that index plus one.
    slice_before: Vec<usize>,
    /// Job time since the last slice, ms.
    since_slice_ms: f64,
}

impl JobLog {
    /// Job time between two slices, ms. A slice is ≈2 ms, so calibration
    /// costs under a tenth of the measured phase; jobs shorter than this
    /// share their neighbours' slices.
    const SLICE_EVERY_MS: f64 = 25.0;

    pub fn new() -> Self {
        let mut calib = Calibrator::new();
        let first = calib.slice_ms();
        Self {
            job_ms: Vec::new(),
            failed: 0,
            started: None,
            calib,
            slices: vec![first],
            slice_before: Vec::new(),
            since_slice_ms: 0.0,
        }
    }

    pub fn begin(&mut self) {
        self.started = Some(Instant::now());
    }

    /// Close the job opened by [`JobLog::begin`]. `utility` is the
    /// controller's Eq. (1) value for the job: outside `[0, 1]` or not
    /// finite means the job produced a wrong result.
    pub fn end(&mut self, utility: f64) {
        let t = self.started.take().expect("end() follows begin()");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.job_ms.push(ms);
        self.slice_before.push(self.slices.len() - 1);
        if !(utility.is_finite() && (0.0..=1.0).contains(&utility)) {
            self.failed += 1;
        }
        self.since_slice_ms += ms;
        if self.since_slice_ms >= Self::SLICE_EVERY_MS {
            self.take_slice();
        }
    }

    fn take_slice(&mut self) {
        self.slices.push(self.calib.slice_ms());
        self.since_slice_ms = 0.0;
    }

    /// Write the samples into `out`: `job_ms` as measured, `job_ref_ms`
    /// in reference milliseconds, `calib_ms` the slices themselves.
    pub fn export(&mut self, out: &mut RepOutput) {
        if self.since_slice_ms > 0.0 {
            self.take_slice();
        }
        let reference: Vec<f64> = self
            .job_ms
            .iter()
            .zip(&self.slice_before)
            .map(|(ms, i)| to_reference(*ms, self.slices[*i], self.slices[i + 1]))
            .collect();
        out.num("wall_s", self.job_ms.iter().sum::<f64>() / 1e3);
        out.sample("job_ms", self.job_ms.clone());
        out.sample("job_ref_ms", reference);
        out.sample("calib_ms", self.slices.clone());
    }
}

/// Time `setup` `repeats` times, a calibration slice between every two;
/// keep the last product. `setup_s` as measured, `setup_ref_s` in
/// reference seconds.
pub fn timed_setups<T>(repeats: usize, out: &mut RepOutput, mut setup: impl FnMut() -> T) -> T {
    let mut calib = Calibrator::new();
    let mut samples = Vec::with_capacity(repeats);
    let mut reference = Vec::with_capacity(repeats);
    let mut last = None;
    let mut before = calib.slice_ms();
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        let s = t.elapsed().as_secs_f64();
        let after = calib.slice_ms();
        samples.push(s);
        reference.push(to_reference(s, before, after));
        before = after;
    }
    out.sample("setup_s", samples);
    out.sample("setup_ref_s", reference);
    last.expect("at least one set-up ran")
}

/// What the controllers of a repetition did, over all their interval
/// records: the mean Eq. (1) utility, the exact decision counts, and the
/// cells' own CPU counters.
pub fn summarise_cells(cells: &[&TunerCell], out: &mut RepOutput) {
    let records = || cells.iter().flat_map(|c| c.history.iter());
    let count = |f: fn(&IntervalRecord) -> bool| records().filter(|r| f(r)).count() as f64;
    let n = records().count().max(1) as f64;
    out.num(
        "sim_utility_mean",
        records().map(|r| r.utility).sum::<f64>() / n,
    );
    out.num("core.triggers", count(|r| r.triggered));
    out.num("tuner.deploys", count(|r| r.dispatched));
    out.num("core.guard_rejects", count(|r| r.rejected));
    out.num("core.rollbacks", count(|r| r.rolled_back));
    out.num(
        "core.monitor_cpu_s",
        cells.iter().map(|c| c.monitor_cpu.as_secs_f64()).sum(),
    );
    out.num(
        "core.tuner_cpu_s",
        cells.iter().map(|c| c.tuner_cpu.as_secs_f64()).sum(),
    );
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fold the tracer's spans into the repetition output: per span name the
/// total and self time, and the duration samples in microseconds.
fn fold_spans(out: &mut RepOutput, tr: &Tracer) {
    for (name, t) in totals_by_name(tr.spans()) {
        out.num(&format!("span.{name}.total_s"), t.total_ns as f64 / 1e9);
        out.num(&format!("span.{name}.self_s"), t.self_ns as f64 / 1e9);
        out.num(&format!("span.{name}.count"), t.count as f64);
        out.sample(
            &format!("span.{name}.us"),
            t.durs_ns.iter().map(|d| *d as f64 / 1e3).collect(),
        );
    }
}

/// Run one repetition of `w` in this process: set up (timed, repeated),
/// run the measured job loop, check and summarise. A panic inside a job
/// is caught and reported as one failed job; the repetition stops there.
pub fn run_repetition(
    w: Workload,
    seed: u64,
    traced: bool,
    trace_path: Option<&std::path::Path>,
) -> RepOutput {
    let mut out = RepOutput::default();
    let mut tr = Tracer::new(traced);
    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match w {
        Workload::Hadoop => clos::hadoop_rep(seed, false, w.setup_repeats(), &mut tr, &mut out),
        Workload::HadoopPar2 => clos::hadoop_rep(seed, true, w.setup_repeats(), &mut tr, &mut out),
        Workload::AllToAll => clos::alltoall_rep(seed, w.setup_repeats(), &mut tr, &mut out),
        Workload::Fleet => fleet::rep(seed, w.setup_repeats(), &mut tr, &mut out),
        Workload::CtrlReplay => ctrl::rep(seed, w.setup_repeats(), &mut tr, &mut out),
    }));
    if body.is_err() {
        out.attempted += 1;
        out.failed += 1;
        out.check("no_job_panicked", false);
    }
    out.num("peak_rss_mb", peak_rss_mb());
    if traced {
        fold_spans(&mut out, &tr);
        if let Some(path) = trace_path {
            if let Err(e) = crate::trace::write_jsonl(path, tr.spans()) {
                eprintln!("cannot write {}: {e}", path.display());
                out.check("trace_written", false);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_output_round_trips_through_json() {
        let mut r = RepOutput {
            attempted: 12,
            failed: 1,
            fingerprint: "00ff".into(),
            reference_fingerprint: "abcd".into(),
            ..RepOutput::default()
        };
        r.check("drops_zero", true);
        r.num("wall_s", 2.5);
        r.sample("job_ms", vec![1.0, 2.25]);
        let text = serde_json::to_string(&r.to_json()).unwrap();
        let back = RepOutput::from_json(&serde_json::from_str_value(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn workload_names_follow_the_spec_table() {
        for (w, s) in Workload::ALL.iter().zip(spec::WORKLOADS) {
            assert_eq!(w.name(), s.name);
            assert_eq!(Workload::from_name(s.name), Some(*w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn a_job_with_a_bad_utility_counts_as_failed() {
        let mut log = JobLog::new();
        for u in [0.5, f64::NAN, 1.5, 0.0, 1.0] {
            log.begin();
            log.end(u);
        }
        assert_eq!(log.job_ms.len(), 5);
        assert_eq!(log.failed, 2);
    }
}
