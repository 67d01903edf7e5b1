//! The experiment harness behind the one `exp` binary: every paper
//! table/figure (and the fault/fleet acceptance scenarios) is a module
//! under [`exp`] registered in the static table [`exp::ALL`], run through
//! one [`Ctx`] that owns argv, threads, `results/` and the exit status.
//! An experiment's only output is the rows it hands [`Ctx::write`]: its
//! `results/<name>.json`, and one rendering of that JSON as a Markdown
//! table — printed on stdout and kept in the row's section of
//! `EXPERIMENTS.md`. `--check` gates both against what is committed.
//!
//! Because the substrate is a packet-level simulator on one machine (not
//! the authors' 128-server ns-3 runs or the 32×H100 testbed), experiments
//! have up to three scales ([`Scale`]): **reduced** (default — smaller
//! fabric / shorter windows, preserves the qualitative shape), **paper**
//! (`--paper`, the paper's topology and durations) and **smoke**
//! (`--smoke`, a minimal fabric for the CI acceptance scenarios).
//!
//! This file holds what experiments share: the scale's dimensions and
//! the scenario pieces (workload generators, the fig5/fig6 load, the
//! cross-ToR injector, series/FCT extraction) that two or more of them
//! build on.

mod ctx;
pub mod exp;

pub use ctx::{run, Ctx, Experiment};

use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use paraleon::prelude::*;
use paraleon_telemetry::export::TelemetryDump;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced fabric (default): 4 ToR × 8 hosts, 2 leaves.
    Reduced,
    /// The paper's NS3 fabric: 8 ToR × 16 hosts, 4 leaves.
    Paper,
    /// Minimal fabric for CI acceptance scenarios: 2 ToR × 4 hosts.
    /// Everything but the fabric dimensions follows `Reduced`.
    Smoke,
}

impl Scale {
    /// `(ToRs, hosts per ToR, leaves)`; every scale is 4:1 (smoke 2:1)
    /// oversubscribed at the ToR uplinks.
    fn dims(self) -> (usize, usize, usize) {
        match self {
            Scale::Reduced => (4, 8, 2),
            Scale::Paper => (8, 16, 4),
            Scale::Smoke => (2, 4, 2),
        }
    }

    /// The evaluation fabric at this scale (oversubscribed CLOS, 100 G
    /// links, 5 µs propagation — §IV-B).
    pub fn clos(self) -> Topology {
        let (tors, per_tor, leaves) = self.dims();
        Topology::two_tier_clos(tors, per_tor, leaves, 100.0, 100.0, 5_000)
    }

    /// Hosts in the fabric.
    pub fn hosts(self) -> usize {
        self.dims().0 * self.dims().1
    }

    /// Hosts under one ToR.
    pub fn hosts_per_tor(self) -> usize {
        self.dims().1
    }

    /// FB_Hadoop measurement window (long enough for a scaled SA episode
    /// to converge well before the end).
    pub fn fb_window(self) -> u64 {
        match self {
            Scale::Paper => 500 * MILLI,
            _ => 150 * MILLI,
        }
    }

    /// Shorter window for the monitoring-accuracy sweeps (accuracy
    /// stabilizes within a few tens of intervals).
    pub fn monitor_window(self) -> u64 {
        match self {
            Scale::Paper => 200 * MILLI,
            _ => 60 * MILLI,
        }
    }

    /// The PARALEON scheme configured for this scale: the paper's
    /// Table III SA schedule at paper scale; below it a proportionally
    /// shortened episode (same shape, fewer iterations per temperature
    /// level, so it stays well inside the reduced windows) whose
    /// candidates are each evaluated over 3 monitor intervals — small
    /// fabrics have few flows per 1 ms interval, so single-interval
    /// utility is too noisy to rank candidates.
    pub fn paraleon(self) -> SchemeKind {
        match self {
            Scale::Paper => SchemeKind::ParaleonSa(SaConfig::paper_default(), 1),
            _ => SchemeKind::ParaleonSa(
                SaConfig {
                    total_iter_num: 4,
                    cooling_rate: 0.6,
                    ..SaConfig::paper_default()
                },
                3,
            ),
        }
    }

    /// The five tuning schemes of §IV-B1, in display order.
    pub fn all_schemes(self) -> Vec<SchemeKind> {
        vec![
            SchemeKind::Default,
            SchemeKind::Expert,
            SchemeKind::DcqcnPlus,
            SchemeKind::Acc,
            self.paraleon(),
        ]
    }

    /// LLM alltoall message size per worker pair.
    pub fn llm_message(self) -> u64 {
        match self {
            Scale::Paper => 12 << 20, // the paper's 12 MB
            _ => 1 << 20,             // 1 MB keeps rounds ~ms
        }
    }

    /// Display label; also the `results/<name>_<label>.json` suffix of
    /// every scale but the default.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Reduced => "reduced",
            Scale::Paper => "paper",
            Scale::Smoke => "smoke",
        }
    }

    /// Seeded Poisson schedule over this scale's hosts (100 G access
    /// links): `load` of aggregate bandwidth drawn from `dist` inside
    /// `window`.
    pub fn poisson(
        self,
        dist: FlowSizeDist,
        load: f64,
        window: Range<u64>,
        seed: u64,
    ) -> Vec<FlowRequest> {
        poisson_flows(self.hosts(), 12.5e9, dist, load, window, seed)
    }
}

/// Seeded Poisson flow schedule: the one place a `PoissonWorkload` is
/// configured, seeded and generated.
pub fn poisson_flows(
    hosts: usize,
    host_bw_bytes_per_sec: f64,
    dist: FlowSizeDist,
    load: f64,
    window: Range<u64>,
    seed: u64,
) -> Vec<FlowRequest> {
    let cfg = PoissonConfig {
        hosts,
        host_bw_bytes_per_sec,
        load,
        start: window.start,
        end: window.end,
    };
    PoissonWorkload::new(cfg, dist).generate(&mut StdRng::seed_from_u64(seed))
}

/// Row-major cartesian product: the cells of a two-axis sweep.
pub fn grid<A: Clone, B: Clone>(rows: &[A], cols: &[B]) -> Vec<(A, B)> {
    rows.iter()
        .flat_map(|a| cols.iter().map(move |b| (a.clone(), b.clone())))
        .collect()
}

/// ON-OFF alltoall over `n` workers placed every `stride` hosts.
pub fn alltoall(
    n: usize,
    stride: usize,
    message_bytes: u64,
    off_time: u64,
    rounds: Option<u32>,
) -> Collective {
    Collective::new(CollectiveSpec {
        kind: CollectiveKind::Alltoall,
        workers: (0..n).map(|i| i * stride).collect(),
        message_bytes,
        microbatches: 1,
        rounds,
        off_time,
    })
}

/// The fig5/fig6 sweep workload under a static parameter set; returns
/// steady-state `(goodput bytes/s, RTT µs)`, skipping only the first
/// interval. Long-running elephants periodically get hit by mice incast
/// bursts at their destinations: each burst collapses the elephants'
/// DCQCN rates, the recovery between bursts exercises the rate-increase
/// machinery (fast recovery → additive → hyper), and the ECN thresholds
/// shape the collapse depth — so every swept parameter has an
/// observable effect, as in the paper's Figure 5.
pub fn elephants_plus_incast(scale: Scale, params: DcqcnParams) -> (f64, f64) {
    let mut cl = ClosedLoop::builder(scale.clos())
        .scheme(SchemeKind::Static(params, "static"))
        .build();
    let hosts = scale.hosts();
    let pairs = hosts / 4;
    let window = match scale {
        Scale::Paper => 60 * MILLI,
        _ => 24 * MILLI,
    };
    // Elephants: disjoint cross-fabric pairs spread over all racks (so
    // no rack uplink is structurally saturated), sized to outlive the run.
    let dst_of = |i: usize| (i * (hosts / pairs) + hosts / 2 + 1) % hosts;
    for i in 0..pairs {
        let src = i * (hosts / pairs);
        cl.sim
            .add_flow(src, dst_of(i), 2 * 12_500 * window / 1_000, 0);
    }
    // Mice bursts: every 3 ms, an 8-to-1 incast of 64 KB mice onto each
    // elephant destination.
    for t in (MILLI..window).step_by(3 * MILLI as usize) {
        for dst in (0..pairs).map(dst_of) {
            for k in 0..8usize {
                let src = (dst + 1 + k * 3) % hosts;
                if src != dst {
                    cl.sim.add_flow(src, dst, 64 * 1024, t + k as u64 * 1000);
                }
            }
        }
    }
    cl.run_until(window);
    let steady = cl.cell.history.get(1..).unwrap_or_default();
    let goodput: Vec<f64> = steady.iter().map(|r| r.goodput).collect();
    let sampled = steady.iter().filter(|r| r.avg_rtt_ns > 0.0);
    let rtt_us: Vec<f64> = sampled.map(|r| r.avg_rtt_ns / 1_000.0).collect();
    (stats::mean(&goodput), stats::mean(&rtt_us))
}

/// One interval's offered load for the fault scenarios: every host sends
/// one cross-ToR flow of `bytes` to its counterpart one ToR over (host 0
/// receives too, so a PFC storm there has traffic aimed at it). Fresh
/// flows every interval keep queue pressure on the fabric and mean
/// recovery after a rollback is immediate: new QPs start clean at line
/// rate under whatever parameters survived.
pub fn inject_interval(cl: &mut ClosedLoop, scale: Scale, bytes: u64) {
    let n = scale.hosts();
    let now = cl.sim.now();
    for src in 0..n {
        let dst = (src + scale.hosts_per_tor()) % n;
        cl.sim.add_flow(src, dst, bytes, now + (src as u64) * 100);
    }
}

/// Runtime series of an influx run, rebuilt from its exported telemetry:
/// `(t ms, goodput Gbps, RTT µs)` per monitor interval.
pub fn influx_series(dump: &TelemetryDump) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let goodput = dump.series_get("goodput_bytes_per_sec", 0);
    let rtt = dump.series_get("avg_rtt_ns", 0);
    (
        goodput.iter().map(|&(t, _)| t as f64 / 1e6).collect(),
        goodput.iter().map(|&(_, v)| stats::gbps_of(v)).collect(),
        rtt.iter().map(|&(_, v)| v / 1e3).collect(),
    )
}

/// `(mean, p99)` FCT of `records` in units of `unit_ns` nanoseconds.
pub fn fct_mean_p99<'a>(records: impl Iterator<Item = &'a FlowRecord>, unit_ns: f64) -> (f64, f64) {
    let mut fcts: Vec<f64> = records.map(|r| r.fct() as f64 / unit_ns).collect();
    (stats::mean(&fcts), stats::percentile(&mut fcts, 99.0))
}

/// Steady-state algorithm bandwidth (Gbps): mean over the last half of
/// the finished rounds (the early rounds include PARALEON's search
/// transient).
pub fn steady_algbw_gbps(coll: &Collective) -> f64 {
    let done = coll.round_durations().len();
    let take = (done / 2).max(1);
    let vals: Vec<f64> = (done.saturating_sub(take)..done)
        .filter_map(|i| coll.algbw_bytes_per_sec(i))
        .map(stats::gbps_of)
        .collect();
    stats::mean(&vals)
}

/// The tracked `results/` directory: workspace root when run via cargo,
/// else relative to the CWD.
pub fn results_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../../results"))
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Serialise `value` to `path` — the only code that opens a file under
/// `results/` or `corpus/` for writing.
pub fn write_json_file<T: Serialize>(path: &Path, value: &T) -> io::Result<()> {
    let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)?;
    println!("[results -> {}]", path.display());
    Ok(())
}
