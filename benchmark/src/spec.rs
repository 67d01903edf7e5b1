//! The frozen definition of the benchmark: workload names and sizes,
//! end-to-end metrics with their bounds, per-layer metric names.
//!
//! `BENCHMARK.json` at the repo root states the same tables for the
//! pipeline; a unit test below keeps the two in step. Sizes are frozen
//! here, not derived at run time: two commits are only comparable when
//! they ran the same work.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: measured with tracing off, on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric: from the traced run, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Default `--seed`: `perf_probe`'s.
pub const DEFAULT_SEED: u64 = 5;
/// Default `--seconds` (= `run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;
/// A run never reports fewer repetitions than this: the metric is their
/// median, and one run of the 128-host probe spreads ±9% on a shared box.
pub const MIN_REPS: usize = 3;
/// Safety cap on repetitions per run.
pub const MAX_REPS: usize = 40;

// ---- frozen workload sizes -------------------------------------------

/// `clos128_hadoop`: milliseconds of Poisson load, and the horizon the
/// loop runs to (2 ms of drain). One repetition ≈ 16M events, ≈1.6 s:
/// short, so that a 10 s run holds six of them and their median means
/// something on a box whose speed moves by the second. Nine intervals,
/// not eight: `ctrl_replay` cycles this as its tape, and a tape as long
/// as the 8-interval KL trigger window would show the detector the same
/// window every time.
pub const HADOOP_LOAD_MS: u64 = 7;
pub const HADOOP_HORIZON_MS: u64 = 9;
/// `clos128_hadoop_par2` runs the same input on this many shard threads.
pub const PAR2_THREADS: usize = 2;
/// `clos128_alltoall`: 32 workers × 1 MiB, one round (7 intervals,
/// ≈13M events, ≈130k CNPs, ≈430 PFC frames). The first round is the
/// congested one: the first two carry ~98% of a six-round run's CNPs.
pub const A2A_WORKERS_PER_TOR: usize = 4;
pub const A2A_MESSAGE_BYTES: u64 = 1 << 20;
pub const A2A_ROUNDS: u32 = 1;
pub const A2A_OFF_NS: u64 = 500_000;
pub const A2A_DEADLINE_MS: u64 = 200;
/// `fleet8_mixed`: tenants and service ticks per repetition.
pub const FLEET_TENANTS: usize = 8;
pub const FLEET_TICKS: u64 = 40;
/// `ctrl_replay`: controller cells and tape cycles per repetition. The
/// tape is one `clos128_hadoop` repetition's interval metrics
/// (`HADOOP_HORIZON_MS` intervals), so one repetition is
/// `CTRL_CELLS × CTRL_CYCLES × HADOOP_HORIZON_MS` controller intervals.
pub const CTRL_CELLS: usize = 8;
pub const CTRL_CYCLES: u64 = 180;
/// Intervals of the reference driver (`drivers::run_schedule`,
/// `drivers::run_collective`) the hand-rolled loop is compared against
/// on every run. A prefix, because a full reference run would double the
/// run's cost; the simulator is deterministic, so a divergence shows in
/// the first interval it happens.
pub const REFERENCE_PREFIX_INTERVALS: usize = 4;

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "clos128_hadoop",
        why: "Paper-scale figure job (perf_probe's probe): mice+elephant Poisson load, mostly uncongested forwarding; the event core and per-packet path do ~99% of the work.",
    },
    WorkloadSpec {
        name: "clos128_alltoall",
        why: "Same fabric and layers driven by synchronized incast: ECN marking, CNPs, RP rate cuts, PFC and the collective barrier instead of the forwarding fast path.",
    },
    WorkloadSpec {
        name: "clos128_hadoop_par2",
        why: "clos128_hadoop's exact input on two shard threads: the only workload where netsim::par (barriers, mailboxes, telemetry capture/replay, per-call thread scope) does the work.",
    },
    WorkloadSpec {
        name: "fleet8_mixed",
        why: "Eight tiny heterogeneous fabrics under one FleetService: per-interval fixed costs (admission, collect, capture/replay, queues, thread fan-out) dominate; the job is a fleet tick.",
    },
    WorkloadSpec {
        name: "ctrl_replay",
        why: "Controller only: recorded interval metrics replayed through 8 TunerCells against idle engines; monitor, KL, SA, guardrail and ctrl-plane do all the work, netsim none.",
    },
];

/// The metrics the pipeline judges. It runs every workload at many
/// seeds and wants each metric steady *across* seeds, so these are
/// normalised by the work a seed happens to draw: a rate, not a time.
///
/// Host times are in reference seconds (see `calib`). The host-time
/// bounds are as wide as the reference box still is unsteady after
/// that: ten runs at ten seeds spread 3–8% (quartile distance ÷ median),
/// with single runs 12% apart; a bound must sit well clear of that or it
/// rejects innocent changes.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Units of input work per host second: simulated events on the four
    // simulating workloads, controller intervals on `ctrl_replay`.
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Simulated: exact for one seed, so this bound only has to hold the
    // spread *across* seeds (6.6% on `clos128_alltoall`, where the seed
    // places the workers) under a third of itself.
    EndToEnd {
        name: "sim_utility_mean",
        unit: "utility",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// Metrics that are only comparable between runs of one seed (the work
/// is then identical): `compare` judges them, the pipeline does not.
/// Their host-time bounds are the pipeline's: two back-to-back full runs
/// of one commit have differed by 20% on this box.
pub const SAME_SEED: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    // Simulated: identical between two runs of one seed, or the
    // semantics changed.
    EndToEnd {
        name: "sim_goodput_gbps",
        unit: "Gbit/s",
        better: Better::Higher,
        bound: 0.0,
    },
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // netsim
    pl("netsim.run_until_s", "s", Lower),
    pl("netsim.run_until_share", "share", Lower),
    pl("netsim.events", "count", Lower),
    pl("netsim.events_per_s", "1/s", Higher),
    pl("netsim.ns_per_event", "ns", Lower),
    pl("netsim.collect_interval_us_p50", "us", Lower),
    pl("netsim.take_completions_us_p50", "us", Lower),
    pl("netsim.add_flow_ns", "ns", Lower),
    pl("netsim.topology_build_ms", "ms", Lower),
    pl("netsim.engine_new_ms", "ms", Lower),
    pl("netsim.cnps", "count", Lower),
    pl("netsim.ecn_marks", "count", Lower),
    pl("netsim.pfc_events", "count", Lower),
    pl("netsim.drops", "count", Lower),
    pl("netsim.data_pkts_est", "count", Lower),
    pl("netsim.completions", "count", Higher),
    pl("netsim.goodput_gbps", "Gbit/s", Higher),
    pl("netsim.fct_slowdown_tail", "ratio", Lower),
    pl("netsim.fct_slowdown_tail_pct", "%", Higher),
    pl("netsim.par_shards", "count", Higher),
    pl("netsim.par2_speedup", "ratio", Higher),
    // dcqcn
    pl("dcqcn.rp_on_send_ns", "ns", Lower),
    pl("dcqcn.rp_on_cnp_ns", "ns", Lower),
    pl("dcqcn.rp_advance_ns", "ns", Lower),
    pl("dcqcn.np_on_packet_ns", "ns", Lower),
    pl("dcqcn.cp_should_mark_ns", "ns", Lower),
    pl("dcqcn.est_share", "share", Lower),
    // sketch
    pl("sketch.insert_ns", "ns", Lower),
    pl("sketch.drain_us", "us", Lower),
    pl("sketch.window_end_interval_us", "us", Lower),
    pl("sketch.local_fsd_us", "us", Lower),
    pl("sketch.kl_ns", "ns", Lower),
    pl("sketch.est_share", "share", Lower),
    // monitor
    pl("monitor.on_interval_us", "us", Lower),
    pl("monitor.trigger_observe_ns", "ns", Lower),
    pl("monitor.merger_ingest_ns", "ns", Lower),
    pl("monitor.network_fsd_us", "us", Lower),
    // tuner
    pl("tuner.sa_step_ns", "ns", Lower),
    pl("tuner.acc_step_us", "us", Lower),
    pl("tuner.deploys", "count", Lower),
    // core
    pl("core.process_interval_us_p50", "us", Lower),
    pl("core.process_interval_us_tail", "us", Lower),
    pl("core.process_interval_tail_pct", "%", Higher),
    pl("core.deliver_dispatch_us_p50", "us", Lower),
    pl("core.step_overhead_share", "share", Lower),
    pl("core.monitor_cpu_s", "s", Lower),
    pl("core.tuner_cpu_s", "s", Lower),
    pl("core.guard_observe_ns", "ns", Lower),
    pl("core.guard_screen_ns", "ns", Lower),
    pl("core.triggers", "count", Lower),
    pl("core.guard_rejects", "count", Lower),
    pl("core.rollbacks", "count", Lower),
    // fleet
    pl("fleet.phase_a_ms_p50", "ms", Lower),
    pl("fleet.phase_b_us_p50", "us", Lower),
    pl("fleet.tick_ms_tail", "ms", Lower),
    pl("fleet.tick_tail_pct", "%", Higher),
    pl("fleet.snapshot_ms", "ms", Lower),
    pl("fleet.restore_ms", "ms", Lower),
    pl("fleet.ctrl_mem_bytes_per_tenant", "bytes", Lower),
    pl("fleet.upload_drops", "count", Lower),
    pl("fleet.starved_turns", "count", Lower),
    pl("fleet.threads_effective", "count", Higher),
    // telemetry
    pl("telemetry.count_disabled_ns", "ns", Lower),
    pl("telemetry.count_enabled_ns", "ns", Lower),
    pl("telemetry.capture_replay_ns_per_event", "ns", Lower),
    // workloads
    pl("workloads.poisson_flows_per_s", "1/s", Higher),
    pl("workloads.alltoall_round_us", "us", Lower),
    // hunt
    pl("hunt.corpus_load_ms", "ms", Lower),
    pl("hunt.evaluate_ms_p50", "ms", Lower),
    pl("hunt.evals_per_s", "1/s", Higher),
    // bench: the run itself. The same-seed metrics ride along here so
    // the pipeline's traced runs record them too.
    pl("bench.wall_s", "s", Lower),
    pl("bench.jobs_per_s", "1/s", Higher),
    pl("bench.job_ms_p50", "ms", Lower),
    pl("bench.peak_rss_mb", "MiB", Lower),
    pl("bench.trace_overhead_frac", "share", Lower),
    pl("bench.host_speed", "ratio", Higher),
    pl("bench.threads_available", "count", Higher),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().chain(SAME_SEED).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("array")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` and these tables are two statements of one
    /// definition: names, order, units, directions and bounds must agree.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let v = serde_json::from_str_value(text).expect("BENCHMARK.json parses");
        let wl: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&v, "workloads"), wl);
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&v, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&v, "per_layer"), layers);
        for (m, j) in END_TO_END
            .iter()
            .zip(v.get("end_to_end").and_then(Value::as_array).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(v.get("per_layer").and_then(Value::as_array).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Value::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Value::as_str),
                Some(m.better.as_str())
            );
        }
        for (w, j) in WORKLOADS
            .iter()
            .zip(v.get("workloads").and_then(Value::as_array).unwrap())
        {
            assert_eq!(j.get("why").and_then(Value::as_str), Some(w.why));
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }
        assert_eq!(
            v.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(SAME_SEED).map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate name");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
