//! Control-plane fault experiment: the faulty-controller survival story.
//!
//! A steady cross-ToR workload runs while the *control plane* — not the
//! fabric — takes a scripted beating: both channel lanes turn lossy,
//! delaying and duplicating (telemetry uploads and parameter dispatches
//! alike), and mid-impairment the controller process crashes and
//! warm-restarts from its last checkpoint. The data plane itself is
//! never touched, so any end-state damage is purely a protocol failure.
//!
//! * **Hardened** loop (epoch-stamped dispatches, ACK/retry with seeded
//!   backoff, snapshot/restore): retries re-send what the channel ate,
//!   the restart resyncs the fabric, and after the loop quiesces the
//!   controller's believed parameters and the fabric's applied
//!   parameters agree — with post-recovery goodput within 5% of an
//!   identically-seeded fault-free run.
//! * **Naive** strawman (same channel, no epochs, no retries, fire and
//!   forget): a lost or reordered-stale final dispatch is never
//!   repaired, so the run ends with the fabric silently running
//!   different parameters than the controller believes — the divergence
//!   the gate exists to catch.
//!
//! The three scenarios fan across worker threads with the same sweep
//! runner the hunter uses; results come back in job order, so a
//! parallel run is byte-identical to `--serial` (`--check` proves this
//! by running both and comparing the serialized outcomes).
//!
//! Run: `cargo run --release -p paraleon-bench --bin exp_ctrl_faults
//! [--check] [--serial | --threads N]`

use paraleon::prelude::*;
use paraleon_bench::{gbps_of, print_table, telemetry_begin, telemetry_dump, write_json};
use paraleon_hunt::sweep;
use serde::Serialize;

/// Shared deterministic seed: fabric RNG, channel fault stream and
/// retry jitter all derive from it, so every scenario replays exactly.
const SEED: u64 = 5;

/// Interval count of the scripted run (fault window included).
const RUN_INTERVALS: u64 = 48;

/// Quiescence budget after the scripted run: must outlast the SA
/// episode still in flight (~280 monitor intervals at the paper's
/// Table III settings) plus the retry backoff cap.
const SETTLE_INTERVALS: u64 = 400;

/// Post-recovery measurement phase: intervals of fresh offered load
/// after the loop quiesced, where goodput is judged against the
/// fault-free twin over the same window.
const MEASURE_INTERVALS: u64 = 12;

/// The gate: post-recovery goodput must be at least this fraction of
/// the fault-free run's.
const RECOVERY_FLOOR: f64 = 0.95;

/// The fabric: 2 ToRs × 4 hosts. One scale only — the gate pins one
/// seed, so the scripted scenario must not change shape under CI.
const N_HOSTS: usize = 8;
const HOSTS_PER_TOR: usize = 4;

/// Per-host bytes injected per monitor interval (~80% uplink load).
const BYTES_PER_INTERVAL: u64 = 5_000_000;

fn clos() -> Topology {
    Topology::two_tier_clos(2, HOSTS_PER_TOR, 2, 100.0, 100.0, 5_000)
}

/// The scripted control-plane beating: both lanes impaired from 2 ms
/// (45% loss, up to 3 intervals of delay, 25% duplication — loss,
/// delay, reorder and duplication all at once), a warm controller
/// crash at 20 ms, and *no restore*: the channel stays hostile to the
/// end of the run, so the final dispatch of the tuning episode is as
/// likely to be eaten as any other. Only retries can repair that.
fn ctrl_fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(3);
    plan.ctrl_impair(2 * MILLI, true, true, 0.45, 3, 0.25);
    plan.ctrl_crash(20 * MILLI, true);
    plan
}

/// One interval's offered load: every host sends one cross-ToR flow to
/// its counterpart one ToR over. Fresh flows every interval keep
/// dispatch-relevant pressure on the fabric and make the post-recovery
/// measurement phase start clean under whatever parameters survived.
fn inject_interval(cl: &mut ClosedLoop) {
    let now = cl.sim.now();
    for src in 0..N_HOSTS {
        let dst = (src + HOSTS_PER_TOR) % N_HOSTS;
        cl.sim
            .add_flow(src, dst, BYTES_PER_INTERVAL, now + (src as u64) * 100);
    }
}

#[derive(Serialize)]
struct CtrlOutcome {
    label: &'static str,
    faulted: bool,
    naive: bool,
    /// The loop reached quiescence inside the settle budget.
    settled: bool,
    /// Controller-believed vs fabric-applied parameter divergence at
    /// the end — the state a hardened protocol must drive to `false`.
    diverged: bool,
    /// Mean goodput (bytes/s) over the post-recovery measurement phase.
    recovery_goodput: f64,
    msgs_lost: u64,
    msgs_duplicated: u64,
    retries: u64,
    crashes: u64,
    resyncs: u64,
}

/// Run one scenario: scripted run → quiesce → divergence verdict →
/// fresh-load measurement phase.
fn run_scenario(label: &'static str, faulted: bool, naive: bool) -> CtrlOutcome {
    telemetry_begin();
    let mut cl = ClosedLoop::builder(clos())
        .scheme(SchemeKind::Paraleon)
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .ctrl_plane(CtrlPlaneConfig {
            naive,
            ..CtrlPlaneConfig::default()
        })
        .seed(SEED)
        .build();
    if faulted {
        cl.install_fault_plan(&ctrl_fault_plan()).expect("plan");
    }
    for _ in 0..RUN_INTERVALS {
        inject_interval(&mut cl);
        cl.step();
    }
    let settled = cl.ctrl_settle(SETTLE_INTERVALS);
    // The divergence verdict is taken at quiescence, before fresh load
    // can trigger new tuning episodes: this is the protocol's end state.
    let diverged = cl.ctrl_diverged();
    let measure_from = cl.cell.history.len();
    for _ in 0..MEASURE_INTERVALS {
        inject_interval(&mut cl);
        cl.step();
    }
    let phase = &cl.cell.history[measure_from..];
    let recovery_goodput = phase.iter().map(|r| r.goodput).sum::<f64>() / phase.len().max(1) as f64;
    let stats = cl.ctrl().stats();
    let dump = telemetry_dump(&format!("ctrl_faults_{label}"));
    if faulted {
        assert!(
            !dump.events_named("ctrl_crash").is_empty(),
            "telemetry is missing ctrl_crash events"
        );
        if !naive {
            assert!(
                !dump.events_named("ctrl_resync").is_empty(),
                "telemetry is missing ctrl_resync events"
            );
        }
    }
    CtrlOutcome {
        label,
        faulted,
        naive,
        settled,
        diverged,
        recovery_goodput,
        msgs_lost: stats.up.lost + stats.down.lost,
        msgs_duplicated: stats.up.duplicated + stats.down.duplicated,
        retries: stats.retries,
        crashes: stats.crashes,
        resyncs: stats.resyncs,
    }
}

/// Fan the three scenarios across the sweep runner; results come back
/// in job order regardless of worker count.
fn run_all(threads: usize) -> Vec<CtrlOutcome> {
    type Job<'a> = Box<dyn FnOnce() -> CtrlOutcome + Send + 'a>;
    let jobs: Vec<Job> = vec![
        Box::new(|| run_scenario("faultfree", false, false)),
        Box::new(|| run_scenario("hardened", true, false)),
        Box::new(|| run_scenario("naive", true, true)),
    ];
    sweep::run(threads, jobs)
}

/// Whether an outcome passes the acceptance gate relative to the
/// fault-free twin — the *same* gate judges hardened and naive.
fn passes_gate(o: &CtrlOutcome, faultfree: &CtrlOutcome) -> bool {
    o.settled && !o.diverged && o.recovery_goodput >= RECOVERY_FLOOR * faultfree.recovery_goodput
}

fn main() {
    let check_identical = std::env::args().any(|a| a == "--check");
    let threads = sweep::threads_from_args();
    println!("Control-plane fault experiment ({threads} thread(s))");

    let outcomes = run_all(threads);
    // `--check`: replay the whole sweep serially and require the
    // serialized outcomes to match the parallel run byte for byte.
    if check_identical {
        let serial = run_all(1);
        let a = serde_json::to_string(&outcomes).expect("outcomes serialize");
        let b = serde_json::to_string(&serial).expect("outcomes serialize");
        assert_eq!(
            a, b,
            "parallel run is not byte-identical to the serial replay"
        );
        println!("serial replay byte-identical: ok");
    }
    let [faultfree, hardened, naive] = &outcomes[..] else {
        unreachable!("three scenarios");
    };

    let row = |o: &CtrlOutcome| {
        vec![
            o.label.to_string(),
            format!("{:.1}", gbps_of(o.recovery_goodput)),
            format!("{}", o.settled),
            format!("{}", o.diverged),
            format!("{}", o.msgs_lost),
            format!("{}", o.retries),
            format!("{}", o.crashes),
            if passes_gate(o, faultfree) {
                "pass"
            } else {
                "FAIL"
            }
            .to_string(),
        ]
    };
    print_table(
        "Lossy channel + warm crash: recovery and end-state agreement",
        &[
            "loop",
            "recovery Gbps",
            "settled",
            "diverged",
            "msgs lost",
            "retries",
            "crashes",
            "gate",
        ],
        &[row(faultfree), row(hardened), row(naive)],
    );
    write_json("ctrl_faults", &outcomes);

    // --- Acceptance checks (CI smoke gate): exit non-zero on failure. ---
    let mut failures = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            failures.push(msg);
        }
    };
    check(
        passes_gate(faultfree, faultfree),
        "fault-free loop failed its own gate".into(),
    );
    check(
        passes_gate(hardened, faultfree),
        format!(
            "hardened loop failed the gate (settled {} diverged {} recovery {:.0}%)",
            hardened.settled,
            hardened.diverged,
            100.0 * hardened.recovery_goodput / faultfree.recovery_goodput
        ),
    );
    check(
        !passes_gate(naive, faultfree),
        "naive loop passed the gate — the hardened protocol is vacuous".into(),
    );
    check(
        naive.diverged,
        "naive loop did not end divergent under the scripted losses".into(),
    );
    check(
        hardened.msgs_lost > 0 && naive.msgs_lost > 0,
        "channel impairment never bit".into(),
    );
    check(
        hardened.retries > 0,
        "hardened loop never exercised the retry path".into(),
    );
    check(
        hardened.crashes == 1 && hardened.resyncs == 1,
        format!(
            "warm crash/resync miscounted ({} crash(es), {} resync(s))",
            hardened.crashes, hardened.resyncs
        ),
    );
    check(
        faultfree.msgs_lost == 0 && faultfree.retries == 0,
        "fault-free run saw channel losses or retries".into(),
    );
    // When built with the audit feature, a non-panicking (release) run
    // still fails the gate on any recorded invariant violation.
    if paraleon_audit::compiled_in() {
        let v = paraleon_audit::violation_count();
        for rep in paraleon_audit::violations().iter().take(5) {
            eprintln!("audit violation: {}", rep.violation);
        }
        check(v == 0, format!("{v} invariant violations recorded"));
    }

    if failures.is_empty() {
        println!("\nall acceptance checks passed");
    } else {
        eprintln!("\nACCEPTANCE FAILURES:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
