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
//! The three scenarios are sweep cells; `--check` holds their rows to
//! the committed bytes at whatever thread count the host has.

use paraleon::prelude::*;
use serde::Serialize;

use crate::{inject_interval, Ctx, Scale};

/// The fabric: 2 ToRs × 4 hosts whatever the scale asked for — the gate
/// pins one seed, so the scripted scenario must not change shape.
const FABRIC: Scale = Scale::Smoke;

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

/// Per-host bytes injected per monitor interval (~80% uplink load).
const BYTES_PER_INTERVAL: u64 = 5_000_000;

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
fn run_scenario(ctx: &Ctx, label: &'static str, faulted: bool, naive: bool) -> CtrlOutcome {
    ctx.telemetry_begin();
    let mut cl = ClosedLoop::builder(FABRIC.clos())
        .scheme(SchemeKind::Paraleon)
        .loop_config(LoopConfig {
            force_tuning: true,
            ..LoopConfig::default()
        })
        .ctrl_plane(CtrlPlaneConfig { naive })
        .seed(SEED)
        .build();
    if faulted {
        // The scripted control-plane beating: both lanes impaired from
        // 2 ms (45% loss, up to 3 intervals of delay, 25% duplication —
        // loss, delay, reorder and duplication all at once), a warm
        // controller crash at 20 ms, and *no restore*: the channel stays
        // hostile to the end of the run, so the final dispatch of the
        // tuning episode is as likely to be eaten as any other. Only
        // retries can repair that.
        let mut plan = FaultPlan::new(3);
        plan.ctrl_impair(2 * MILLI, true, true, 0.45, 3, 0.25);
        plan.ctrl_crash(20 * MILLI, true);
        cl.install_fault_plan(&plan).expect("plan");
    }
    let offer = |cl: &mut ClosedLoop, intervals: u64| {
        for _ in 0..intervals {
            inject_interval(cl, FABRIC, BYTES_PER_INTERVAL);
            cl.step();
        }
    };
    offer(&mut cl, RUN_INTERVALS);
    let settled = cl.ctrl_settle(SETTLE_INTERVALS);
    // The divergence verdict is taken at quiescence, before fresh load
    // can trigger new tuning episodes: this is the protocol's end state.
    let diverged = cl.cell.ctrl_diverged(&cl.sim);
    let measure_from = cl.cell.history.len();
    offer(&mut cl, MEASURE_INTERVALS);
    let phase = &cl.cell.history[measure_from..];
    let recovery_goodput = phase.iter().map(|r| r.goodput).sum::<f64>() / phase.len().max(1) as f64;
    let stats = cl.cell.ctrl().stats();
    let dump = ctx.telemetry_dump(label);
    // The naive loop crashes too but has no resync to log.
    let expected: &[&str] = match (faulted, naive) {
        (false, _) => &[],
        (true, true) => &["ctrl_crash"],
        (true, false) => &["ctrl_crash", "ctrl_resync"],
    };
    for ev in expected {
        ctx.gate(
            !dump.events_named(ev).is_empty(),
            format!("{label}: telemetry is missing {ev} events"),
        );
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

/// Whether an outcome passes the acceptance gate relative to the
/// fault-free twin — the *same* gate judges hardened and naive.
fn passes_gate(o: &CtrlOutcome, faultfree: &CtrlOutcome) -> bool {
    o.settled && !o.diverged && o.recovery_goodput >= RECOVERY_FLOOR * faultfree.recovery_goodput
}

pub(crate) fn run(ctx: &Ctx) {
    let scenarios = vec![
        ("faultfree", false, false),
        ("hardened", true, false),
        ("naive", true, true),
    ];
    let outcomes = ctx.sweep(scenarios, |(label, faulted, naive)| {
        run_scenario(ctx, label, faulted, naive)
    });
    let [faultfree, hardened, naive] = &outcomes[..] else {
        unreachable!("three scenarios");
    };
    ctx.write(&outcomes);

    // --- Acceptance checks (CI smoke gate). ---
    ctx.gate(
        passes_gate(faultfree, faultfree),
        "fault-free loop failed its own gate",
    );
    ctx.gate(
        passes_gate(hardened, faultfree),
        format!(
            "hardened loop failed the gate (settled {} diverged {} recovery {:.0}%)",
            hardened.settled,
            hardened.diverged,
            100.0 * hardened.recovery_goodput / faultfree.recovery_goodput
        ),
    );
    ctx.gate(
        !passes_gate(naive, faultfree),
        "naive loop passed the gate — the hardened protocol is vacuous",
    );
    ctx.gate(
        naive.diverged,
        "naive loop did not end divergent under the scripted losses",
    );
    ctx.gate(
        hardened.msgs_lost > 0 && naive.msgs_lost > 0,
        "channel impairment never bit",
    );
    ctx.gate(
        hardened.retries > 0,
        "hardened loop never exercised the retry path",
    );
    ctx.gate(
        hardened.crashes == 1 && hardened.resyncs == 1,
        format!(
            "warm crash/resync miscounted ({} crash(es), {} resync(s))",
            hardened.crashes, hardened.resyncs
        ),
    );
    ctx.gate(
        faultfree.msgs_lost == 0 && faultfree.retries == 0,
        "fault-free run saw channel losses or retries",
    );
}
