//! Auditor-centric property tests.
//!
//! Two guarantees, exercised over randomized topologies, workloads and
//! fault plans:
//!
//! 1. **Zero violations** — the simulator maintains every invariant the
//!    auditor checks (packet conservation, shared-buffer accounting, PFC
//!    pairing and pause budgets, event ordering) across random scenarios,
//!    including incast pressure and injected faults.
//! 2. **Observational transparency** — auditing never perturbs the
//!    simulation: an audited run and an unaudited run of the same
//!    (config, seed, FaultPlan) produce byte-identical metrics.
//!
//! Both tests also run (vacuously for the first, trivially for the
//! second) when the `audit` feature is off, so the default test suite
//! keeps covering the scenario space.

use proptest::prelude::*;

use paraleon_audit as audit;
use paraleon_netsim::{Engine, FaultPlan, IntervalMetrics, SimConfig, Topology, MICRO, MILLI};

/// A randomized scenario: topology dimensions, incast-ish flow set,
/// shrunken shared buffer (to provoke PFC), and a fault plan.
#[derive(Debug, Clone)]
struct Scenario {
    tors: usize,
    hosts_per_tor: usize,
    leaves: usize,
    buffer_kb: u64,
    seed: u64,
    flows: Vec<(usize, usize, u64, u64)>,
    flap_uplink: bool,
    storm_host: Option<usize>,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        (2usize..=4, 2usize..=5, 1usize..=3),
        256u64..=4096,
        0u64..1u64 << 32,
        prop::collection::vec(
            (0usize..20, 0usize..20, 1u64..1_500_000, 0u64..MILLI),
            1..16,
        ),
        any::<bool>(),
        (any::<bool>(), 0usize..20),
    )
        .prop_map(
            |((tors, hosts_per_tor, leaves), buffer_kb, seed, flows, flap_uplink, storm)| {
                Scenario {
                    tors,
                    hosts_per_tor,
                    leaves,
                    buffer_kb,
                    seed,
                    flows,
                    flap_uplink,
                    storm_host: storm.0.then_some(storm.1),
                }
            },
        )
}

/// Build and run one scenario to quiescence (or a horizon), collecting
/// intervals along the way; returns the per-interval metrics.
fn run_scenario(sc: &Scenario, audited: bool) -> Vec<IntervalMetrics> {
    audit::set_enabled(audited);
    let topo = Topology::two_tier_clos(sc.tors, sc.hosts_per_tor, sc.leaves, 100.0, 100.0, 1_000);
    let n_hosts = sc.tors * sc.hosts_per_tor;
    let cfg = SimConfig {
        switch_buffer_bytes: sc.buffer_kb << 10,
        seed: sc.seed,
        ..SimConfig::default()
    };
    let mut sim = Engine::new(topo, cfg, 1);
    let mut plan = FaultPlan::new(sc.seed ^ 0xF417);
    if sc.flap_uplink {
        // First ToR's first uplink (port index = hosts_per_tor).
        plan.link_flap(
            n_hosts,
            sc.hosts_per_tor,
            100 * MICRO,
            150 * MICRO,
            500 * MICRO,
            2,
        );
    }
    if let Some(h) = sc.storm_host {
        let h = h % n_hosts;
        plan.pfc_storm(h, 200 * MICRO, 600 * MICRO);
    }
    if !plan.is_empty() {
        sim.install_fault_plan(&plan).unwrap();
    }
    for &(src, dst, bytes, start) in &sc.flows {
        let (src, dst) = (src % n_hosts, dst % n_hosts);
        if src != dst {
            sim.add_flow(src, dst, bytes, start);
        }
    }
    let mut out = Vec::new();
    // λ_MI-style cadence with a bounded horizon (stalled flows under a
    // permanent fault must not hang the test).
    for _ in 0..40 {
        sim.run_until(sim.now() + MILLI);
        out.push(sim.collect_interval());
        if sim.active_flows() == 0 && !sim.has_pending_events() {
            break;
        }
    }
    audit::set_enabled(true);
    out
}

/// Hosts are on the same egress-port model as switches, so the sweep's
/// queue-accounting and pause-budget checks cover NIC queues too. Three
/// senders into one receiver under their common ToR with a starved
/// buffer: every ingress queue that fills is host-facing, so every XOFF
/// pauses a *host's* NIC port, with data queued behind the pause while
/// ACKs and CNPs keep flowing through it.
#[test]
fn paused_host_nics_hold_every_invariant() {
    audit::reset();
    audit::set_panic_on_violation(false);
    audit::set_enabled(true);
    let topo = Topology::two_tier_clos(1, 4, 1, 100.0, 100.0, 1_000);
    let cfg = SimConfig {
        switch_buffer_bytes: 256 << 10,
        ..SimConfig::default()
    };
    let mut sim = Engine::new(topo, cfg, 1);
    for src in 0..3 {
        sim.add_flow(src, 3, 2_000_000, 0);
    }
    let (mut pfc_events, mut paused) = (0, 0.0);
    for _ in 0..40 {
        // Collect mid-pause: 100 µs intervals cut through open pauses.
        sim.run_until(sim.now() + 100 * MICRO);
        let m = sim.collect_interval();
        pfc_events += m.pfc_events;
        paused += m.pfc_pause_ratio;
    }
    assert!(
        pfc_events > 0 && paused > 0.0,
        "the incast must pause hosts"
    );
    assert_eq!(
        sim.total_drops(),
        0,
        "PFC keeps the starved buffer lossless"
    );
    assert_eq!(sim.take_completions().len(), 3);
    let violations = audit::violations();
    assert_eq!(
        audit::violation_count(),
        0,
        "invariant violations: {:?}",
        violations
            .iter()
            .map(|r| r.violation.to_string())
            .collect::<Vec<_>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator holds every audited invariant across randomized
    /// topologies, incast pressure, link flaps and PFC storms.
    #[test]
    fn randomized_scenarios_produce_zero_violations(sc in scenarios()) {
        audit::reset();
        audit::set_panic_on_violation(false);
        let intervals = run_scenario(&sc, true);
        prop_assert!(!intervals.is_empty());
        let violations = audit::violations();
        prop_assert_eq!(
            audit::violation_count(),
            0,
            "invariant violations: {:?}",
            violations.iter().map(|r| r.violation.to_string()).collect::<Vec<_>>()
        );
    }

    /// Auditing is observationally transparent: the same scenario run
    /// with checks on and off yields byte-identical metrics.
    #[test]
    fn audited_and_unaudited_runs_are_identical(sc in scenarios()) {
        audit::reset();
        audit::set_panic_on_violation(false);
        let on = run_scenario(&sc, true);
        let off = run_scenario(&sc, false);
        prop_assert_eq!(on.len(), off.len());
        for (a, b) in on.iter().zip(off.iter()) {
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
