//! Property tests for the fleet service's two anchor guarantees:
//! snapshot round-trips are identities, and the scheduler's results are
//! invariant to the thread count ticks fan out on.

use paraleon::prelude::*;
use paraleon_fleet::{FleetConfig, FleetService, TenantSpec};
use proptest::prelude::*;

/// A small heterogeneous tenant: topology family, scheme and workload
/// all vary with the generated parameters.
fn tenant_spec(family: u8, seed: u64, load_flows: u64) -> TenantSpec {
    let topo = match family % 3 {
        0 => TopoSpec::TwoTier(ClosSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 1,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_000,
        }),
        1 => TopoSpec::Rail(RailSpec {
            n_rail: 2,
            n_server: 2,
            n_spine: 1,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_500,
        }),
        _ => TopoSpec::MixedRate(MixedRateSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 2,
            host_gbps: 25.0,
            fast_gbps: 50.0,
            slow_gbps: 25.0,
            delay_ns: 1_000,
        }),
    };
    let mut spec = TenantSpec::new(topo);
    spec.seed = seed;
    spec.scheme = if family.is_multiple_of(2) {
        SchemeKind::Paraleon
    } else {
        SchemeKind::Expert
    };
    spec.schedule = (0..load_flows)
        .map(|i| FlowRequest {
            src: (i % 4) as usize,
            dst: ((i + 2) % 4) as usize,
            bytes: if i % 4 == 0 { 1_500_000 } else { 30_000 },
            start: i * MILLI / 3,
        })
        .collect();
    spec
}

fn fleet_with(specs: &[TenantSpec], threads: usize) -> FleetService {
    let mut fleet = FleetService::new(FleetConfig { threads });
    for s in specs {
        fleet.admit(s.clone());
    }
    fleet
}

fn specs_strategy() -> impl Strategy<Value = Vec<TenantSpec>> {
    proptest::collection::vec((0u8..6, 1u64..1_000, 6u64..18), 2..4).prop_map(|params| {
        params
            .into_iter()
            .map(|(family, seed, flows)| tenant_spec(family, seed, flows))
            .collect()
    })
}

fn assert_fleets_identical(a: &FleetService, b: &FleetService) {
    assert_eq!(a.n_tenants(), b.n_tenants());
    for (x, y) in a.tenants().iter().zip(b.tenants()) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.cell.history, y.cell.history, "tenant {} history", x.id);
        assert_eq!(x.cell.last_params, y.cell.last_params, "tenant {}", x.id);
        assert_eq!(x.completions, y.completions, "tenant {} completions", x.id);
    }
    assert_eq!(a.stats(), b.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Snapshot + immediate restore is an identity: the restored fleet's
    /// continuation is bit-identical to a fleet that never snapshotted.
    #[test]
    fn snapshot_round_trip_is_identity(
        specs in specs_strategy(),
        before in 2u64..8,
        after in 2u64..8,
    ) {
        let mut fleet = fleet_with(&specs, 1);
        let mut control = fleet_with(&specs, 1);
        fleet.run(before);
        control.run(before);
        let snap = fleet.snapshot().expect("always Some");
        fleet.restore(&snap).unwrap();
        fleet.run(after);
        control.run(after);
        assert_fleets_identical(&fleet, &control);
    }

    /// The scheduler's results are invariant to its thread count:
    /// `threads: N` is byte-identical to `threads: 1`.
    #[test]
    fn scheduler_is_thread_count_invariant(
        specs in specs_strategy(),
        threads in 2usize..5,
        ticks in 4u64..10,
    ) {
        let mut serial = fleet_with(&specs, 1);
        let mut threaded = fleet_with(&specs, threads);
        serial.run(ticks);
        threaded.run(ticks);
        assert_fleets_identical(&serial, &threaded);
        // One controller turn per tenant per tick.
        for t in serial.tenants() {
            prop_assert_eq!(t.cell.history.len() as u64, ticks, "tenant {}", t.id);
        }
    }
}

/// Crash-restoring mid-run re-converges every tenant: once the resync
/// conversations go quiet, no fabric disagrees with its controller's
/// believed parameters.
#[test]
fn crash_restore_reconverges_a_heterogeneous_fleet() {
    let specs: Vec<TenantSpec> = (0..3u8)
        .map(|f| tenant_spec(f, 90 + f as u64, 14))
        .collect();
    let mut fleet = fleet_with(&specs, 1);
    fleet.run(8);
    let snap = fleet.snapshot().unwrap();
    fleet.run(4);
    fleet.crash_restore(&snap).unwrap();
    let mut extra = 0;
    while fleet.tenants().iter().any(|t| !t.cell.ctrl_quiet()) && extra < 30 {
        fleet.tick();
        extra += 1;
    }
    for t in fleet.tenants() {
        assert!(t.cell.ctrl_quiet(), "tenant {} never went quiet", t.id);
        assert!(
            !t.cell.ctrl_diverged(&t.sim),
            "tenant {} diverged after crash restore",
            t.id
        );
    }
}
