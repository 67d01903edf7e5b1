//! The thread-local audit registry must not leak violations across
//! evaluations: `evaluate` resets it before each run and drains it
//! after, so back-to-back evaluations of the same point are
//! byte-identical even when something polluted the registry in between.

use paraleon_dcqcn::DcqcnParams;
use paraleon_hunt::{evaluate, EvalConfig, FlowSpec, HuntPoint, OracleConfig};
use paraleon_netsim::{ClosSpec, FaultPlan, TopoSpec, MILLI};

fn stormy_point() -> HuntPoint {
    let mut faults = FaultPlan::new(9);
    faults.pfc_storm(0, MILLI, 3 * MILLI);
    HuntPoint {
        topo: TopoSpec::TwoTier(ClosSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 1,
            host_gbps: 100.0,
            uplink_gbps: 100.0,
            delay_ns: 2_000,
        }),
        workload: vec![FlowSpec {
            src: 2,
            dst: 0,
            bytes: 500_000,
            start: 0,
            count: 4,
            gap: MILLI,
        }],
        collective: None,
        faults,
        params: DcqcnParams::nvidia_default(),
        seed: 9,
    }
}

#[test]
fn evaluations_do_not_leak_audit_state() {
    let cfg = EvalConfig {
        intervals: 6,
        lambda_mi: MILLI,
        event_budget: 50_000_000,
        tail: 3,
    };
    let oracles = OracleConfig::default();
    let a = evaluate(&cfg, &oracles, &stormy_point()).expect("evaluates");

    // Plant a synthetic violation between evaluations. evaluate() must
    // reset it away, not attribute it to the next run's report.
    paraleon_audit::set_panic_on_violation(false);
    paraleon_audit::report(paraleon_audit::AuditViolation::PoolAccounting {
        tracked_in_flight: 1,
        pool_in_flight: 0,
    });

    let b = evaluate(&cfg, &oracles, &stormy_point()).expect("evaluates");
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "a planted violation leaked into the second evaluation"
    );

    // evaluate() leaves the registry drained: nothing carries forward.
    let (count, reports) = paraleon_audit::drain();
    assert_eq!(count, 0, "registry not drained after evaluate()");
    assert!(reports.is_empty());
}

#[test]
fn drain_is_destructive() {
    paraleon_audit::set_panic_on_violation(false);
    paraleon_audit::reset();
    paraleon_audit::report(paraleon_audit::AuditViolation::PoolAccounting {
        tracked_in_flight: 2,
        pool_in_flight: 1,
    });
    let (first, _) = paraleon_audit::drain();
    let (second, reports) = paraleon_audit::drain();
    if paraleon_audit::compiled_in() {
        assert_eq!(first, 1);
    }
    assert_eq!(second, 0, "drain must empty the registry");
    assert!(reports.is_empty());
}
