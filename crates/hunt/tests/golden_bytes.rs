//! The exact JSON text of every document shape a corpus case carries
//! that the committed corpus does not cover on its own: one value of
//! every `FaultKind` variant, every `TopoSpec` family, and an
//! `OracleReport` with and without its control-plane measure. The
//! corpus exercises only `CtrlImpair` and `two_tier`, so without this a
//! (de)serialiser could reorder the other variants' fields unseen.

use serde::Deserialize;

use paraleon_hunt::{CtrlMeasure, OracleKind, OracleOutcome, OracleReport};
use paraleon_netsim::{ClosSpec, FaultKind, MixedRateSpec, RailSpec, ThreeTierSpec, TopoSpec};

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn clos() -> ClosSpec {
    ClosSpec {
        n_tor: 2,
        hosts_per_tor: 4,
        n_leaf: 2,
        host_gbps: 100.0,
        uplink_gbps: 400.0,
        delay_ns: 1_000,
    }
}

fn report(ctrl: Option<CtrlMeasure>) -> OracleReport {
    OracleReport {
        outcomes: vec![OracleOutcome {
            kind: OracleKind::PfcStorm,
            fired: true,
            score: 0.75,
        }],
        tail_goodput_gbps: 12.5,
        twin_tail_goodput_gbps: 50.0,
        collapse_ratio: 0.25,
        peak_pause_window: 0.5,
        jain_tail: 1.0,
        starved_flows: 0,
        eligible_flows: 3,
        audit_violations: 0,
        events_processed: 123_456,
        aborted_early: false,
        intervals_run: 20,
        ctrl,
    }
}

#[test]
fn every_fault_kind_keeps_its_bytes_and_reads_back() {
    let pinned = [
        (FaultKind::LinkDown, r#"{"kind":"LinkDown"}"#),
        (FaultKind::LinkUp, r#"{"kind":"LinkUp"}"#),
        (
            FaultKind::Degrade { factor: 0.5 },
            r#"{"kind":"Degrade","factor":0.5}"#,
        ),
        (
            FaultKind::PktLoss { drop_prob: 0.25 },
            r#"{"kind":"PktLoss","drop_prob":0.25}"#,
        ),
        (FaultKind::PfcStormStart, r#"{"kind":"PfcStormStart"}"#),
        (FaultKind::PfcStormEnd, r#"{"kind":"PfcStormEnd"}"#),
        (
            FaultKind::CtrlImpair {
                up: true,
                down: false,
                loss: 0.1,
                delay_max: 3,
                dup: 0.05,
            },
            r#"{"kind":"CtrlImpair","up":true,"down":false,"loss":0.1,"delay_max":3,"dup":0.05}"#,
        ),
        (
            FaultKind::CtrlCrash { warm: true },
            r#"{"kind":"CtrlCrash","warm":true}"#,
        ),
    ];
    for (kind, text) in pinned {
        assert_eq!(json(&kind), text);
        let back = FaultKind::from_value(&serde_json::from_str_value(text).unwrap());
        assert_eq!(back, Ok(kind), "{text}");
    }
}

#[test]
fn every_topology_family_keeps_its_bytes_and_reads_back() {
    let pinned = [
        (
            TopoSpec::TwoTier(clos()),
            r#"{"family":"two_tier","n_tor":2,"hosts_per_tor":4,"n_leaf":2,"host_gbps":100.0,"uplink_gbps":400.0,"delay_ns":1000}"#,
        ),
        (
            TopoSpec::ThreeTier(ThreeTierSpec {
                n_pod: 2,
                tors_per_pod: 2,
                hosts_per_tor: 2,
                aggs_per_pod: 2,
                spines_per_agg: 1,
                host_gbps: 100.0,
                agg_gbps: 100.0,
                spine_gbps: 200.0,
                delay_ns: 500,
            }),
            r#"{"family":"three_tier","n_pod":2,"tors_per_pod":2,"hosts_per_tor":2,"aggs_per_pod":2,"spines_per_agg":1,"host_gbps":100.0,"agg_gbps":100.0,"spine_gbps":200.0,"delay_ns":500}"#,
        ),
        (
            TopoSpec::Rail(RailSpec {
                n_rail: 4,
                n_server: 2,
                n_spine: 2,
                host_gbps: 200.0,
                uplink_gbps: 400.0,
                delay_ns: 1_000,
            }),
            r#"{"family":"rail","n_rail":4,"n_server":2,"n_spine":2,"host_gbps":200.0,"uplink_gbps":400.0,"delay_ns":1000}"#,
        ),
        (
            TopoSpec::MixedRate(MixedRateSpec {
                n_tor: 2,
                hosts_per_tor: 2,
                n_leaf: 2,
                host_gbps: 100.0,
                fast_gbps: 400.0,
                slow_gbps: 100.0,
                delay_ns: 1_000,
            }),
            r#"{"family":"mixed_rate","n_tor":2,"hosts_per_tor":2,"n_leaf":2,"host_gbps":100.0,"fast_gbps":400.0,"slow_gbps":100.0,"delay_ns":1000}"#,
        ),
    ];
    for (spec, text) in pinned {
        assert_eq!(json(&spec), text);
        let back = TopoSpec::from_value(&serde_json::from_str_value(text).unwrap());
        assert_eq!(back, Ok(spec), "{text}");
    }
}

#[test]
fn oracle_report_omits_an_absent_ctrl() {
    let head = r#"{"outcomes":[{"kind":"PfcStorm","fired":true,"score":0.75}],"tail_goodput_gbps":12.5,"twin_tail_goodput_gbps":50.0,"collapse_ratio":0.25,"peak_pause_window":0.5,"jain_tail":1.0,"starved_flows":0,"eligible_flows":3,"audit_violations":0,"events_processed":123456,"aborted_early":false,"intervals_run":20"#;
    assert_eq!(json(&report(None)), format!("{head}}}"));
    let ctrl = CtrlMeasure {
        hardened_converged: true,
        naive_converged: false,
        msgs_lost: 7,
        retries: 2,
        crashes: 1,
        loss_ratio: 0.125,
    };
    let tail = r#""ctrl":{"hardened_converged":true,"naive_converged":false,"msgs_lost":7,"retries":2,"crashes":1,"loss_ratio":0.125}}"#;
    assert_eq!(json(&report(Some(ctrl))), format!("{head},{tail}"));
}
