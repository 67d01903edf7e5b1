//! End-to-end behavioural tests of the RoCEv2 fabric simulator.

use paraleon_dcqcn::DcqcnParams;
use paraleon_netsim::{Engine, SimConfig, Topology, MICRO, MILLI, SEC};

fn small_clos() -> Topology {
    // 2 ToRs × 4 hosts, 2 leaves, 100G everywhere, 1 µs links.
    Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000)
}

fn sim(topo: Topology) -> Engine {
    Engine::new(topo, SimConfig::default(), 1)
}

#[test]
fn single_flow_completes_with_sane_fct() {
    let mut s = sim(small_clos());
    let bytes = 1_250_000u64; // 100 µs of payload at 100 Gbps
    s.add_flow(0, 5, bytes, 0);
    s.run_until(10 * MILLI);
    let done = s.take_completions();
    assert_eq!(done.len(), 1);
    let r = done[0];
    assert_eq!(r.bytes, bytes);
    // Must take at least the line-rate serialization time and less than
    // 5x of it in an empty network.
    let ideal = (bytes as f64 / 12.5e9 * 1e9) as u64;
    assert!(r.fct() >= ideal, "fct {} < ideal {}", r.fct(), ideal);
    assert!(
        r.fct() < 5 * ideal,
        "fct {} way above ideal {}",
        r.fct(),
        ideal
    );
    assert_eq!(s.active_flows(), 0);
}

#[test]
fn intra_tor_beats_inter_tor_latency() {
    let mut s = sim(small_clos());
    s.add_flow(0, 1, 100_000, 0); // same ToR
    s.add_flow(2, 6, 100_000, 0); // across the fabric
    s.run_until(10 * MILLI);
    let done = s.take_completions();
    assert_eq!(done.len(), 2);
    let near = done.iter().find(|r| r.dst == 1).unwrap();
    let far = done.iter().find(|r| r.dst == 6).unwrap();
    assert!(near.fct() < far.fct());
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut s = sim(small_clos());
        for i in 0..6usize {
            s.add_flow(
                i,
                (i + 4) % 8,
                500_000 + i as u64 * 7_777,
                (i as u64) * 10 * MICRO,
            );
        }
        s.run_until(20 * MILLI);
        let mut f: Vec<_> = s.take_completions();
        f.sort_by_key(|r| r.flow);
        f
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must replay identically");
    assert_eq!(a.len(), 6);
}

#[test]
fn incast_triggers_ecn_and_cnps() {
    let mut s = sim(small_clos());
    // 7-to-1 incast into host 0: heavy congestion at its ToR down-port.
    for src in 1..8usize {
        s.add_flow(src, 0, 4_000_000, 0);
    }
    s.run_until(2 * MILLI);
    let m = s.collect_interval();
    assert!(m.ecn_marks > 0, "incast must mark packets");
    assert!(m.cnps > 0, "marked packets must produce CNPs");
    assert_eq!(m.drops, 0, "PFC must keep the fabric lossless");
    s.run_until(60 * MILLI);
    assert_eq!(s.take_completions().len(), 7, "all incast flows finish");
}

#[test]
fn dcqcn_throttles_senders_under_congestion() {
    let mut s = sim(small_clos());
    for src in 1..8usize {
        s.add_flow(src, 0, 8_000_000, 0);
    }
    // After a while, aggregate delivery rate ~ one line rate (the
    // bottleneck), not seven.
    s.run_until(2 * MILLI);
    s.collect_interval();
    s.run_until(4 * MILLI);
    let m = s.collect_interval();
    let goodput = m.goodput_bytes_per_sec();
    assert!(
        goodput < 1.3 * 12.5e9,
        "goodput {goodput:.3e} exceeds the single bottleneck link"
    );
    assert!(goodput > 0.3 * 12.5e9, "goodput {goodput:.3e} collapsed");
}

#[test]
fn severe_incast_triggers_pfc_but_no_drops() {
    // Tiny buffer to force PFC quickly.
    let cfg = SimConfig {
        switch_buffer_bytes: 256 * 1024,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    for src in 1..8usize {
        s.add_flow(src, 0, 2_000_000, 0);
    }
    s.run_until(5 * MILLI);
    let m = s.collect_interval();
    assert!(m.pfc_events > 0, "tiny buffers must trigger PFC");
    assert!(m.pfc_pause_ratio > 0.0);
    assert_eq!(s.total_drops(), 0, "PFC must prevent drops");
}

#[test]
fn uplink_utilization_reflects_load() {
    let mut s = sim(small_clos());
    s.add_flow(0, 5, 12_500_000, 0); // ~1 ms at line rate
    s.run_until(MILLI);
    let m = s.collect_interval();
    assert!(
        m.avg_uplink_utilization > 0.5,
        "one line-rate flow should drive its uplinks hard: {}",
        m.avg_uplink_utilization
    );
    // Idle interval afterwards.
    s.run_until(20 * MILLI);
    s.take_completions();
    s.collect_interval();
    s.run_until(21 * MILLI);
    let idle = s.collect_interval();
    assert_eq!(idle.avg_uplink_utilization, 0.0);
    assert_eq!(idle.bytes_delivered, 0);
}

#[test]
fn rtt_normalization_close_to_one_when_idle() {
    let mut s = sim(small_clos());
    s.add_flow(0, 5, 50_000, 0); // small flow, empty network
    s.run_until(MILLI);
    let m = s.collect_interval();
    assert!(
        m.avg_normalized_rtt > 0.6,
        "empty network should have near-base RTT, got {}",
        m.avg_normalized_rtt
    );
    assert!(m.avg_rtt_ns > 0.0);
}

#[test]
fn rtt_degrades_under_congestion() {
    let mut idle = sim(small_clos());
    idle.add_flow(0, 5, 100_000, 0);
    idle.run_until(MILLI);
    let idle_m = idle.collect_interval();

    let mut busy = sim(small_clos());
    for src in 1..8usize {
        busy.add_flow(src, 0, 8_000_000, 0);
    }
    busy.run_until(2 * MILLI);
    busy.collect_interval();
    busy.run_until(3 * MILLI);
    let busy_m = busy.collect_interval();
    assert!(
        busy_m.avg_normalized_rtt < idle_m.avg_normalized_rtt,
        "congestion should reduce normalized RTT: {} vs {}",
        busy_m.avg_normalized_rtt,
        idle_m.avg_normalized_rtt
    );
}

#[test]
fn tor_sketches_capture_flows_with_tos_dedup() {
    let cfg = SimConfig {
        tos_dedup: true,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    s.add_flow(0, 6, 2_000_000, 0); // crosses two ToRs
    s.run_until(MILLI);
    let m = s.collect_interval();
    let total_sketched: u64 = m
        .tor_sketches
        .iter()
        .flat_map(|(_, e)| e.iter().map(|(_, b)| *b))
        .sum();
    // With dedup, the flow is counted once network-wide; bytes recorded
    // must not exceed what was actually injected (payload bytes).
    assert!(total_sketched > 0);
    assert!(
        total_sketched <= m.bytes_delivered + 200_000,
        "dedup must prevent double counting: {total_sketched}"
    );
}

#[test]
fn disabling_tos_dedup_double_counts_across_tors() {
    let run = |dedup: bool| {
        let cfg = SimConfig {
            tos_dedup: dedup,
            ..SimConfig::default()
        };
        let mut s = Engine::new(small_clos(), cfg, 1);
        s.add_flow(0, 6, 2_000_000, 0); // crosses both ToRs
        s.run_until(4 * MILLI);
        let m = s.collect_interval();
        m.tor_sketches
            .iter()
            .flat_map(|(_, e)| e.iter().map(|(_, b)| *b))
            .sum::<u64>()
    };
    let deduped = run(true);
    let naive = run(false);
    assert!(
        naive as f64 > 1.8 * deduped as f64,
        "naive sketching should double-count: {naive} vs {deduped}"
    );
}

#[test]
fn ground_truth_tracks_injected_bytes() {
    let cfg = SimConfig {
        track_ground_truth: true,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    let f = s.add_flow(0, 5, 300_000, 0);
    s.run_until(5 * MILLI);
    let m = s.collect_interval();
    let truth: u64 = m
        .truth_flow_bytes
        .iter()
        .filter(|(id, _)| *id == f)
        .map(|(_, b)| *b)
        .sum();
    assert_eq!(truth, 300_000);
}

#[test]
fn live_param_update_applies_to_running_flows() {
    let mut s = sim(small_clos());
    for src in 1..8usize {
        s.add_flow(src, 0, 16_000_000, 0);
    }
    s.run_until(2 * MILLI);
    // Make marking maximally aggressive: Kmin/Kmax tiny → every packet
    // marked; CNP rate should jump.
    let mut p = DcqcnParams::nvidia_default();
    p.k_min = 1.0;
    p.k_max = 2.0;
    p.p_max = 1.0;
    p.min_time_between_cnps = 0.0;
    s.set_dcqcn_params(&p);
    s.collect_interval();
    s.run_until(3 * MILLI);
    let aggressive = s.collect_interval();
    assert!(aggressive.ecn_marks > 0);
    // And rate collapse follows: goodput well below bottleneck.
    s.run_until(5 * MILLI);
    let after = s.collect_interval();
    assert!(
        after.goodput_bytes_per_sec() < 0.8 * 12.5e9,
        "constant marking should depress throughput, got {:.3e}",
        after.goodput_bytes_per_sec()
    );
}

#[test]
fn expert_params_beat_default_for_alltoall_elephants() {
    // Mirrors Table II's direction: the expert setting (higher ECN
    // thresholds, gentler CNPs) should finish a synchronized alltoall of
    // elephants no slower than the conservative default.
    let run = |params: DcqcnParams| {
        let cfg = SimConfig {
            dcqcn: params,
            ..SimConfig::default()
        };
        let mut s = Engine::new(small_clos(), cfg, 1);
        for i in 0..8usize {
            for j in 0..8usize {
                if i != j {
                    s.add_flow(i, j, 1_000_000, 0);
                }
            }
        }
        s.run_until(SEC);
        let done = s.take_completions();
        assert_eq!(done.len(), 56);
        done.iter().map(|r| r.finish).max().unwrap()
    };
    let default_t = run(DcqcnParams::nvidia_default());
    let expert_t = run(DcqcnParams::expert());
    assert!(
        (expert_t as f64) < 1.1 * default_t as f64,
        "expert {expert_t} vs default {default_t}"
    );
}

#[test]
fn completions_only_reported_once() {
    let mut s = sim(small_clos());
    s.add_flow(0, 1, 10_000, 0);
    s.run_until(MILLI);
    assert_eq!(s.take_completions().len(), 1);
    assert!(s.take_completions().is_empty());
    s.run_until(2 * MILLI);
    assert!(s.take_completions().is_empty());
}

#[test]
fn many_small_flows_all_finish() {
    let mut s = sim(small_clos());
    let mut n = 0;
    for i in 0..50u64 {
        let src = (i % 8) as usize;
        let dst = ((i + 3) % 8) as usize;
        if src != dst {
            s.add_flow(src, dst, 20_000 + 100 * i, i * 20 * MICRO);
            n += 1;
        }
    }
    s.run_until(SEC);
    assert_eq!(s.take_completions().len(), n);
    assert_eq!(s.active_flows(), 0);
}

#[test]
fn dcqcn_plus_mode_runs_and_completes() {
    let cfg = SimConfig {
        dcqcn_plus: true,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    for src in 1..8usize {
        s.add_flow(src, 0, 2_000_000, 0);
    }
    s.run_until(100 * MILLI);
    assert_eq!(s.take_completions().len(), 7);
}
