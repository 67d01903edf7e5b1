//! Failure-injection tests: behaviour when the lossless assumptions are
//! deliberately broken, and PFC side effects the paper's motivation
//! section describes (head-of-line blocking, pause propagation).

use paraleon_netsim::{Engine, SimConfig, Topology, MICRO, MILLI, SEC};

fn small_clos() -> Topology {
    Topology::two_tier_clos(2, 4, 2, 100.0, 100.0, 1_000)
}

#[test]
fn drops_occur_without_pfc_and_flows_still_complete() {
    // Neuter PFC (threshold far above the buffer) and shrink the buffer:
    // the incast must now overflow and drop, and go-back-N recovery must
    // still complete every flow.
    let cfg = SimConfig {
        pfc_alpha: 1e9, // never pause
        switch_buffer_bytes: 64 * 1024,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    for src in 1..8usize {
        s.add_flow(src, 0, 1_000_000, 0);
    }
    s.run_until(5 * SEC);
    assert!(s.total_drops() > 0, "tiny buffer without PFC must drop");
    assert_eq!(
        s.take_completions().len(),
        7,
        "retransmission must recover every flow despite drops"
    );
    assert_eq!(s.active_flows(), 0);
}

#[test]
fn pfc_prevents_the_drops_the_previous_test_forced() {
    // Same incast with PFC restored and a buffer large enough to absorb
    // the in-flight data per paused port (PFC needs headroom: at 100 G
    // and 1 us links, ~25 KB per upstream port is already committed when
    // the XOFF lands): zero drops.
    let cfg = SimConfig {
        switch_buffer_bytes: 256 * 1024,
        pfc_alpha: 1.0 / 8.0,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    for src in 1..8usize {
        s.add_flow(src, 0, 1_000_000, 0);
    }
    s.run_until(5 * SEC);
    assert_eq!(s.total_drops(), 0);
    assert!(s.total_pfc_events() > 0, "PFC must have intervened");
    assert_eq!(s.take_completions().len(), 7);
}

#[test]
fn pfc_head_of_line_blocking_hurts_innocent_flows() {
    // The paper's §II motivation: PFC pauses an entire upstream port, so
    // a victim flow sharing that port with an incast suffers even though
    // its own path is uncongested. Compare the victim's FCT with and
    // without the incast; under a tiny buffer the gap must be large.
    let victim_fct = |with_incast: bool| {
        let cfg = SimConfig {
            switch_buffer_bytes: 128 * 1024, // aggressive pausing
            ..SimConfig::default()
        };
        let mut s = Engine::new(small_clos(), cfg, 1);
        // Victim: host 1 -> host 5 (cross-ToR, shares ToR0 uplinks).
        s.add_flow(1, 5, 2_000_000, 0);
        if with_incast {
            // Incast onto host 4 from ToR0 hosts: enough flows that both
            // ECMP leaves carry incast traffic, so the victim cannot dodge
            // the pause wave. Pauses propagate ToR1 -> leaves -> ToR0.
            for k in 0..8usize {
                let src = [0usize, 2, 3][k % 3];
                s.add_flow(src, 4, 2_000_000, 0);
            }
        }
        s.run_until(5 * SEC);
        s.take_completions()
            .iter()
            .find(|r| r.dst == 5)
            .expect("victim finishes")
            .fct()
    };
    let clean = victim_fct(false);
    let blocked = victim_fct(true);
    assert!(
        blocked > clean * 2,
        "HOL blocking should inflate the victim's FCT: {clean} -> {blocked}"
    );
}

#[test]
fn control_traffic_is_never_pfc_blocked() {
    // CNPs/ACKs ride the control class: even under heavy data-class
    // pausing the congestion feedback loop keeps working, so senders
    // keep cutting rates (CNPs delivered) rather than stalling silently.
    let cfg = SimConfig {
        switch_buffer_bytes: 128 * 1024,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    for src in 1..8usize {
        s.add_flow(src, 0, 2_000_000, 0);
    }
    s.run_until(3 * MILLI);
    let m = s.collect_interval();
    assert!(m.pfc_events > 0, "the scenario must pause");
    assert!(m.cnps > 0, "CNPs must flow despite data-class pauses");
}

#[test]
fn pause_accounting_is_bounded_by_interval() {
    let cfg = SimConfig {
        switch_buffer_bytes: 96 * 1024,
        ..SimConfig::default()
    };
    let mut s = Engine::new(small_clos(), cfg, 1);
    for src in 1..8usize {
        s.add_flow(src, 0, 8_000_000, 0);
    }
    for _ in 0..20 {
        s.run_until(s.now() + 500 * MICRO);
        let m = s.collect_interval();
        assert!(
            (0.0..=1.0).contains(&m.pfc_pause_ratio),
            "pause ratio {} out of range",
            m.pfc_pause_ratio
        );
    }
}

#[test]
fn rto_sweep_recovers_from_drops_at_any_timeout() {
    for rto_us in [200u64, 1_000, 5_000] {
        let cfg = SimConfig {
            pfc_alpha: 1e9,
            switch_buffer_bytes: 48 * 1024,
            rto: rto_us * MICRO,
            ..SimConfig::default()
        };
        let mut s = Engine::new(small_clos(), cfg, 1);
        for src in 1..6usize {
            s.add_flow(src, 0, 500_000, 0);
        }
        s.run_until(10 * SEC);
        assert_eq!(
            s.take_completions().len(),
            5,
            "rto={rto_us}us must still recover all flows"
        );
    }
}
