//! Property tests over the control-plane survival protocol: dispatch
//! ordering and the crash-restore checkpoint.
//!
//! Two families, matching the two guarantees the hardened loop makes:
//!
//! * **Epoch monotonicity** — for *any* delivery order of a set of
//!   epoch-stamped dispatches, with arbitrary duplication, the fabric
//!   ends on the highest-epoch parameters, never applies an epoch out
//!   of order, and treats replays as no-ops. The naive fabric under the
//!   same delivery ends wherever the channel happened to put it — the
//!   contrast the `exp ctrl_faults` gate measures end to end.
//! * **Checkpoint fidelity** — a checkpoint is a clone, and assigning
//!   it back round-trips controller state byte-identically from an
//!   arbitrary mid-run point: the protocol state (merger, epoch counter,
//!   in-flight dispatch) in `CtrlPlane::state`, and the tuner/guardrail
//!   halves behaviorally (a restored replica emits exactly the actions
//!   the original would).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use paraleon::{CtrlPlane, CtrlPlaneConfig, DownMsg, Guardrail, GuardrailConfig};
use paraleon_dcqcn::DcqcnParams;
use paraleon_monitor::{FsdUpload, MetricSample, StalenessMerger};
use paraleon_sketch::{FlowType, FsdBuilder};
use paraleon_tuner::{
    Observation, ParaleonScheme, ParaleonSchemeConfig, TuningAction, TuningScheme,
};

/// A recognizably distinct parameter set per epoch (the fabric does not
/// validate, so any payload works; distinct `ai_rate`s make the final
/// applied setting identify the epoch that produced it).
fn params_for_epoch(epoch: u64) -> DcqcnParams {
    let mut p = DcqcnParams::nvidia_default();
    p.ai_rate = 1.0 + epoch as f64;
    p
}

fn dispatch(epoch: u64) -> DownMsg {
    DownMsg::Dispatch {
        epoch,
        action: TuningAction::Global(params_for_epoch(epoch)),
    }
}

/// A delivery schedule over epochs `1..=n`: every epoch at least once,
/// plus arbitrary duplicates, in an arbitrary (seeded-shuffle) order.
fn delivery_orders() -> impl Strategy<Value = (u64, Vec<u64>)> {
    (
        2u64..8,
        prop::collection::vec(0u64..100, 0..12),
        any::<u64>(),
    )
        .prop_map(|(n, extras, shuffle_seed)| {
            let mut epochs: Vec<u64> = (1..=n).collect();
            epochs.extend(extras.into_iter().map(|e| 1 + e % n));
            let mut rng = StdRng::seed_from_u64(shuffle_seed);
            for i in (1..epochs.len()).rev() {
                let j = rng.gen_range(0..=i);
                epochs.swap(i, j);
            }
            (n, epochs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation-with-duplicates of epoch-stamped dispatches
    /// converges the hardened fabric to the highest-epoch params, and
    /// the applied sequence is strictly epoch-increasing (a reordered or
    /// duplicated dispatch can never roll the fabric back).
    #[test]
    fn any_delivery_order_converges_to_the_highest_epoch((n, order) in delivery_orders()) {
        let mut fabric = CtrlPlane::new(CtrlPlaneConfig::default(), 0).fabric;
        let mut applied = Vec::new();
        for &epoch in &order {
            let before = fabric.epoch();
            let (action, acked) = fabric.on_dispatch(dispatch(epoch));
            prop_assert!(acked >= before, "ACKed epoch went backwards");
            if let Some(a) = action {
                prop_assert!(
                    epoch > before,
                    "applied epoch {epoch} over fabric epoch {before}"
                );
                applied.push((epoch, a));
            }
        }
        prop_assert_eq!(fabric.epoch(), n, "fabric must end on the max epoch");
        let epochs: Vec<u64> = applied.iter().map(|(e, _)| *e).collect();
        prop_assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "applied epochs not strictly increasing: {:?}",
            epochs
        );
        let (last_epoch, last_action) = applied.last().expect("epoch 1..=n always applies once");
        prop_assert_eq!(*last_epoch, n);
        prop_assert_eq!(
            last_action,
            &TuningAction::Global(params_for_epoch(n)),
            "final applied params must be the highest epoch's"
        );
        // Replaying the entire delivery is a no-op: every epoch is now
        // stale, so nothing further applies.
        for &epoch in &order {
            let (action, acked) = fabric.on_dispatch(dispatch(epoch));
            prop_assert!(action.is_none(), "replayed dispatch re-applied");
            prop_assert_eq!(acked, n);
        }
    }

    /// The naive fabric under the same schedule ends on whatever the
    /// channel delivered last — order-dependent state, which is exactly
    /// the divergence the epoch protocol exists to rule out.
    #[test]
    fn naive_fabric_ends_wherever_delivery_put_it((_n, order) in delivery_orders()) {
        let naive_cfg = CtrlPlaneConfig { naive: true };
        let mut fabric = CtrlPlane::new(naive_cfg, 0).fabric;
        let mut last = None;
        for &epoch in &order {
            let (action, _) = fabric.on_dispatch(dispatch(epoch));
            prop_assert!(action.is_some(), "naive fabric must apply every delivery");
            last = action;
        }
        let tail = *order.last().expect("non-empty schedule");
        prop_assert_eq!(last, Some(TuningAction::Global(params_for_epoch(tail))));
    }
}

/// One controller-side protocol operation for the round-trip driver.
#[derive(Debug, Clone)]
enum CtrlOp {
    /// `send_dispatch` of a fresh epoch.
    Send,
    /// Deliver an ACK for `pending epoch − lag` (lag 0 completes it).
    Ack { lag: u64 },
    /// `check_retry` after letting `skip` intervals elapse.
    Retry { skip: u64 },
    /// Ingest one upload into the merger.
    Ingest { point: u8, seq: u64, age: u64 },
    /// Compute the network FSD (mutates staleness bookkeeping).
    Merge,
}

fn ctrl_ops() -> impl Strategy<Value = Vec<CtrlOp>> {
    let op = prop_oneof![
        Just(CtrlOp::Send),
        (0u64..3).prop_map(|lag| CtrlOp::Ack { lag }),
        (0u64..10).prop_map(|skip| CtrlOp::Retry { skip }),
        (0u8..4, 0u64..16, 0u64..6).prop_map(|(point, seq, age)| CtrlOp::Ingest {
            point,
            seq,
            age
        }),
        Just(CtrlOp::Merge),
    ];
    prop::collection::vec(op, 0..24)
}

fn upload(point: u8, seq: u64, interval: u64) -> FsdUpload {
    let mut b = FsdBuilder::new();
    b.add_flow(1_000 + 1_000 * seq, 1.0);
    FsdUpload {
        point: point as usize,
        seq,
        interval,
        fsd: b.build(),
    }
}

/// Drive `plane` through `ops`, advancing a deterministic clock.
fn drive_ctrl(plane: &mut CtrlPlane, ops: &[CtrlOp], mut now: u64) -> u64 {
    for op in ops {
        now += 1;
        match op {
            CtrlOp::Send => {
                plane.send_dispatch(
                    now,
                    TuningAction::Global(params_for_epoch(plane.next_epoch())),
                );
            }
            CtrlOp::Ack { lag } => {
                let acked = plane.next_epoch().saturating_sub(1 + lag);
                plane.on_ack(now, acked);
            }
            CtrlOp::Retry { skip } => {
                now += skip;
                plane.check_retry(now);
            }
            CtrlOp::Ingest { point, seq, age } => {
                plane
                    .state
                    .merger
                    .ingest(upload(*point, *seq, now.saturating_sub(*age)));
            }
            CtrlOp::Merge => {
                plane.state.merger.network_fsd(now);
            }
        }
    }
    now
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clone `CtrlPlane::state` at an arbitrary mid-run point, then
    /// assign it back — into the same plane after further divergence,
    /// and into a fresh plane built from a different seed — and the
    /// checkpoint is reproduced byte-identically (the clone fully
    /// determines the restored controller state; nothing leaks in from
    /// the live plane).
    #[test]
    fn ctrl_snapshot_restore_round_trips_mid_run(
        prefix in ctrl_ops(),
        suffix in ctrl_ops(),
        seed in 0u64..1 << 32,
    ) {
        let cfg = CtrlPlaneConfig::default();
        let mut plane = CtrlPlane::new(cfg.clone(), seed);
        let now = drive_ctrl(&mut plane, &prefix, 0);
        let snap = plane.state.clone();
        let want = format!("{snap:?}");

        // Diverge, then restore: the checkpoint must win completely.
        drive_ctrl(&mut plane, &suffix, now);
        plane.state = snap.clone();
        prop_assert_eq!(&format!("{:?}", plane.state), &want);

        // A cold replica with a different RNG lane restores to the same
        // bytes: the snapshot is self-contained.
        let mut replica = CtrlPlane::new(cfg, seed ^ 0xDEAD_BEEF);
        drive_ctrl(&mut replica, &suffix, 0);
        replica.state = snap;
        prop_assert_eq!(&format!("{:?}", replica.state), &want);
    }

    /// The merger half on its own: its serialized form survives a JSON
    /// text round-trip byte-identically for any reachable state, so a
    /// checkpoint written through it can be read back without drift.
    #[test]
    fn merger_state_survives_serialization(ops in ctrl_ops()) {
        let mut m = StalenessMerger::default();
        let mut now = 0u64;
        for op in &ops {
            // Two intervals per op: 24 ops span past the merger's
            // 32-interval staleness horizon, so points can age out.
            now += 2;
            match op {
                CtrlOp::Ingest { point, seq, age } => {
                    m.ingest(upload(*point, *seq, now.saturating_sub(*age)));
                }
                CtrlOp::Merge => {
                    m.network_fsd(now);
                }
                _ => {}
            }
        }
        let text = serde_json::to_string(&m).expect("merger serializes");
        let parsed = serde_json::from_str_value(&text).expect("merger text parses");
        let text2 = serde_json::to_string(&parsed).expect("re-serializes");
        prop_assert_eq!(text2, text, "round-trip must be byte-identical");
    }
}

/// Observation with the given utility (mirrors the tuner's test rig).
fn obs(now: u64, utility: f64, triggered: bool) -> Observation {
    Observation {
        now,
        utility,
        sample: MetricSample::new(utility, utility, 1.0),
        dominant: FlowType::Elephant,
        mu: 0.8,
        tuning_triggered: triggered,
        switch_obs: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tuner checkpoint fidelity: overwrite a *fresh* scheme (different
    /// seed, different live state) with a mid-episode clone, then
    /// feed both the same observation stream — every subsequent action
    /// must be identical. This is the warm-restart guarantee: a crashed
    /// controller resumes its SA episode exactly where the checkpoint
    /// left it.
    #[test]
    fn tuner_snapshot_restore_resumes_the_episode_exactly(
        seed in 0u64..1 << 32,
        warmup in prop::collection::vec(0.0f64..1.0, 1..12),
        replay in prop::collection::vec(0.0f64..1.0, 1..12),
    ) {
        let mut original = ParaleonScheme::new(ParaleonSchemeConfig {
            seed,
            ..ParaleonSchemeConfig::default()
        });
        // Trigger an episode, then run a random stretch of it.
        original.on_interval(&obs(0, 0.4, true));
        for (i, &u) in warmup.iter().enumerate() {
            original.on_interval(&obs(1 + i as u64, u, false));
        }
        let snap = original.clone();

        let mut restored = ParaleonScheme::new(ParaleonSchemeConfig {
            seed: seed ^ 0x5EED,
            ..ParaleonSchemeConfig::default()
        });
        // Pollute the replica's live state before restoring over it.
        restored.on_interval(&obs(0, 0.9, true));
        restored = snap;

        let t0 = 1 + warmup.len() as u64;
        for (i, &u) in replay.iter().enumerate() {
            let o = obs(t0 + i as u64, u, false);
            prop_assert_eq!(
                original.on_interval(&o),
                restored.on_interval(&o),
                "restored tuner diverged at replay step {}",
                i
            );
        }
    }

    /// Guardrail checkpoint fidelity: the loop snapshot carries the
    /// guardrail by clone, so a restored guardrail must mirror the
    /// original's verdicts over any shared observation stream.
    #[test]
    fn guardrail_snapshot_restore_mirrors_verdicts(
        warmup in prop::collection::vec((0.0f64..1.0, 0.0f64..0.6), 0..16),
        replay in prop::collection::vec((0.0f64..1.0, 0.0f64..0.6), 1..16),
    ) {
        let reporting = [0usize, 1];
        let mut original = Guardrail::new(GuardrailConfig::default(), DcqcnParams::nvidia_default());
        for &(u, pause) in &warmup {
            original.observe(u, 1e9 * u, pause, &reporting);
        }
        // The loop checkpoint snapshots the guardrail as a deep copy.
        let mut restored = original.clone();
        for (i, &(u, pause)) in replay.iter().enumerate() {
            prop_assert_eq!(
                original.observe(u, 1e9 * u, pause, &reporting),
                restored.observe(u, 1e9 * u, pause, &reporting),
                "restored guardrail diverged at replay step {}",
                i
            );
        }
    }
}
