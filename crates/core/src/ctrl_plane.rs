//! Control-plane survival machinery: the message types that ride the
//! impaired [`CtrlChannel`] lanes, the fabric-side endpoint that applies
//! parameter dispatches idempotently and monotonically, and the
//! controller-side epoch/ACK/retry state machine.
//!
//! A monitor→tuner→dispatch round trip that assumes a perfect control
//! network — every FSD upload arrives, every dispatch applies, the
//! controller process never dies — describes no production fabric. So
//! the loop never assumes it: every [`crate::TunerCell`] owns a
//! [`CtrlPlane`], both directions of the control traffic always cross
//! its seeded, impairable channels, and [`CtrlPlaneConfig`] only
//! selects the `naive` strawman:
//!
//! * **Uploads** ([`UpMsg::Fsd`]) are sequence-numbered per monitoring
//!   point; the controller folds whatever arrives into a
//!   [`StalenessMerger`], which rejects stale duplicates and
//!   down-weights aging points instead of stalling on loss.
//! * **Dispatches** ([`DownMsg::Dispatch`]) carry a monotonically
//!   increasing epoch. The fabric applies an epoch at most once and
//!   never moves backwards, so duplicated or reordered dispatches are
//!   harmless, and always ACKs its current epoch. The controller keeps
//!   one in-flight dispatch and re-sends it on ACK timeout with
//!   exponential backoff and seeded jitter.
//! * **Crashes** are handled by [`crate::TunerCell`] itself (it owns
//!   the tuner and guardrail state being checkpointed); the
//!   [`CtrlSnapshot`] here covers the controller half of the protocol
//!   state so a restore resumes mid-conversation.
//!
//! With a clean channel (no impairments scheduled) messages deliver
//! with zero delay in send order, the merger's age-0 merge is the plain
//! central merge, and no retry or jitter randomness is ever drawn.

use paraleon_monitor::{FsdUpload, StalenessMerger};
use paraleon_netsim::fasthash::mix64;
use paraleon_netsim::{CtrlChannel, CtrlChannelStats};
use paraleon_tuner::TuningAction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Intervals the controller waits for an ACK before re-sending the
/// in-flight dispatch (also the initial backoff).
const RETRY_TIMEOUT_INTERVALS: u64 = 4;
/// Backoff ceiling for dispatch re-sends, in intervals.
const RETRY_BACKOFF_MAX_INTERVALS: u64 = 64;
/// Fractional jitter on each retry backoff: up to `jitter × backoff`
/// extra intervals, drawn from the plane's seeded stream.
const RETRY_JITTER: f64 = 0.25;

/// Control-plane configuration.
#[derive(Debug, Clone, Default)]
pub struct CtrlPlaneConfig {
    /// Strawman mode: no epoch discipline at the fabric (every delivered
    /// dispatch applies, in delivery order) and no ACK/retry at the
    /// controller. Exists so experiments can show the failure the
    /// hardened protocol prevents.
    pub naive: bool,
}

/// Controller → fabric traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum DownMsg {
    /// Apply `action` if `epoch` is newer than anything applied so far.
    Dispatch {
        /// The dispatch's position in the controller's total order.
        epoch: u64,
        /// The parameter change itself.
        action: TuningAction,
    },
}

/// Fabric → controller traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum UpMsg {
    /// One monitoring point's sequence-numbered FSD upload.
    Fsd(FsdUpload),
    /// Dispatch acknowledgment: the fabric's current epoch *after*
    /// processing a dispatch (echoed even when the dispatch was ignored
    /// as stale, which is how the controller learns it is behind).
    Ack {
        /// The fabric's applied epoch.
        epoch: u64,
    },
}

/// The fabric-side protocol endpoint: epoch bookkeeping for the
/// switches/RNICs as a group. The actual parameter application goes
/// through the simulator; this type only decides *whether* a delivered
/// dispatch should apply.
#[derive(Debug, Clone)]
pub struct FabricEnd {
    epoch: u64,
    naive: bool,
}

impl FabricEnd {
    fn new(naive: bool) -> Self {
        Self { epoch: 0, naive }
    }

    /// The highest epoch applied so far (0 before any dispatch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Process one delivered dispatch. Returns the action to apply (if
    /// the epoch is fresh) and the epoch to ACK with. In naive mode
    /// every delivered dispatch applies, in delivery order — which is
    /// exactly what makes reordering and duplication dangerous.
    pub fn on_dispatch(&mut self, msg: DownMsg) -> (Option<TuningAction>, u64) {
        let DownMsg::Dispatch { epoch, action } = msg;
        if self.naive || epoch > self.epoch {
            self.epoch = epoch;
            (Some(action), self.epoch)
        } else {
            (None, self.epoch)
        }
    }
}

/// The one in-flight (un-ACKed) dispatch.
#[derive(Debug, Clone, PartialEq)]
struct Pending {
    epoch: u64,
    action: TuningAction,
    /// Interval index at which the next re-send fires.
    next_retry_at: u64,
    /// Current backoff (doubles per re-send, capped).
    backoff: u64,
    retries: u32,
}

/// Controller-half protocol state captured in a checkpoint: the upload
/// merger, the epoch counter and the in-flight dispatch. Channels, the
/// fabric end and the jitter stream are *not* part of it — they model
/// the network and the devices, which do not die with the controller.
#[derive(Debug, Clone)]
pub struct CtrlSnapshot {
    merger: StalenessMerger,
    next_epoch: u64,
    pending: Option<Pending>,
}

/// Aggregate counters a harness reads after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CtrlPlaneStats {
    /// Up-lane channel counters (uploads + ACKs).
    pub up: CtrlChannelStats,
    /// Down-lane channel counters (dispatches).
    pub down: CtrlChannelStats,
    /// Stale uploads the merger rejected.
    pub stale_rejected: u64,
    /// Dispatch re-sends (timeout or epoch-behind).
    pub retries: u64,
    /// Controller crashes survived.
    pub crashes: u64,
    /// Post-restore re-assertions of the believed parameters.
    pub resyncs: u64,
}

/// The full control plane between one controller and one fabric: both
/// impaired channel lanes, the fabric endpoint, the upload merger and
/// the dispatch retry machine.
pub struct CtrlPlane {
    /// [`CtrlPlaneConfig::naive`]: no ACK/retry at the controller.
    naive: bool,
    /// Fabric → controller lane.
    pub up: CtrlChannel<UpMsg>,
    /// Controller → fabric lane.
    pub down: CtrlChannel<DownMsg>,
    /// Fabric-side epoch bookkeeping.
    pub fabric: FabricEnd,
    /// Staleness-weighted upload aggregation (controller side).
    pub merger: StalenessMerger,
    /// Retry-jitter stream (distinct lane of the run seed).
    rng: StdRng,
    next_epoch: u64,
    pending: Option<Pending>,
    /// Dispatch re-sends performed.
    pub retries: u64,
    /// Controller crashes survived.
    pub crashes: u64,
    /// Post-restore re-assertions of believed parameters.
    pub resyncs: u64,
    /// Control-channel bytes from re-sends and resyncs, beyond what the
    /// loop's regular per-interval dispatch accounting already covers.
    /// The loop drains this into the transfer ledger every interval.
    pub extra_dispatch_bytes: u64,
}

/// Wire size of one dispatch payload.
fn wire_bytes(action: &TuningAction) -> u64 {
    match action {
        TuningAction::Global(p) => p.wire_size_bytes() as u64,
        TuningAction::PerSwitchEcn(v) => v.iter().map(|(_, p)| p.wire_size_bytes() as u64).sum(),
    }
}

impl CtrlPlane {
    /// Build over `seed` (the run seed; each internal RNG consumer gets
    /// its own `mix64`-derived lane so the streams are independent).
    pub fn new(cfg: CtrlPlaneConfig, seed: u64) -> Self {
        Self {
            up: CtrlChannel::new(mix64(seed ^ 0x5550)),
            down: CtrlChannel::new(mix64(seed ^ 0xD030)),
            fabric: FabricEnd::new(cfg.naive),
            merger: StalenessMerger::default(),
            rng: StdRng::seed_from_u64(mix64(seed ^ 0x1e77)),
            next_epoch: 1,
            pending: None,
            retries: 0,
            crashes: 0,
            resyncs: 0,
            extra_dispatch_bytes: 0,
            naive: cfg.naive,
        }
    }

    /// The epoch the next dispatch will carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Whether a dispatch is awaiting its ACK.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// One combined counter snapshot.
    pub fn stats(&self) -> CtrlPlaneStats {
        CtrlPlaneStats {
            up: self.up.stats,
            down: self.down.stats,
            stale_rejected: self.merger.rejected,
            retries: self.retries,
            crashes: self.crashes,
            resyncs: self.resyncs,
        }
    }

    /// Send `action` at a fresh epoch (superseding any in-flight
    /// dispatch: the fabric's monotonicity makes the older one
    /// harmless). Returns the epoch used.
    pub fn send_dispatch(&mut self, now: u64, action: TuningAction) -> u64 {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.down.send(
            now,
            DownMsg::Dispatch {
                epoch,
                action: action.clone(),
            },
        );
        self.pending = (!self.naive).then(|| Pending {
            epoch,
            action,
            next_retry_at: now + RETRY_TIMEOUT_INTERVALS,
            backoff: RETRY_TIMEOUT_INTERVALS,
            retries: 0,
        });
        epoch
    }

    /// Process one delivered ACK. Completes the in-flight dispatch when
    /// the fabric caught up to it; when the fabric reports a *newer*
    /// epoch (ours was ignored as stale — only possible after a restore
    /// rewound the epoch counter), the believed action is re-sent above
    /// the fabric's epoch. Returns the re-send epoch when that happens.
    pub fn on_ack(&mut self, now: u64, acked: u64) -> Option<u64> {
        if acked >= self.next_epoch {
            // The fabric is ahead of everything we think we sent: a
            // restore rewound us. Catch the counter up first.
            self.next_epoch = acked + 1;
        }
        if self.naive {
            return None;
        }
        let p = self.pending.as_ref()?;
        if acked == p.epoch {
            self.pending = None;
            None
        } else if acked > p.epoch {
            // Our in-flight epoch lost the race against a pre-crash
            // dispatch the fabric already applied. Re-assert the
            // believed action above the fabric's epoch.
            let action = p.action.clone();
            self.retries += 1;
            self.extra_dispatch_bytes += wire_bytes(&action);
            Some(self.send_dispatch(now, action))
        } else {
            // Stale ACK from an older dispatch or a duplicate: the
            // in-flight one is still outstanding.
            None
        }
    }

    /// Re-send the in-flight dispatch when its ACK timed out. Called
    /// once per interval; returns the re-sent epoch if a retry fired.
    /// Each re-send doubles the backoff (capped) and stretches it by a
    /// seeded jitter draw — the draw only happens on an actual re-send,
    /// so a healthy channel never consumes the stream.
    pub fn check_retry(&mut self, now: u64) -> Option<u64> {
        let p = self.pending.as_mut()?;
        if now < p.next_retry_at {
            return None;
        }
        self.down.send(
            now,
            DownMsg::Dispatch {
                epoch: p.epoch,
                action: p.action.clone(),
            },
        );
        p.retries += 1;
        self.retries += 1;
        self.extra_dispatch_bytes += wire_bytes(&p.action);
        p.backoff = (p.backoff.saturating_mul(2)).min(RETRY_BACKOFF_MAX_INTERVALS);
        let jitter = (self.rng.gen::<f64>() * RETRY_JITTER * p.backoff as f64) as u64;
        p.next_retry_at = now + p.backoff + jitter;
        Some(p.epoch)
    }

    /// Checkpoint the controller half of the protocol state.
    pub fn snapshot(&self) -> CtrlSnapshot {
        CtrlSnapshot {
            merger: self.merger.clone(),
            next_epoch: self.next_epoch,
            pending: self.pending.clone(),
        }
    }

    /// Restore the controller half from a checkpoint. Crash semantics
    /// live in the caller ([`crate::ClosedLoop`] clears the up lane —
    /// messages addressed to a dead process are gone — and re-asserts
    /// the believed parameters).
    pub fn restore(&mut self, snap: &CtrlSnapshot) {
        self.merger = snap.merger.clone();
        self.next_epoch = snap.next_epoch;
        self.pending = snap.pending.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_dcqcn::DcqcnParams;

    fn global(ai: f64) -> TuningAction {
        let mut p = DcqcnParams::nvidia_default();
        p.ai_rate = ai;
        TuningAction::Global(p)
    }

    #[test]
    fn fabric_applies_epochs_at_most_once_and_never_backwards() {
        let mut f = FabricEnd::new(false);
        let (a, ack) = f.on_dispatch(DownMsg::Dispatch {
            epoch: 2,
            action: global(1.0),
        });
        assert!(a.is_some());
        assert_eq!(ack, 2);
        // Duplicate: ignored, same ACK.
        let (a, ack) = f.on_dispatch(DownMsg::Dispatch {
            epoch: 2,
            action: global(1.0),
        });
        assert!(a.is_none());
        assert_eq!(ack, 2);
        // Reordered older epoch: ignored.
        let (a, ack) = f.on_dispatch(DownMsg::Dispatch {
            epoch: 1,
            action: global(9.0),
        });
        assert!(a.is_none());
        assert_eq!(ack, 2);
        // Newer epoch: applies.
        let (a, ack) = f.on_dispatch(DownMsg::Dispatch {
            epoch: 3,
            action: global(2.0),
        });
        assert_eq!(a, Some(global(2.0)));
        assert_eq!(ack, 3);
    }

    #[test]
    fn naive_fabric_applies_everything_in_delivery_order() {
        let mut f = FabricEnd::new(true);
        let (a, _) = f.on_dispatch(DownMsg::Dispatch {
            epoch: 2,
            action: global(1.0),
        });
        assert!(a.is_some());
        // The reordered older dispatch overwrites the newer one.
        let (a, _) = f.on_dispatch(DownMsg::Dispatch {
            epoch: 1,
            action: global(9.0),
        });
        assert_eq!(a, Some(global(9.0)));
    }

    #[test]
    fn ack_completes_the_pending_dispatch() {
        let mut cp = CtrlPlane::new(CtrlPlaneConfig::default(), 1);
        let e = cp.send_dispatch(0, global(1.0));
        assert!(cp.has_pending());
        assert_eq!(cp.on_ack(1, e), None);
        assert!(!cp.has_pending());
    }

    #[test]
    fn timeout_resends_with_doubling_backoff() {
        let mut cp = CtrlPlane::new(CtrlPlaneConfig::default(), 1);
        let e = cp.send_dispatch(0, global(1.0));
        let timeout = RETRY_TIMEOUT_INTERVALS;
        assert_eq!(cp.check_retry(timeout - 1), None, "inside the timeout");
        assert_eq!(
            cp.check_retry(timeout),
            Some(e),
            "first re-send is unjittered"
        );
        // Each re-send doubles the backoff up to the cap, and lands in
        // [backoff, (1 + jitter) × backoff] after the previous one.
        let (mut last, mut backoff) = (timeout, timeout);
        for _ in 0..8 {
            backoff = (2 * backoff).min(RETRY_BACKOFF_MAX_INTERVALS);
            let mut now = last + 1;
            while cp.check_retry(now).is_none() {
                now += 1;
            }
            let gap = now - last;
            let most = (1.0 + RETRY_JITTER) * backoff as f64;
            assert!(
                gap >= backoff && gap as f64 <= most,
                "re-send {gap} intervals after the last, backoff {backoff}"
            );
            last = now;
        }
        assert_eq!(backoff, RETRY_BACKOFF_MAX_INTERVALS, "the cap was reached");
        assert_eq!(cp.retries, 9);
        // A late ACK still completes it.
        assert_eq!(cp.on_ack(last + 1, e), None);
        assert!(!cp.has_pending());
    }

    #[test]
    fn retry_jitter_is_deterministic_per_seed() {
        let fire_times = |seed: u64| {
            let mut cp = CtrlPlane::new(CtrlPlaneConfig::default(), seed);
            cp.send_dispatch(0, global(1.0));
            let mut fired = Vec::new();
            for now in 0..200u64 {
                if cp.check_retry(now).is_some() {
                    fired.push(now);
                }
            }
            fired
        };
        assert_eq!(fire_times(7), fire_times(7));
        assert!(fire_times(7).len() >= 3);
    }

    #[test]
    fn epoch_behind_ack_triggers_a_resend_above_the_fabric() {
        let mut cp = CtrlPlane::new(CtrlPlaneConfig::default(), 1);
        let e = cp.send_dispatch(0, global(1.0));
        // The fabric ACKs a *newer* epoch (it applied a pre-crash
        // dispatch this restored controller never saw).
        let resent = cp.on_ack(1, e + 5);
        assert_eq!(resent, Some(e + 6), "re-sent above the fabric's epoch");
        assert!(cp.has_pending());
        assert_eq!(cp.next_epoch(), e + 7);
    }

    #[test]
    fn snapshot_restore_round_trips_the_controller_half() {
        let mut cp = CtrlPlane::new(CtrlPlaneConfig::default(), 1);
        cp.send_dispatch(0, global(1.0));
        let snap = cp.snapshot();
        // Drift past the checkpoint, then restore.
        cp.on_ack(1, 1);
        cp.send_dispatch(2, global(2.0));
        cp.restore(&snap);
        assert_eq!(cp.next_epoch(), 2);
        assert!(cp.has_pending());
    }
}
