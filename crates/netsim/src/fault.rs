//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — link failures and
//! recoveries (including flapping), link rate degradation, per-link
//! random packet corruption, and misbehaving-host PFC storms — that the
//! simulator executes through its ordinary event engine. The plan
//! carries its own RNG seed so corruption draws come from a dedicated
//! stream: installing a plan never perturbs the simulator's ECN/marking
//! randomness, and two runs with identical seeds and identical plans
//! replay identically (packet for packet, telemetry event for telemetry
//! event).
//!
//! Faults address a *link* by `(node, port)`; down/degrade/loss apply to
//! both directions of the cable, as a physical fault would. PFC storms
//! address a *host*: the storm models that host emitting sustained XOFF,
//! which freezes its ToR down-port and lets congestion spread upstream
//! through the shared buffer — exactly the deployment hazard the
//! guardrail in `paraleon-core` exists to survive.
//!
//! The plan half (what may be scheduled, and its JSON form) comes first;
//! the apply half — validation against a topology, what a transition
//! does to a link, its flight-recorder record, and the per-shard glue
//! that runs it — follows at the end of the file.

use paraleon_telemetry as tel;
use serde::{Deserialize, Serialize};

use crate::core::FAULT_NS;
use crate::error::SimError;
use crate::event::Event;
use crate::sim::Simulator;
use crate::topology::Topology;
use crate::{Nanos, NodeId};

/// The slowest a [`FaultKind::Degrade`] may make a link, as a fraction of
/// nominal rate. Anything slower is a dead link — say `LinkDown` — and
/// the floor keeps serialization times (≈ 84 ns per MTU at 100 Gbps,
/// divided by the factor) far from the end of the `u64` clock.
const MIN_DEGRADE_FACTOR: f64 = 1e-6;

/// What a single scheduled fault does. Serialized as one object, the
/// variant name under `"kind"` followed by its fields.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind")]
pub enum FaultKind {
    /// Take the link out of service: packets serialized onto it are
    /// lost, and ECMP steers new traffic around it where an alternate
    /// path exists.
    LinkDown,
    /// Return the link to service at full rate.
    LinkUp,
    /// Degrade the link to `factor` × its nominal rate
    /// (10⁻⁶ ≤ factor ≤ 1).
    Degrade {
        /// Fraction of nominal bandwidth that survives.
        factor: f64,
    },
    /// Corrupt packets on the link: each serialized packet is dropped
    /// with probability `drop_prob` (drawn from the plan's own RNG
    /// stream). A probability of 0 restores clean transmission.
    PktLoss {
        /// Per-packet drop probability in `[0, 1]`.
        drop_prob: f64,
    },
    /// A misbehaving host begins a sustained-XOFF PFC storm: its ToR
    /// down-port freezes until [`FaultKind::PfcStormEnd`].
    PfcStormStart,
    /// The misbehaving host stops asserting XOFF.
    PfcStormEnd,
    /// Impair the control-plane channel between the fabric and the
    /// controller from this instant on: per-message loss probability,
    /// bounded extra delay (in monitor intervals, drawn uniformly per
    /// message — which is what reorders an in-order stream), and
    /// duplication probability. `up`/`down` select the telemetry-upload
    /// and parameter-dispatch directions; all-zero rates restore a clean
    /// channel. The simulator's data plane ignores this event — it is
    /// consumed by the closed loop's [`CtrlChannel`](crate::CtrlChannel).
    CtrlImpair {
        /// Apply to the fabric → controller (upload) direction.
        up: bool,
        /// Apply to the controller → fabric (dispatch) direction.
        down: bool,
        /// Per-message loss probability in `[0, 1]`.
        loss: f64,
        /// Maximum extra delivery delay, in monitor intervals.
        delay_max: u64,
        /// Per-message duplication probability in `[0, 1]`.
        dup: f64,
    },
    /// The controller process dies at this instant. `warm` restarts
    /// resume from the last periodic state snapshot; cold restarts come
    /// back with initial state and re-enter safe mode through the
    /// guardrail's backoff path. Ignored by the data plane.
    CtrlCrash {
        /// Whether a snapshot survives the crash.
        warm: bool,
    },
}

impl FaultKind {
    /// Whether this transition targets the control plane rather than a
    /// data-plane link or host. Control-plane events are ignored by the
    /// simulator proper and consumed by the closed loop.
    pub fn is_ctrl(&self) -> bool {
        matches!(
            self,
            FaultKind::CtrlImpair { .. } | FaultKind::CtrlCrash { .. }
        )
    }
}

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Absolute simulation time at which the transition applies.
    pub at: Nanos,
    /// Node owning the faulted link (for storms: the misbehaving host).
    pub node: NodeId,
    /// Port index on `node` (ignored for storms; hosts have port 0).
    pub port: usize,
    /// The transition.
    pub kind: FaultKind,
}

/// A seeded, ordered schedule of fault transitions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the plan's dedicated RNG (corruption draws).
    pub seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan drawing corruption randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// The scheduled transitions in insertion order (the simulator's
    /// event queue orders them by time with deterministic tie-breaks).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule a raw transition.
    pub fn push(&mut self, ev: FaultEvent) -> &mut Self {
        self.events.push(ev);
        self
    }

    /// Take `(node, port)` down at `at`.
    pub fn link_down(&mut self, at: Nanos, node: NodeId, port: usize) -> &mut Self {
        self.push(FaultEvent {
            at,
            node,
            port,
            kind: FaultKind::LinkDown,
        })
    }

    /// Bring `(node, port)` back up at `at`.
    pub fn link_up(&mut self, at: Nanos, node: NodeId, port: usize) -> &mut Self {
        self.push(FaultEvent {
            at,
            node,
            port,
            kind: FaultKind::LinkUp,
        })
    }

    /// Flap `(node, port)`: `count` down/up cycles starting at `first`,
    /// each outage lasting `down_for`, one cycle every `period`.
    pub fn link_flap(
        &mut self,
        node: NodeId,
        port: usize,
        first: Nanos,
        down_for: Nanos,
        period: Nanos,
        count: u32,
    ) -> &mut Self {
        assert!(down_for < period, "outage must be shorter than the cycle");
        for i in 0..count as u64 {
            let t = first + i * period;
            self.link_down(t, node, port);
            self.link_up(t + down_for, node, port);
        }
        self
    }

    /// Degrade `(node, port)` to `factor` × nominal rate at `at`.
    pub fn degrade(&mut self, at: Nanos, node: NodeId, port: usize, factor: f64) -> &mut Self {
        let kind = FaultKind::Degrade { factor };
        assert!(
            kind.params_in_range(),
            "degrade factor must be in [1e-6, 1]"
        );
        self.push(FaultEvent {
            at,
            node,
            port,
            kind,
        })
    }

    /// Inject per-packet corruption with probability `drop_prob` on
    /// `(node, port)` from `at` until `until` (when it is cleared).
    pub fn pkt_loss(
        &mut self,
        at: Nanos,
        until: Nanos,
        node: NodeId,
        port: usize,
        drop_prob: f64,
    ) -> &mut Self {
        let kind = FaultKind::PktLoss { drop_prob };
        assert!(kind.params_in_range(), "drop_prob out of range");
        assert!(until > at, "corruption window must be non-empty");
        self.push(FaultEvent {
            at,
            node,
            port,
            kind,
        });
        self.push(FaultEvent {
            at: until,
            node,
            port,
            kind: FaultKind::PktLoss { drop_prob: 0.0 },
        })
    }

    /// A misbehaving `host` asserts sustained XOFF from `start` to `end`.
    pub fn pfc_storm(&mut self, host: NodeId, start: Nanos, end: Nanos) -> &mut Self {
        assert!(end > start, "storm must be non-empty");
        self.push(FaultEvent {
            at: start,
            node: host,
            port: 0,
            kind: FaultKind::PfcStormStart,
        });
        self.push(FaultEvent {
            at: end,
            node: host,
            port: 0,
            kind: FaultKind::PfcStormEnd,
        })
    }

    /// Impair the control-plane channel from `at`: each message on a
    /// selected direction is lost with probability `loss`, delayed by up
    /// to `delay_max` extra monitor intervals, and duplicated with
    /// probability `dup`. Control-plane events carry no link address;
    /// `node`/`port` are zero.
    pub fn ctrl_impair(
        &mut self,
        at: Nanos,
        up: bool,
        down: bool,
        loss: f64,
        delay_max: u64,
        dup: f64,
    ) -> &mut Self {
        assert!((0.0..=1.0).contains(&loss), "ctrl loss out of range");
        assert!((0.0..=1.0).contains(&dup), "ctrl dup out of range");
        self.push(FaultEvent {
            at,
            node: 0,
            port: 0,
            kind: FaultKind::CtrlImpair {
                up,
                down,
                loss,
                delay_max,
                dup,
            },
        })
    }

    /// Kill the controller at `at` (`warm`: a snapshot survives).
    pub fn ctrl_crash(&mut self, at: Nanos, warm: bool) -> &mut Self {
        self.push(FaultEvent {
            at,
            node: 0,
            port: 0,
            kind: FaultKind::CtrlCrash { warm },
        })
    }
}

/// Runtime state of one directed link, mutated by fault transitions.
#[derive(Debug, Clone, Copy)]
pub struct LinkState {
    /// Whether the link carries packets at all.
    pub up: bool,
    /// Fraction of nominal bandwidth currently available.
    pub rate_factor: f64,
    /// Per-packet corruption drop probability.
    pub drop_prob: f64,
}

impl Default for LinkState {
    fn default() -> Self {
        Self {
            up: true,
            rate_factor: 1.0,
            drop_prob: 0.0,
        }
    }
}

impl LinkState {
    /// Whether the link needs no per-packet fault processing.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.up && self.rate_factor >= 1.0 && self.drop_prob <= 0.0
    }
}

// ----------------------------------------------------------------------
// The apply half
// ----------------------------------------------------------------------

impl FaultKind {
    /// Whether this is a PFC storm transition, which addresses a host
    /// (and acts on its only link, port 0) rather than a `(node, port)`.
    fn is_storm(&self) -> bool {
        matches!(self, FaultKind::PfcStormStart | FaultKind::PfcStormEnd)
    }

    /// Whether a `Degrade` factor or `PktLoss` probability is one the
    /// link model can run (NaN and infinities are not).
    fn params_in_range(&self) -> bool {
        match *self {
            FaultKind::Degrade { factor } => (MIN_DEGRADE_FACTOR..=1.0).contains(&factor),
            FaultKind::PktLoss { drop_prob } => (0.0..=1.0).contains(&drop_prob),
            _ => true,
        }
    }

    /// What a link transition does to one directed link's state.
    fn apply_to(&self, link: &mut LinkState) {
        match *self {
            FaultKind::LinkDown => link.up = false,
            FaultKind::LinkUp => link.up = true,
            FaultKind::Degrade { factor } => link.rate_factor = factor,
            FaultKind::PktLoss { drop_prob } => link.drop_prob = drop_prob,
            _ => unreachable!("{self:?} is not a link transition"),
        }
    }
}

impl FaultEvent {
    /// The flight-recorder record of a data-plane transition.
    fn tel_event(&self) -> tel::Event {
        let (node, port) = (self.node as u32, self.port as u32);
        match self.kind {
            FaultKind::LinkDown => tel::Event::FaultLinkDown { node, port },
            FaultKind::LinkUp => tel::Event::FaultLinkUp { node, port },
            FaultKind::Degrade { factor } => tel::Event::FaultDegrade { node, port, factor },
            FaultKind::PktLoss { drop_prob } => tel::Event::FaultPktLoss {
                node,
                port,
                drop_prob,
            },
            FaultKind::PfcStormStart => tel::Event::PfcStormStart { host: node },
            FaultKind::PfcStormEnd => tel::Event::PfcStormEnd { host: node },
            // Control-plane transitions never reach the event queue —
            // `install_fault_plan` filters them out.
            FaultKind::CtrlImpair { .. } | FaultKind::CtrlCrash { .. } => {
                unreachable!("ctrl fault scheduled on the data plane")
            }
        }
    }
}

impl FaultPlan {
    /// Check every transition against the clock and every data-plane
    /// transition against `topo` and the link model's parameter ranges.
    /// Control-plane transitions carry no link address; they are
    /// consumed by the closed loop, not the data plane.
    fn validate(&self, topo: &Topology, now: Nanos) -> Result<(), SimError> {
        let n_nodes = topo.n_nodes();
        for (index, ev) in self.events.iter().enumerate() {
            let FaultEvent {
                at,
                node,
                port,
                kind,
            } = *ev;
            if at < now {
                return Err(SimError::TimeInPast { at, now });
            }
            if kind.is_ctrl() {
                continue;
            }
            if node >= n_nodes {
                return Err(SimError::NodeOutOfRange { node, n_nodes });
            }
            let n_ports = topo.ports(node).len();
            if kind.is_storm() {
                if node >= topo.n_hosts() {
                    return Err(SimError::NotAHost { node });
                }
            } else if port >= n_ports {
                return Err(SimError::PortOutOfRange {
                    node,
                    port,
                    n_ports,
                });
            }
            if !kind.params_in_range() {
                return Err(SimError::FaultParamOutOfRange { index });
            }
        }
        Ok(())
    }
}

impl Simulator {
    /// One shard's share of `Engine::install_fault_plan`: validate and
    /// record every transition, reseed the corruption RNGs, and schedule
    /// one `Event::Fault` for each transition this shard must run.
    pub(crate) fn install_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        plan.validate(&self.topo, self.core.now())?;
        self.links.reseed(plan.seed, self.core.owned());
        for ev in plan.events().iter().filter(|ev| !ev.kind.is_ctrl()) {
            // Every shard records every transition so `Event::Fault`
            // indices stay globally aligned; only shards owning one of
            // the affected link ends schedule it. The plan index is the
            // key counter: replicas on two shards carry the same key and
            // run at the same barrier-aligned instant.
            let idx = self.fault_plan.len() as u32;
            self.fault_plan.push(*ev);
            if self.link_ends(ev).iter().any(|end| self.core.owns(end.0)) {
                self.core
                    .external(FAULT_NS, idx as u64, ev.at, Event::Fault(idx));
            }
        }
        Ok(())
    }

    /// Both `(node, port)` ends of the cable a transition acts on, the
    /// addressed node's first.
    fn link_ends(&self, ev: &FaultEvent) -> [(NodeId, usize); 2] {
        let port = if ev.kind.is_storm() { 0 } else { ev.port };
        let far = self.topo.ports(ev.node)[port];
        [(ev.node, port), (far.peer, far.peer_port)]
    }

    /// Run transition `idx` of the installed plan.
    pub(crate) fn apply_fault(&mut self, idx: u32) {
        let ev = self.fault_plan[idx as usize];
        let now = self.core.now();
        let ends = self.link_ends(&ev);
        // A cross-cut fault is replicated onto both end shards; the shard
        // owning `ev.node` is the *primary* and performs the one-time
        // side effects (telemetry, global counters). The secondary only
        // updates its own side's link state — and un-counts the replica
        // so `events_processed` sums to the one-shard figure.
        let primary = self.core.owns(ev.node);
        if !primary {
            self.core.events_processed -= 1;
        }
        if ev.kind.is_storm() {
            // The misbehaving host asserts sustained XOFF: freeze its
            // ToR down-port. Congestion then spreads upstream through
            // the shared buffer exactly as a real storm would. The
            // partitioner co-locates a host with its ToR, so the primary
            // owner handles the whole transition.
            let [_, (tor, down_port)] = ends;
            debug_assert!(
                primary == self.core.owns(tor),
                "PFC storm across a shard cut: host and ToR must share a shard"
            );
            if primary {
                let start = ev.kind == FaultKind::PfcStormStart;
                if start {
                    self.accum.pfc_events += 1;
                    self.total_pfc_events += 1;
                }
                tel::event_at(now, ev.tel_event());
                self.on_pfc_set(tor, down_port, start);
            }
            return;
        }
        // A lone shard owns both ends of the cable; one of several
        // holds rows for its own end only.
        let core = &self.core;
        let owned = ends.map(|(node, port)| core.owns(node).then(|| (core.own(node), port)));
        for (at, port) in owned.into_iter().flatten() {
            self.links.update(at.slot, port, |l| ev.kind.apply_to(l));
        }
        if primary {
            tel::event_at(now, ev.tel_event());
        }
        if ev.kind == FaultKind::LinkUp {
            // Restart any idle port that queued packets while down —
            // each side's owner restarts its own end (the restart only
            // generates events sourced at that end, so causal keys stay
            // consistent with a one-shard run).
            for (at, port) in owned.into_iter().flatten() {
                self.try_tx(at, port);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A malformed fault is an `Err` naming the type and the field.
    #[test]
    fn malformed_fault_kinds_are_typed_errors() {
        let cases = [
            (r#"{"factor":0.5}"#, "FaultKind: missing `kind`"),
            (
                r#"{"kind":"Meltdown"}"#,
                "FaultKind: unknown kind `Meltdown`",
            ),
            (
                r#"{"kind":"Degrade","factor":"half"}"#,
                "FaultKind::Degrade.factor: expected a number",
            ),
            (
                r#"{"kind":"CtrlImpair","up":true,"down":true,"loss":0.1,"dup":0.0}"#,
                "FaultKind::CtrlImpair: missing `delay_max`",
            ),
            (r#""LinkDown""#, "expected a FaultKind object"),
        ];
        for (text, want) in cases {
            let v = serde_json::from_str_value(text).unwrap();
            assert_eq!(FaultKind::from_value(&v), Err(want.to_string()), "{text}");
        }
    }

    #[test]
    fn flap_builder_alternates_down_up() {
        let mut plan = FaultPlan::new(7);
        plan.link_flap(10, 3, 1_000, 200, 500, 3);
        let evs = plan.events();
        assert_eq!(evs.len(), 6);
        assert_eq!(evs[0].at, 1_000);
        assert_eq!(evs[0].kind, FaultKind::LinkDown);
        assert_eq!(evs[1].at, 1_200);
        assert_eq!(evs[1].kind, FaultKind::LinkUp);
        assert_eq!(evs[4].at, 2_000);
        assert!(evs.iter().all(|e| e.node == 10 && e.port == 3));
    }

    #[test]
    fn pkt_loss_builder_clears_itself() {
        let mut plan = FaultPlan::new(0);
        plan.pkt_loss(100, 900, 5, 0, 0.25);
        let evs = plan.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, FaultKind::PktLoss { drop_prob: 0.25 });
        assert_eq!(evs[1].at, 900);
        assert_eq!(evs[1].kind, FaultKind::PktLoss { drop_prob: 0.0 });
    }

    #[test]
    fn storm_builder_brackets_the_window() {
        let mut plan = FaultPlan::new(0);
        plan.pfc_storm(2, 50, 150);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].kind, FaultKind::PfcStormStart);
        assert_eq!(plan.events()[1].kind, FaultKind::PfcStormEnd);
    }

    #[test]
    fn plan_round_trips_through_value() {
        let mut plan = FaultPlan::new(9);
        plan.link_flap(10, 3, 1_000, 200, 500, 2);
        plan.degrade(50, 4, 1, 0.25);
        plan.pkt_loss(100, 900, 5, 0, 0.125);
        plan.pfc_storm(2, 50, 150);
        plan.ctrl_impair(1_000, true, false, 0.25, 3, 0.125);
        plan.ctrl_crash(2_000, true);
        plan.ctrl_impair(3_000, true, true, 0.0, 0, 0.0);
        let back = FaultPlan::from_value(&plan.serialize_value()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn ctrl_events_are_flagged_and_data_events_are_not() {
        let mut plan = FaultPlan::new(0);
        plan.link_down(10, 1, 0);
        plan.ctrl_impair(20, true, true, 0.5, 2, 0.0);
        plan.ctrl_crash(30, false);
        let ctrl: Vec<bool> = plan.events().iter().map(|e| e.kind.is_ctrl()).collect();
        assert_eq!(ctrl, vec![false, true, true]);
    }

    #[test]
    fn default_link_state_is_clean() {
        let ls = LinkState::default();
        assert!(ls.is_clean());
        let degraded = LinkState {
            rate_factor: 0.5,
            ..ls
        };
        assert!(!degraded.is_clean());
    }
}
