//! Whole-service checkpoints: freeze every tenant's controller state in
//! one [`FleetSnapshot`], and bring a live fleet back to it — either as
//! a pure state restore ([`FleetService::restore`], identity when
//! applied at the snapshot instant) or with crash semantics
//! ([`FleetService::crash_restore`]: in-flight control messages die and
//! every tenant's believed parameters are re-asserted at a fresh
//! epoch).
//!
//! The fabric side is deliberately *not* part of the snapshot: the
//! controller process is what crashes and restores; the fabrics keep
//! running (their clocks, flows and applied parameters are device
//! state). That is why `restore` at an arbitrary later time is not
//! meaningful — use `crash_restore`, whose resync protocol re-converges
//! fabric and controller, for that.

use paraleon::prelude::CellSnapshot;

use crate::service::FleetService;
use crate::tenant::TenantId;

/// One tenant's controller-side checkpoint.
pub struct TenantSnapshot {
    /// Which tenant this freezes.
    pub id: TenantId,
    pub(crate) cell: CellSnapshot,
}

/// A whole-service checkpoint: the service clock and id counter plus
/// every live tenant's [`TenantSnapshot`], in ascending id order.
pub struct FleetSnapshot {
    pub(crate) tick: u64,
    pub(crate) next_id: TenantId,
    pub(crate) tenants: Vec<TenantSnapshot>,
}

impl FleetSnapshot {
    /// Service tick the snapshot was taken at.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Ids of the tenants frozen in this snapshot.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|t| t.id).collect()
    }
}

/// Why a restore was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The live tenant set does not match the snapshot's (same ids, in
    /// order, are required — a fabric cannot be conjured from a
    /// controller checkpoint).
    TenantSetMismatch {
        /// Tenant ids frozen in the snapshot.
        snapshot: Vec<TenantId>,
        /// Tenant ids live in the service.
        live: Vec<TenantId>,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::TenantSetMismatch { snapshot, live } => write!(
                f,
                "fleet restore: snapshot tenants {snapshot:?} != live tenants {live:?}"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl FleetService {
    /// Checkpoint the whole service. Always `Some`: every cell has a
    /// control plane to checkpoint through. The `Option` survives only
    /// because `benchmark/` matches on it — the next PR that may edit
    /// the benchmark should make this return `FleetSnapshot`.
    pub fn snapshot(&self) -> Option<FleetSnapshot> {
        let tenants = self
            .tenants
            .iter()
            .map(|t| TenantSnapshot {
                id: t.id,
                cell: t.cell.checkpoint(),
            })
            .collect();
        Some(FleetSnapshot {
            tick: self.tick,
            next_id: self.next_id,
            tenants,
        })
    }

    /// Match live tenants against the snapshot's, in order.
    fn check_tenant_set(&self, snap: &FleetSnapshot) -> Result<(), RestoreError> {
        let live: Vec<TenantId> = self.tenants.iter().map(|t| t.id).collect();
        let snapped = snap.tenant_ids();
        if live != snapped {
            return Err(RestoreError::TenantSetMismatch {
                snapshot: snapped,
                live,
            });
        }
        Ok(())
    }

    /// Pure state restore, no crash side effects: every tenant's cell
    /// rewinds to the snapshot, along with the service clock and id
    /// counter. Only identity-preserving when applied at the
    /// instant the snapshot was taken (the fabrics never rewind); for
    /// restoration at a later time use [`FleetService::crash_restore`].
    pub fn restore(&mut self, snap: &FleetSnapshot) -> Result<(), RestoreError> {
        self.check_tenant_set(snap)?;
        for (t, ts) in self.tenants.iter_mut().zip(&snap.tenants) {
            t.cell.restore(&ts.cell);
        }
        self.tick = snap.tick;
        self.next_id = snap.next_id;
        Ok(())
    }

    /// Warm-restore with crash semantics, mid-run: the controller
    /// process died and came back from this checkpoint while every
    /// fabric kept running. Per tenant: in-flight messages addressed to
    /// the controller die, the cell rewinds to the snapshot, and the
    /// believed parameters are re-asserted at a fresh epoch at the
    /// current interval — so each conversation
    /// re-converges (`ctrl_diverged` returns to `false` once quiet).
    /// The service clock is not rewound: the service keeps ticking
    /// forward from now.
    pub fn crash_restore(&mut self, snap: &FleetSnapshot) -> Result<(), RestoreError> {
        self.check_tenant_set(snap)?;
        for (t, ts) in self.tenants.iter_mut().zip(&snap.tenants) {
            paraleon_telemetry::set_tenant(t.id);
            let k = t.cell.interval_index();
            t.cell.crash_restore(&ts.cell, k);
            paraleon_telemetry::set_tenant(0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{FleetConfig, FleetService};
    use crate::tenant::TenantSpec;
    use paraleon::prelude::*;

    fn spec(seed: u64) -> TenantSpec {
        let mut spec = TenantSpec::new(TopoSpec::TwoTier(ClosSpec {
            n_tor: 2,
            hosts_per_tor: 2,
            n_leaf: 1,
            host_gbps: 25.0,
            uplink_gbps: 50.0,
            delay_ns: 1_000,
        }));
        spec.seed = seed;
        spec.schedule = (0..24u64)
            .map(|i| FlowRequest {
                src: (i % 2) as usize,
                dst: 2 + (i % 2) as usize,
                bytes: if i % 3 == 0 { 2_000_000 } else { 40_000 },
                start: i * MILLI / 2,
            })
            .collect();
        spec
    }

    #[test]
    fn snapshot_restore_at_same_instant_is_identity() {
        let mut fleet = FleetService::new(FleetConfig::default());
        let mut control = FleetService::new(FleetConfig::default());
        for s in [spec(1), spec(2)] {
            fleet.admit(s.clone());
            control.admit(s);
        }
        fleet.run(8);
        control.run(8);
        let snap = fleet.snapshot().unwrap();
        assert_eq!(snap.tick(), 8);
        fleet.restore(&snap).unwrap();
        fleet.run(8);
        control.run(8);
        for (a, b) in fleet.tenants().iter().zip(control.tenants()) {
            assert_eq!(a.cell.history, b.cell.history, "tenant {}", a.id);
            assert_eq!(a.cell.last_params, b.cell.last_params);
            assert_eq!(a.completions, b.completions);
        }
        assert_eq!(fleet.tick_index(), control.tick_index());
    }

    /// The scheduler's cost estimate is fabric-side state: a restore
    /// leaves it alone, and the threaded continuation stays the
    /// never-snapshotted run's.
    #[test]
    fn restore_at_two_threads_keeps_the_cost_estimate_and_is_identity() {
        let two = || {
            let mut fleet = FleetService::new(FleetConfig { threads: 2 });
            for s in [spec(1), spec(2), spec(3)] {
                fleet.admit(s);
            }
            fleet.run(6);
            fleet
        };
        let (mut fleet, mut control) = (two(), two());
        let estimates =
            |f: &FleetService| -> Vec<u64> { f.tenants().iter().map(|t| t.last_events).collect() };
        let before = estimates(&fleet);
        assert!(before.iter().all(|&e| e > 0));
        let snap = fleet.snapshot().unwrap();
        fleet.restore(&snap).unwrap();
        assert_eq!(estimates(&fleet), before);
        fleet.run(6);
        control.run(6);
        for (a, b) in fleet.tenants().iter().zip(control.tenants()) {
            assert_eq!(a.cell.history, b.cell.history, "tenant {}", a.id);
            assert_eq!(a.cell.last_params, b.cell.last_params);
            assert_eq!(a.completions, b.completions);
        }
        assert_eq!(estimates(&fleet), estimates(&control));
        assert_eq!(fleet.stats(), control.stats());
    }

    #[test]
    fn snapshot_is_some_for_an_empty_and_a_populated_fleet() {
        let mut fleet = FleetService::new(FleetConfig::default());
        let empty = fleet.snapshot().expect("an empty fleet checkpoints");
        assert!(empty.tenant_ids().is_empty());
        let a = fleet.admit(spec(1));
        let b = fleet.admit(spec(2));
        fleet.run(3);
        let snap = fleet.snapshot().expect("a populated fleet checkpoints");
        assert_eq!(snap.tenant_ids(), vec![a, b]);
        assert_eq!(snap.tick(), 3);
    }

    #[test]
    fn restore_refuses_a_mismatched_tenant_set() {
        let mut fleet = FleetService::new(FleetConfig::default());
        let a = fleet.admit(spec(1));
        fleet.admit(spec(2));
        fleet.run(2);
        let snap = fleet.snapshot().unwrap();
        fleet.evict(a).unwrap();
        let err = fleet.restore(&snap).unwrap_err();
        let RestoreError::TenantSetMismatch { snapshot, live } = err;
        assert_eq!(snapshot.len(), 2);
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn crash_restore_reconverges_every_tenant() {
        let mut fleet = FleetService::new(FleetConfig::default());
        for s in [spec(5), spec(6)] {
            fleet.admit(s);
        }
        fleet.run(10);
        let snap = fleet.snapshot().unwrap();
        fleet.run(5);
        fleet.crash_restore(&snap).unwrap();
        // The resync dispatch needs a few intervals to land and ACK;
        // settle until every conversation is quiet (bounded).
        let mut extra = 0;
        while fleet.tenants().iter().any(|t| !t.cell.ctrl_quiet()) && extra < 20 {
            fleet.tick();
            extra += 1;
        }
        for t in fleet.tenants() {
            assert!(
                t.cell.ctrl_quiet(),
                "tenant {} control plane still busy",
                t.id
            );
            assert!(
                !t.cell.ctrl_diverged(&t.sim),
                "tenant {} fabric and controller disagree after crash restore",
                t.id
            );
        }
        assert!(
            fleet.tick_index() >= 15,
            "crash restore never rewinds ticks"
        );
    }
}
