//! The hunt genome: everything that defines one adversarial scenario.
//!
//! A [`HuntPoint`] is a *complete, self-contained recipe* for a
//! simulation run — topology spec, workload, fault plan, DCQCN
//! parameters and RNG seed. It round-trips through JSON byte-identically
//! (the vendored serde's derived readers over its `Value` tree), which
//! is what makes corpus cases replayable: the repro *is* the genome.

use paraleon_dcqcn::DcqcnParams;
use paraleon_netsim::{ClosSpec, FaultKind, FaultPlan, Nanos, NodeId, TopoSpec};
use paraleon_workloads::CollectiveSpec;
use serde::{Deserialize, Serialize};

/// A burst of identical flows: `count` flows of `bytes` from `src` to
/// `dst`, the i-th starting at `start + i·gap`. Repetition is explicit
/// (rather than listing each flow) so the minimizer can shrink sustained
/// load by halving `count` instead of deleting flows one by one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host (must differ from `src`).
    pub dst: NodeId,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Start time of the first repetition (ns).
    pub start: Nanos,
    /// Number of repetitions.
    pub count: u32,
    /// Spacing between consecutive repetitions (ns).
    pub gap: Nanos,
}

/// One point in the hunt search space. Its reader checks each field's
/// type; [`HuntPoint::validate`] checks the topology spec, then the
/// fields against each other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HuntPoint {
    /// Topology recipe (any [`TopoSpec`] family).
    pub topo: TopoSpec,
    /// Offered load.
    pub workload: Vec<FlowSpec>,
    /// Optional barrier-synchronized collective on top of the workload
    /// (absent in genomes written before collectives existed). The
    /// evaluation drives it with completion feedback (waves release only
    /// when the previous wave drains), so genomes can express the
    /// self-clocked traffic that open-loop [`FlowSpec`] bursts cannot.
    pub collective: Option<CollectiveSpec>,
    /// Scheduled fabric faults.
    pub faults: FaultPlan,
    /// DCQCN parameter setting under test.
    pub params: DcqcnParams,
    /// Simulator RNG seed (ECN coin flips etc.).
    pub seed: u64,
}

impl HuntPoint {
    /// Check internal consistency: the topology spec must pass
    /// [`TopoSpec::validate`] (so nothing below builds a spec that
    /// panics), every flow endpoint, collective rank and fault target
    /// must exist in the topology it builds, and a collective must be
    /// valid and bounded (evaluations terminate).
    pub fn validate(&self) -> Result<(), String> {
        self.topo.validate()?;
        let n_hosts = self.topo.n_hosts();
        for (i, f) in self.workload.iter().enumerate() {
            if f.src >= n_hosts || f.dst >= n_hosts {
                return Err(format!("workload[{i}]: host out of range"));
            }
            if f.src == f.dst {
                return Err(format!("workload[{i}]: src == dst"));
            }
            if f.bytes == 0 || f.count == 0 {
                return Err(format!("workload[{i}]: empty flow"));
            }
        }
        if let Some(c) = &self.collective {
            if let Some(w) = c.workers.iter().find(|&&w| w >= n_hosts) {
                return Err(format!("collective: worker {w} out of range"));
            }
            if c.rounds.is_none() {
                return Err("collective: unbounded rounds".into());
            }
            c.validate()?;
        }
        // Cross-parameter constraint the simulator asserts at admission
        // (`EcnMarker::new`): per-param clamping cannot catch it.
        if self.params.k_min > self.params.k_max {
            return Err(format!(
                "params: k_min {} > k_max {}",
                self.params.k_min, self.params.k_max
            ));
        }
        if !self.faults.events().is_empty() {
            // Fault targets are checked against the *built* graph so the
            // same rules cover every topology family (for two-tier specs
            // this matches the old `node_class`/`port_valid` arithmetic).
            let topo = self.topo.build();
            for (i, ev) in self.faults.events().iter().enumerate() {
                if ev.node >= topo.n_nodes() {
                    return Err(format!("faults[{i}]: node {} out of range", ev.node));
                }
                if ev.port >= topo.ports(ev.node).len() {
                    return Err(format!("faults[{i}]: port {} invalid", ev.port));
                }
                if matches!(ev.kind, FaultKind::PfcStormStart | FaultKind::PfcStormEnd)
                    && ev.node >= n_hosts
                {
                    return Err(format!("faults[{i}]: storm target must be a host"));
                }
            }
        }
        Ok(())
    }

    /// Expand the workload into concrete `(src, dst, bytes, start)` flow
    /// admissions, in deterministic spec-then-repetition order.
    pub fn expand_flows(&self) -> Vec<(NodeId, NodeId, u64, Nanos)> {
        let mut out = Vec::new();
        for f in &self.workload {
            for i in 0..f.count as u64 {
                out.push((f.src, f.dst, f.bytes, f.start + i * f.gap));
            }
        }
        out
    }

    /// Canonical compact-JSON form: the dedup key during search and the
    /// byte-comparison basis for replay.
    pub fn key(&self) -> String {
        serde_json::to_string(self).expect("genome serializes")
    }
}

/// Which tier a node id belongs to under `spec`'s id layout (hosts
/// `0..H`, ToRs `H..H+n_tor`, leaves after).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeClass {
    /// Host `(tor_index, local_index)`.
    Host(usize, usize),
    /// ToR `tor_index`.
    Tor(usize),
    /// Leaf `leaf_index`.
    Leaf(usize),
}

/// Classify `node` under `spec`'s id layout, if it exists.
pub(crate) fn node_class(spec: &ClosSpec, node: NodeId) -> Option<NodeClass> {
    let h = spec.n_hosts();
    if node < h {
        Some(NodeClass::Host(
            node / spec.hosts_per_tor,
            node % spec.hosts_per_tor,
        ))
    } else if node < h + spec.n_tor {
        Some(NodeClass::Tor(node - h))
    } else if node < spec.n_nodes() {
        Some(NodeClass::Leaf(node - h - spec.n_tor))
    } else {
        None
    }
}

/// Classify `port` on `node`: `Some(class)` if the port exists. Hosts
/// have port 0; ToR ports are down `0..hosts_per_tor` then uplinks
/// `hosts_per_tor..hosts_per_tor+n_leaf`; leaf port `t` faces ToR `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PortClass {
    /// A host's single uplink.
    HostUplink,
    /// ToR down-port toward local host `local_index`.
    TorDown(usize),
    /// ToR uplink toward leaf `leaf_index`.
    TorUp(usize),
    /// Leaf down-port toward ToR `tor_index`.
    LeafDown(usize),
}

/// Classify `(node, port)` under `spec`, if the port exists.
pub(crate) fn port_valid(spec: &ClosSpec, node: NodeId, port: usize) -> Option<PortClass> {
    match node_class(spec, node)? {
        NodeClass::Host(..) => (port == 0).then_some(PortClass::HostUplink),
        NodeClass::Tor(_) => {
            if port < spec.hosts_per_tor {
                Some(PortClass::TorDown(port))
            } else if port < spec.hosts_per_tor + spec.n_leaf {
                Some(PortClass::TorUp(port - spec.hosts_per_tor))
            } else {
                None
            }
        }
        NodeClass::Leaf(_) => (port < spec.n_tor).then_some(PortClass::LeafDown(port)),
    }
}

/// Re-address `point` onto the smaller (or differently shaped) two-tier
/// topology `new`: every workload endpoint and fault target is
/// re-classified under the old layout and re-encoded under the new one.
/// Returns `None` when anything falls off the shrunken fabric (a flow's
/// host no longer exists, a fault's uplink index exceeds the new leaf
/// count) — the minimizer simply treats that shrink as a failed trial.
/// Only two-tier points remap: the minimizer's family pass collapses
/// other families to [`TopoSpec::TwoTier`] first.
pub(crate) fn remap_point(point: &HuntPoint, new: ClosSpec) -> Option<HuntPoint> {
    let mut new = new;
    // A zero-delay fabric has no propagation lookahead, which would force
    // the sharded parallel engine to degenerate to lockstep; clamping to
    // 1 ns keeps every minimized genome runnable on both engines without
    // perceptibly changing the pathology being shrunk.
    new.delay_ns = new.delay_ns.max(1);
    let old = point.topo.as_two_tier()?;
    let map_node = |node: NodeId| -> Option<NodeId> {
        match node_class(old, node)? {
            NodeClass::Host(t, l) => {
                (t < new.n_tor && l < new.hosts_per_tor).then(|| t * new.hosts_per_tor + l)
            }
            NodeClass::Tor(t) => (t < new.n_tor).then(|| new.n_hosts() + t),
            NodeClass::Leaf(l) => (l < new.n_leaf).then(|| new.n_hosts() + new.n_tor + l),
        }
    };
    let map_port = |node: NodeId, port: usize| -> Option<usize> {
        match port_valid(old, node, port)? {
            PortClass::HostUplink => Some(0),
            PortClass::TorDown(l) => (l < new.hosts_per_tor).then_some(l),
            PortClass::TorUp(l) => (l < new.n_leaf).then(|| new.hosts_per_tor + l),
            PortClass::LeafDown(t) => (t < new.n_tor).then_some(t),
        }
    };

    let mut workload = Vec::with_capacity(point.workload.len());
    for f in &point.workload {
        workload.push(FlowSpec {
            src: map_node(f.src)?,
            dst: map_node(f.dst)?,
            ..*f
        });
    }
    let collective = match &point.collective {
        None => None,
        Some(c) => {
            let workers = c
                .workers
                .iter()
                .map(|&w| map_node(w))
                .collect::<Option<Vec<_>>>()?;
            Some(CollectiveSpec {
                workers,
                ..c.clone()
            })
        }
    };
    let mut faults = FaultPlan::new(point.faults.seed);
    for ev in point.faults.events() {
        let mut ev = *ev;
        ev.port = map_port(ev.node, ev.port)?;
        ev.node = map_node(ev.node)?;
        faults.push(ev);
    }
    let out = HuntPoint {
        topo: TopoSpec::TwoTier(new),
        workload,
        collective,
        faults,
        params: point.params,
        seed: point.seed,
    };
    out.validate().ok()?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraleon_workloads::CollectiveKind;
    use serde::Value;

    /// Overwrite the value at `path` (object keys, array indices).
    fn set(v: &mut Value, path: &[&str], to: Value) {
        let Some((head, rest)) = path.split_first() else {
            *v = to;
            return;
        };
        let child = match v {
            Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == head).map(|(_, c)| c),
            Value::Array(items) => items.get_mut(head.parse::<usize>().expect("index")),
            _ => None,
        };
        set(child.expect("path exists"), rest, to);
    }

    fn spec() -> ClosSpec {
        ClosSpec {
            n_tor: 2,
            hosts_per_tor: 4,
            n_leaf: 2,
            host_gbps: 100.0,
            uplink_gbps: 100.0,
            delay_ns: 5_000,
        }
    }

    fn point() -> HuntPoint {
        let mut faults = FaultPlan::new(7);
        faults.link_flap(8, 4, 1_000_000, 200_000, 500_000, 2);
        faults.pfc_storm(0, 2_000_000, 3_000_000);
        HuntPoint {
            topo: TopoSpec::TwoTier(spec()),
            workload: vec![
                FlowSpec {
                    src: 0,
                    dst: 4,
                    bytes: 1_000_000,
                    start: 0,
                    count: 10,
                    gap: 1_000_000,
                },
                FlowSpec {
                    src: 5,
                    dst: 1,
                    bytes: 500_000,
                    start: 100_000,
                    count: 3,
                    gap: 2_000_000,
                },
            ],
            collective: None,
            faults,
            params: DcqcnParams::expert(),
            seed: 42,
        }
    }

    #[test]
    fn genome_round_trips_through_value() {
        let p = point();
        let back = HuntPoint::from_value(&p.serialize_value()).unwrap();
        assert_eq!(back, p);
        // A count that does not fit its `u32` is refused, not wrapped to 1.
        let mut v = p.serialize_value();
        set(
            &mut v,
            &["workload", "1", "count"],
            Value::UInt(4_294_967_297),
        );
        let err = HuntPoint::from_value(&v).unwrap_err();
        assert_eq!(
            err,
            "HuntPoint.workload: [1]: FlowSpec.count: expected a u32"
        );
    }

    #[test]
    fn expansion_is_spec_then_repetition_ordered() {
        let flows = point().expand_flows();
        assert_eq!(flows.len(), 13);
        assert_eq!(flows[0], (0, 4, 1_000_000, 0));
        assert_eq!(flows[1], (0, 4, 1_000_000, 1_000_000));
        assert_eq!(flows[10], (5, 1, 500_000, 100_000));
    }

    #[test]
    fn validate_rejects_out_of_range_targets() {
        let mut p = point();
        p.workload[0].dst = 99;
        assert!(p.validate().is_err());
        let mut p = point();
        p.faults.link_down(0, 50, 0);
        assert!(p.validate().is_err());
        let mut p = point();
        p.workload[1].count = 0;
        assert!(p.validate().is_err(), "empty flow");
    }

    #[test]
    fn remap_keeps_classes_and_rejects_overflow() {
        let p = point();
        // Shrink to 2×2 hosts, 1 leaf: flows touching local index >= 2
        // or the second uplink must fail; a fitting point remaps.
        let small = ClosSpec {
            hosts_per_tor: 2,
            n_leaf: 1,
            ..spec()
        };
        let mut unfit = p.clone();
        unfit.workload[0].dst = 2; // ToR0 local index 2 — gone at 2 hosts/ToR
        assert!(remap_point(&unfit, small).is_none(), "host 2 cannot fit");

        let mut fits = p.clone();
        fits.workload = vec![FlowSpec {
            src: 0,
            dst: 4,
            bytes: 1_000,
            start: 0,
            count: 1,
            gap: 0,
        }];
        fits.faults = {
            let mut f = FaultPlan::new(1);
            f.link_down(1_000, 8, 4); // ToR0 uplink to leaf 0
            f.pfc_storm(0, 10, 20);
            f
        };
        let got = remap_point(&fits, small).expect("fits");
        assert_eq!(got.topo.n_hosts(), 4);
        // ToR0 is node 4 in the new layout; its leaf-0 uplink is port 2.
        assert_eq!(got.faults.events()[0].node, 4);
        assert_eq!(got.faults.events()[0].port, 2);
        // Host 0 stays host 0; dst host 4 (ToR1 local 0) becomes 2.
        assert_eq!(got.workload[0].dst, 2);
    }

    fn collective() -> CollectiveSpec {
        CollectiveSpec {
            kind: CollectiveKind::RingAllreduce,
            workers: vec![0, 1, 4, 5],
            message_bytes: 500_000,
            microbatches: 2,
            rounds: Some(2),
            off_time: 1_000_000,
        }
    }

    #[test]
    fn collective_and_family_genomes_round_trip() {
        let mut p = point();
        p.collective = Some(collective());
        let back = HuntPoint::from_value(&p.serialize_value()).unwrap();
        assert_eq!(back, p);
        // Every kind survives the JSON text itself, and a bounded round
        // count is written as a bare number.
        for kind in CollectiveKind::ALL {
            p.collective = Some(CollectiveSpec {
                kind,
                ..collective()
            });
            let json = p.key();
            assert!(json.contains(&format!(r#""kind":"{kind:?}""#)), "{json}");
            assert!(json.contains(r#""rounds":2,"#), "{json}");
            let back = HuntPoint::from_value(&serde_json::from_str_value(&json).unwrap());
            assert_eq!(back, Ok(p.clone()));
        }
        let mut v = p.serialize_value();
        set(
            &mut v,
            &["collective", "rounds"],
            Value::UInt(4_294_967_297),
        );
        let err = HuntPoint::from_value(&v).unwrap_err();
        assert!(err.contains("CollectiveSpec.rounds"), "{err}");
        // A non-two-tier family round-trips too (faults dropped: the
        // rail fabric has a different port layout).
        let mut p = point();
        p.topo = TopoSpec::Rail(paraleon_netsim::RailSpec {
            n_rail: 2,
            n_server: 4,
            n_spine: 2,
            host_gbps: 100.0,
            uplink_gbps: 100.0,
            delay_ns: 5_000,
        });
        p.faults = FaultPlan::new(7);
        p.validate().expect("rail genome valid");
        let back = HuntPoint::from_value(&p.serialize_value()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn validate_rejects_bad_collectives() {
        let mut p = point();
        p.collective = Some(CollectiveSpec {
            workers: vec![0, 99],
            ..collective()
        });
        assert!(p.validate().is_err(), "worker out of range");
        p.collective = Some(CollectiveSpec {
            workers: vec![0, 0],
            ..collective()
        });
        assert!(p.validate().is_err(), "duplicate worker");
        p.collective = Some(CollectiveSpec {
            rounds: Some(0),
            ..collective()
        });
        assert!(p.validate().is_err(), "zero rounds");
        // Hunt evaluations must terminate: an unbounded collective is
        // refused, though the spec itself is valid.
        let unbounded = CollectiveSpec {
            rounds: None,
            ..collective()
        };
        assert_eq!(unbounded.validate(), Ok(()));
        p.collective = Some(unbounded);
        assert_eq!(
            p.validate(),
            Err("collective: unbounded rounds".to_string())
        );
    }

    #[test]
    fn remap_remaps_collective_workers() {
        let mut p = point();
        p.workload.truncate(1);
        p.faults = FaultPlan::new(1);
        p.collective = Some(CollectiveSpec {
            workers: vec![0, 4],
            ..collective()
        });
        let small = ClosSpec {
            hosts_per_tor: 2,
            n_leaf: 1,
            ..spec()
        };
        let got = remap_point(&p, small).expect("fits");
        // Host 4 (ToR1 local 0) becomes host 2 at 2 hosts/ToR.
        assert_eq!(got.collective.unwrap().workers, vec![0, 2]);
        // A worker that falls off the fabric fails the remap.
        p.collective = Some(CollectiveSpec {
            workers: vec![0, 2],
            ..collective()
        });
        assert!(remap_point(&p, small).is_none());
    }

    #[test]
    fn remap_clamps_zero_delay_for_shard_lookahead() {
        let p = point();
        let zero_delay = ClosSpec {
            delay_ns: 0,
            ..spec()
        };
        let got = remap_point(&p, zero_delay).expect("same shape fits");
        assert_eq!(got.topo.delay_ns(), 1, "delay must stay >= 1 ns");
        let topo = got.topo.build();
        let map = topo.shard_map(&topo.partition(2));
        assert!(
            topo.lookahead(&map).is_some_and(|d| d >= 1),
            "clamped spec keeps a usable parallel lookahead"
        );
    }
}
