//! Genome mutation operators, targeted by oracle kind.
//!
//! Collie's insight is that anomaly search needs *directed* mutation:
//! random scenario soup rarely trips a pause storm, but "pile an incast
//! onto one ToR and slow its uplink" does. Each [`OracleKind`] therefore
//! gets its own operator palette — a storm hunt favors incasts, host
//! PFC storms and uplink degrades; a livelock hunt favors corruption
//! windows and starvation-prone parameter extremes — on top of a shared
//! pool of generic tweaks. All randomness flows from the caller's seeded
//! RNG, so hunts replay exactly.

use rand::rngs::StdRng;
use rand::Rng;

use paraleon_dcqcn::{ParamSpace, ALL_PARAMS};
use paraleon_netsim::{FaultPlan, Nanos, NodeId, TopoSpec};

use crate::genome::{GenomeCaps, HuntPoint};
use crate::oracle::OracleKind;

/// Time quantum for generated starts/durations (ns). Coarse times keep
/// genomes readable and give the minimizer fewer distinct values to
/// preserve.
const QUANTUM: Nanos = 100_000;

fn quantized(rng: &mut StdRng, lo: Nanos, hi: Nanos) -> Nanos {
    let lo_steps = lo / QUANTUM;
    let steps = (hi / QUANTUM).max(1).max(lo_steps);
    rng.gen_range(lo_steps..=steps) * QUANTUM
}

fn random_host(point: &HuntPoint, rng: &mut StdRng) -> NodeId {
    rng.gen_range(0..point.topo.n_hosts())
}

fn random_host_pair(point: &HuntPoint, rng: &mut StdRng) -> (NodeId, NodeId) {
    let n = point.topo.n_hosts();
    let src = rng.gen_range(0..n);
    let mut dst = rng.gen_range(0..n - 1);
    if dst >= src {
        dst += 1;
    }
    (src, dst)
}

/// A random existing `(node, port)` edge endpoint, weighted toward the
/// contended ones (switch ports over host uplinks, 3:1). Sampling the
/// built graph instead of two-tier index arithmetic keeps the operator
/// correct for every topology family.
fn random_edge(point: &HuntPoint, rng: &mut StdRng) -> (NodeId, usize) {
    let t = point.topo.build();
    if rng.gen_range(0u32..4) == 0 {
        // A host's uplink.
        (rng.gen_range(0..t.n_hosts()), 0)
    } else {
        // Any switch port (down-ports and uplinks alike).
        let sw = rng.gen_range(t.n_hosts()..t.n_nodes());
        (sw, rng.gen_range(0..t.ports(sw).len()))
    }
}

/// The individual operators. Each returns `true` when it changed the
/// point (an op can be a no-op when a cap is already saturated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Nudge one DCQCN parameter by a random factor, clamped to the
    /// standard space.
    TweakParam,
    /// Pin one DCQCN parameter to its min or max.
    ExtremeParam,
    /// Toggle target-rate clamping.
    FlipClamp,
    /// Add one random flow spec.
    AddFlow,
    /// Remove one flow spec.
    DropFlow,
    /// Add a many-to-one incast onto a single destination.
    AddIncast,
    /// Double one spec's repetition count.
    BoostCount,
    /// Double one spec's flow size.
    BoostBytes,
    /// Flap a random edge.
    AddFlap,
    /// Degrade a random edge hard.
    AddDegrade,
    /// Open a packet-corruption window on a random edge.
    AddLoss,
    /// A host asserts a sustained PFC storm.
    AddStorm,
    /// Impair the control-plane channel (loss/delay/duplication on one
    /// or both lanes).
    AddCtrlImpair,
    /// Kill the controller (warm or cold restart).
    AddCtrlCrash,
    /// Remove one fault event.
    DropFault,
    /// Re-seed the simulator RNG.
    Reseed,
    /// Swap the topology family (two-tier ↔ rail/mixed-rate/three-tier),
    /// preserving the host count; fault events that don't fit the new
    /// port layout are dropped.
    SwapTopoFamily,
    /// Attach a barrier-synchronized collective (or re-roll the existing
    /// one's kind).
    AddCollective,
    /// Detach the collective.
    DropCollective,
}

/// Generic pool every hunt draws from.
const GENERIC: &[Op] = &[
    Op::TweakParam,
    Op::AddFlow,
    Op::DropFlow,
    Op::BoostCount,
    Op::BoostBytes,
    Op::DropFault,
    Op::Reseed,
    Op::FlipClamp,
    Op::SwapTopoFamily,
    Op::AddCollective,
    Op::DropCollective,
];

/// Kind-targeted palette, mixed 50/50 with [`GENERIC`].
fn palette(kind: OracleKind) -> &'static [Op] {
    match kind {
        OracleKind::GoodputCollapse => &[
            Op::AddFlap,
            Op::AddDegrade,
            Op::AddLoss,
            Op::ExtremeParam,
            Op::AddIncast,
        ],
        OracleKind::PfcStorm => &[
            Op::AddIncast,
            Op::AddStorm,
            Op::AddDegrade,
            Op::BoostCount,
            Op::ExtremeParam,
            // Barrier-synchronized waves are the natural incast machine.
            Op::AddCollective,
        ],
        OracleKind::Unfairness => &[
            Op::AddDegrade,
            Op::AddLoss,
            Op::AddIncast,
            Op::ExtremeParam,
            Op::AddStorm,
            // Rail/mixed-rate planes skew path capacity between ranks.
            Op::SwapTopoFamily,
        ],
        OracleKind::AuditViolation => &[
            Op::AddStorm,
            Op::AddFlap,
            Op::AddLoss,
            Op::AddIncast,
            Op::AddDegrade,
        ],
        OracleKind::Livelock => &[
            Op::AddLoss,
            Op::AddStorm,
            Op::ExtremeParam,
            Op::AddIncast,
            Op::AddFlap,
        ],
        // The divergence oracle only judges candidates carrying ctrl
        // faults, so its palette is dominated by the two ctrl injectors
        // (AddCtrlImpair twice: weight it over the crash op) plus enough
        // traffic churn to keep dispatches flowing.
        OracleKind::CtrlDivergence => &[
            Op::AddCtrlImpair,
            Op::AddCtrlCrash,
            Op::AddCtrlImpair,
            Op::AddIncast,
            Op::BoostCount,
        ],
    }
}

/// Restore `k_min <= k_max` after a parameter mutation by swapping the
/// thresholds — an inverted pair fails [`HuntPoint::validate`] (the
/// simulator asserts the ordering at admission), and swapping keeps the
/// mutated value in play instead of discarding the operator's work.
fn repair_marking_thresholds(p: &mut HuntPoint) {
    if p.params.k_min > p.params.k_max {
        std::mem::swap(&mut p.params.k_min, &mut p.params.k_max);
    }
}

fn apply(op: Op, p: &mut HuntPoint, caps: &GenomeCaps, rng: &mut StdRng) -> bool {
    let space = ParamSpace::standard();
    match op {
        Op::TweakParam => {
            let id = ALL_PARAMS[rng.gen_range(0..ALL_PARAMS.len())];
            let spec = space.spec(id);
            let factor = rng.gen_range(0.25f64..4.0);
            p.params.set(id, spec.clamp(p.params.get(id) * factor));
            repair_marking_thresholds(p);
            true
        }
        Op::ExtremeParam => {
            let id = ALL_PARAMS[rng.gen_range(0..ALL_PARAMS.len())];
            let spec = space.spec(id);
            let v = if rng.gen_bool(0.5) {
                spec.min
            } else {
                spec.max
            };
            p.params.set(id, spec.clamp(v));
            repair_marking_thresholds(p);
            true
        }
        Op::FlipClamp => {
            p.params.clamp_tgt_rate = !p.params.clamp_tgt_rate;
            true
        }
        Op::AddFlow => {
            if p.workload.len() >= caps.max_flow_specs {
                return false;
            }
            let (src, dst) = random_host_pair(p, rng);
            p.workload.push(crate::genome::FlowSpec {
                src,
                dst,
                bytes: rng.gen_range(8u64..=caps.max_flow_bytes / 1024) * 1024,
                start: quantized(rng, 0, caps.horizon / 2),
                count: rng.gen_range(1..=caps.max_count / 4),
                gap: quantized(rng, QUANTUM, caps.horizon / 8),
            });
            true
        }
        Op::DropFlow => {
            if p.workload.len() <= 1 {
                return false;
            }
            let i = rng.gen_range(0..p.workload.len());
            p.workload.remove(i);
            true
        }
        Op::AddIncast => {
            let dst = random_host(p, rng);
            let fanin = rng.gen_range(2usize..=4);
            let start = quantized(rng, 0, caps.horizon / 2);
            let mut added = false;
            for _ in 0..fanin {
                if p.workload.len() >= caps.max_flow_specs {
                    break;
                }
                let n = p.topo.n_hosts();
                let mut src = rng.gen_range(0..n - 1);
                if src >= dst {
                    src += 1;
                }
                p.workload.push(crate::genome::FlowSpec {
                    src,
                    dst,
                    bytes: rng.gen_range(64u64..=caps.max_flow_bytes / 1024) * 1024,
                    start,
                    count: rng.gen_range(2..=caps.max_count / 2),
                    gap: quantized(rng, QUANTUM, caps.horizon / 16),
                });
                added = true;
            }
            added
        }
        Op::BoostCount => {
            if p.workload.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..p.workload.len());
            let f = &mut p.workload[i];
            let new = (f.count * 2).min(caps.max_count);
            let changed = new != f.count;
            f.count = new;
            changed
        }
        Op::BoostBytes => {
            if p.workload.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..p.workload.len());
            let f = &mut p.workload[i];
            let new = (f.bytes * 2).min(caps.max_flow_bytes);
            let changed = new != f.bytes;
            f.bytes = new;
            changed
        }
        Op::AddFlap => {
            if p.faults.len() + 4 > caps.max_fault_events {
                return false;
            }
            let (node, port) = random_edge(p, rng);
            let first = quantized(rng, 0, caps.horizon / 2);
            let period = quantized(rng, 2 * QUANTUM, caps.horizon / 8).max(2 * QUANTUM);
            let down_for = (period / 2).max(QUANTUM).min(period - QUANTUM);
            p.faults.link_flap(node, port, first, down_for, period, 2);
            true
        }
        Op::AddDegrade => {
            if p.faults.len() >= caps.max_fault_events {
                return false;
            }
            let (node, port) = random_edge(p, rng);
            let at = quantized(rng, 0, caps.horizon / 2);
            let factor = rng.gen_range(0.02f64..0.3);
            p.faults.degrade(at, node, port, factor);
            true
        }
        Op::AddLoss => {
            if p.faults.len() + 2 > caps.max_fault_events {
                return false;
            }
            let (node, port) = random_edge(p, rng);
            let at = quantized(rng, 0, caps.horizon / 2);
            let until = at + quantized(rng, QUANTUM, caps.horizon / 4).max(QUANTUM);
            let prob = rng.gen_range(0.02f64..0.4);
            p.faults.pkt_loss(at, until, node, port, prob);
            true
        }
        Op::AddStorm => {
            if p.faults.len() + 2 > caps.max_fault_events {
                return false;
            }
            let host = random_host(p, rng);
            let start = quantized(rng, 0, caps.horizon / 2);
            let end = start + quantized(rng, QUANTUM, caps.horizon / 3).max(QUANTUM);
            p.faults.pfc_storm(host, start, end);
            true
        }
        Op::AddCtrlImpair => {
            if p.faults.len() >= caps.max_fault_events {
                return false;
            }
            let at = quantized(rng, 0, caps.horizon / 2);
            // At least one lane is always selected; the down (dispatch)
            // lane is the one the epoch protocol defends, so bias there.
            let up = rng.gen_bool(0.5);
            let down = !up || rng.gen_bool(0.7);
            let loss = rng.gen_range(0.1f64..0.6);
            let delay_max = rng.gen_range(0u64..=3);
            let dup = rng.gen_range(0.0f64..0.3);
            p.faults.ctrl_impair(at, up, down, loss, delay_max, dup);
            true
        }
        Op::AddCtrlCrash => {
            if p.faults.len() >= caps.max_fault_events {
                return false;
            }
            let at = quantized(rng, QUANTUM, caps.horizon / 2);
            p.faults.ctrl_crash(at, rng.gen_bool(0.5));
            true
        }
        Op::DropFault => {
            if p.faults.is_empty() {
                return false;
            }
            let i = rng.gen_range(0..p.faults.len());
            let mut faults = FaultPlan::new(p.faults.seed);
            for (j, ev) in p.faults.events().iter().enumerate() {
                if j != i {
                    faults.push(*ev);
                }
            }
            p.faults = faults;
            true
        }
        Op::Reseed => {
            p.seed = rng.gen_range(0u64..1 << 32);
            true
        }
        Op::SwapTopoFamily => {
            // Re-express the current fabric in a different family with
            // the same host count, so every workload endpoint and
            // collective rank survives the swap. The rail and mixed-rate
            // families share the two-tier port layout; the three-tier
            // family does not, so fault events that no longer address a
            // real port are dropped afterwards.
            let base = p.topo.to_two_tier();
            let choices = [
                TopoSpec::TwoTier(base),
                TopoSpec::Rail(paraleon_netsim::RailSpec {
                    n_rail: base.n_tor,
                    n_server: base.hosts_per_tor,
                    n_spine: base.n_leaf,
                    host_gbps: base.host_gbps,
                    uplink_gbps: base.uplink_gbps,
                    delay_ns: base.delay_ns,
                }),
                TopoSpec::MixedRate(paraleon_netsim::MixedRateSpec {
                    n_tor: base.n_tor,
                    hosts_per_tor: base.hosts_per_tor,
                    n_leaf: base.n_leaf,
                    host_gbps: base.host_gbps,
                    fast_gbps: base.uplink_gbps,
                    slow_gbps: (base.uplink_gbps / 4.0).max(1.0),
                    delay_ns: base.delay_ns,
                }),
                TopoSpec::ThreeTier(paraleon_netsim::ThreeTierSpec {
                    n_pod: base.n_tor,
                    tors_per_pod: 1,
                    hosts_per_tor: base.hosts_per_tor,
                    aggs_per_pod: base.n_leaf,
                    spines_per_agg: 1,
                    host_gbps: base.host_gbps,
                    agg_gbps: base.uplink_gbps,
                    spine_gbps: base.uplink_gbps,
                    delay_ns: base.delay_ns,
                }),
            ];
            let new = choices[rng.gen_range(0..choices.len())];
            if new == p.topo {
                return false;
            }
            p.topo = new;
            // Keep only fault events the new fabric can address.
            let topo = p.topo.build();
            let n_hosts = topo.n_hosts();
            let mut faults = FaultPlan::new(p.faults.seed);
            for ev in p.faults.events() {
                let port_ok = ev.node < topo.n_nodes() && ev.port < topo.ports(ev.node).len();
                let storm_ok = !matches!(
                    ev.kind,
                    paraleon_netsim::FaultKind::PfcStormStart
                        | paraleon_netsim::FaultKind::PfcStormEnd
                ) || ev.node < n_hosts;
                if port_ok && storm_ok {
                    faults.push(*ev);
                }
            }
            p.faults = faults;
            true
        }
        Op::AddCollective => {
            let n = p.topo.n_hosts();
            if n < 2 {
                return false;
            }
            // A small distinct-rank set via partial Fisher-Yates.
            let k = rng.gen_range(2..=n.min(6));
            let mut hosts: Vec<NodeId> = (0..n).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n);
                hosts.swap(i, j);
            }
            hosts.truncate(k);
            let kinds = crate::genome::ALL_COLLECTIVES;
            p.collective = Some(crate::genome::CollectiveSpec {
                kind: kinds[rng.gen_range(0..kinds.len())],
                workers: hosts,
                message_bytes: rng.gen_range(64u64..=caps.max_flow_bytes / 1024) * 1024,
                rounds: rng.gen_range(1..=3),
                off_time: quantized(rng, QUANTUM, caps.horizon / 8),
            });
            true
        }
        Op::DropCollective => p.collective.take().is_some(),
    }
}

/// A fresh random starting point: a small fabric with a couple of flow
/// specs and no faults — deliberately bland, so whatever the search
/// finds is attributable to mutation pressure, not a loaded seed.
pub fn seed_point(caps: &GenomeCaps, rng: &mut StdRng) -> HuntPoint {
    let topo = TopoSpec::TwoTier(paraleon_netsim::ClosSpec {
        n_tor: rng.gen_range(2..=caps.max_tor),
        hosts_per_tor: rng.gen_range(2..=caps.max_hosts_per_tor),
        n_leaf: rng.gen_range(1..=caps.max_leaf),
        host_gbps: 100.0,
        uplink_gbps: if rng.gen_bool(0.5) { 100.0 } else { 200.0 },
        delay_ns: 4_000,
    });
    let mut point = HuntPoint {
        topo,
        workload: Vec::new(),
        collective: None,
        faults: FaultPlan::new(rng.gen_range(0u64..1 << 32)),
        params: paraleon_dcqcn::DcqcnParams::nvidia_default(),
        seed: rng.gen_range(0u64..1 << 32),
    };
    for _ in 0..2 {
        apply(Op::AddFlow, &mut point, caps, rng);
    }
    point
}

/// Mutate `base` toward `target`: 1–3 operators drawn from the target's
/// palette mixed with the generic pool. The result always satisfies
/// [`HuntPoint::validate`]; ops that cannot apply (saturated caps) are
/// skipped, and if nothing applied the point is re-seeded instead of
/// returned unchanged (a duplicate would waste an evaluation).
pub fn mutate(
    base: &HuntPoint,
    target: OracleKind,
    caps: &GenomeCaps,
    rng: &mut StdRng,
) -> HuntPoint {
    let targeted = palette(target);
    let mut point = base.clone();
    let n_ops = rng.gen_range(1usize..=3);
    let mut changed = false;
    for _ in 0..n_ops {
        let op = if rng.gen_bool(0.5) {
            targeted[rng.gen_range(0..targeted.len())]
        } else {
            GENERIC[rng.gen_range(0..GENERIC.len())]
        };
        changed |= apply(op, &mut point, caps, rng);
    }
    debug_assert!(point.validate().is_ok(), "mutation broke the genome");
    if !changed || point.validate().is_err() {
        return seed_point(caps, rng);
    }
    point
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ALL_ORACLES;
    use rand::SeedableRng;

    #[test]
    fn mutants_stay_valid_and_capped() {
        let caps = GenomeCaps::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut p = seed_point(&caps, &mut rng);
        for i in 0..300 {
            let kind = ALL_ORACLES[i % ALL_ORACLES.len()];
            p = mutate(&p, kind, &caps, &mut rng);
            p.validate().expect("mutant valid");
            assert!(p.workload.len() <= caps.max_flow_specs);
            assert!(p.faults.len() <= caps.max_fault_events);
            for f in &p.workload {
                assert!(f.bytes <= caps.max_flow_bytes && f.count <= caps.max_count);
            }
        }
    }

    #[test]
    fn ctrl_palette_injects_valid_control_plane_faults() {
        let caps = GenomeCaps::default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = seed_point(&caps, &mut rng);
        let mut saw_impair = false;
        let mut saw_crash = false;
        for _ in 0..200 {
            p = mutate(&p, OracleKind::CtrlDivergence, &caps, &mut rng);
            p.validate().expect("ctrl mutant valid");
            assert!(p.faults.len() <= caps.max_fault_events);
            for ev in p.faults.events() {
                match ev.kind {
                    paraleon_netsim::FaultKind::CtrlImpair {
                        up,
                        down,
                        loss,
                        dup,
                        ..
                    } => {
                        saw_impair = true;
                        assert!(up || down, "an impairment must select a lane");
                        assert!((0.0..=1.0).contains(&loss));
                        assert!((0.0..=1.0).contains(&dup));
                    }
                    paraleon_netsim::FaultKind::CtrlCrash { .. } => saw_crash = true,
                    _ => {}
                }
            }
        }
        assert!(saw_impair, "palette must reach AddCtrlImpair");
        assert!(saw_crash, "palette must reach AddCtrlCrash");
    }

    #[test]
    fn mutation_is_deterministic_in_the_seed() {
        let caps = GenomeCaps::default();
        let mk = || {
            let mut rng = StdRng::seed_from_u64(99);
            let mut p = seed_point(&caps, &mut rng);
            for _ in 0..50 {
                p = mutate(&p, OracleKind::PfcStorm, &caps, &mut rng);
            }
            p.key()
        };
        assert_eq!(mk(), mk());
    }
}
