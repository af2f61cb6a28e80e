//! NoRD — node-router decoupling (Chen & Pinkston, MICRO'12), the second
//! prior-art power-gating scheme the paper discusses: every node keeps a
//! bypass connecting its injection/ejection channels into a Hamiltonian
//! ring (`flov_noc::ring`), so a router can gate *regardless of adjacency
//! or connectivity* — packets from/to gated nodes ride the ring.
//!
//! Model (simplifications documented in DESIGN.md):
//! * gating policy: a router drains when its core is gated and the local
//!   port is idle; it wakes when its core reactivates (deliveries
//!   never need a wakeup — the ring reaches every NIC) or when ring-exit
//!   flits are stranded in its mesh-transfer queue: the ring freezes a
//!   flit's mesh-entry node at ingress, so the node can gate between
//!   ingress and arrival, and only powering the router back up can move
//!   the queued flits into the mesh;
//! * mesh routing between powered routers uses up*/down* tables over the
//!   powered subgraph, rebuilt instantly on power changes (generous to
//!   NoRD: its distributed reconfiguration cost is not charged);
//! * a packet to a gated destination D leaves the mesh at `proxy(D)` — the
//!   nearest powered node ring-upstream of D — and rides the ring to D's
//!   bypass ejection; a packet from a gated source rides the ring to the
//!   first powered node and enters the mesh there;
//! * when the mesh cannot help (no route / nothing powered), the ring
//!   alone delivers — NoRD's connectivity guarantee.

use crate::fsm::{audit_adjacent_drains, neighbor_draining, Gate, PowerFsm};
use crate::rp::updown;
use flov_noc::network::NetworkCore;
use flov_noc::routing::RouteCtx;
use flov_noc::traits::{PowerMechanism, PowerView};
use flov_noc::types::{Cycle, NodeId, Port, PowerState};

/// The NoRD mechanism. Requires `cfg.enable_ring` (and therefore a topology
/// that admits a Hamiltonian cycle — see `NocConfig::validate`).
pub struct Nord {
    fsm: PowerFsm,
    /// Ring predecessor map (for proxy computation).
    pred: Vec<NodeId>,
    /// up*/down* next hops over the powered subgraph.
    table: Vec<u8>,
    /// Power snapshot the table was built for.
    snapshot: Vec<PowerState>,
    wake_buf: Vec<NodeId>,
}

impl Nord {
    pub fn new(cfg: &flov_noc::NocConfig) -> Nord {
        assert!(cfg.enable_ring, "NoRD requires cfg.enable_ring");
        let succ = cfg
            .topology
            .ring_successors()
            .expect("NoRD bypass ring requires a Hamiltonian topology (see NocConfig::validate)");
        let n = cfg.nodes();
        let mut pred = vec![0 as NodeId; n];
        for (a, &b) in succ.iter().enumerate() {
            pred[b as usize] = a as NodeId;
        }
        Nord {
            fsm: PowerFsm::new(n, cfg.idle_threshold),
            pred,
            table: updown::build_table(cfg.kx(), cfg.ky(), &vec![true; n]),
            snapshot: vec![PowerState::Active; n],
            wake_buf: Vec::new(),
        }
    }

    /// Nearest powered node at or ring-upstream of `dst` (the mesh exit
    /// proxy for a gated destination). Returns `dst` itself if powered, or
    /// if nothing on the ring is powered.
    fn proxy(&self, net: &dyn PowerView, dst: NodeId) -> NodeId {
        let mut cur = dst;
        loop {
            if net.power(cur).is_powered() {
                return cur;
            }
            cur = self.pred[cur as usize];
            if cur == dst {
                return dst; // nothing powered: full ring delivery
            }
        }
    }

    fn rebuild_if_changed(&mut self, core: &NetworkCore) {
        let mut changed = false;
        for n in 0..core.nodes() {
            let p = core.power(n as NodeId);
            if self.snapshot[n] != p {
                self.snapshot[n] = p;
                changed = true;
            }
        }
        if changed {
            let on: Vec<bool> = self.snapshot.iter().map(|p| p.is_powered()).collect();
            self.table = updown::build_table(core.cfg.kx(), core.cfg.ky(), &on);
        }
    }
}

/// NoRD's gating rules: no adjacency or AON limits, but a router with
/// ring-exit flits stranded in its mesh-transfer queue neither drains nor
/// sleeps, and wakes to flush them (see the module docs). Deliveries never
/// need a wakeup — the ring reaches every NIC.
struct NordGate;

impl Gate for NordGate {
    fn may_drain(&self, core: &NetworkCore, n: NodeId) -> bool {
        !neighbor_draining(core, n) && !core.ring_transfer_pending(n)
    }

    fn may_sleep(&self, core: &NetworkCore, n: NodeId) -> bool {
        !core.ring_transfer_pending(n)
    }

    fn wants_wake(&self, core: &NetworkCore, n: NodeId) -> bool {
        core.router_core_active(n) || core.ring_transfer_pending(n)
    }
}

impl PowerMechanism for Nord {
    fn name(&self) -> &'static str {
        "NoRD"
    }

    fn step(&mut self, core: &mut NetworkCore) {
        // Defensive: drain any wakeup requests (routing never targets
        // sleeping routers under NoRD, so these should not occur).
        core.take_wakeup_requests(&mut self.wake_buf);
        self.fsm.step(core, &NordGate);
        self.rebuild_if_changed(core);
    }

    fn route(&self, net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
        let kx = ctx.kx;
        let at = ctx.at.y * kx + ctx.at.x;
        let dst = ctx.dst.y * kx + ctx.dst.x;
        if at == dst {
            return Some(Port::Local);
        }
        // Mesh target: the destination if powered, else its ring proxy.
        let target = if net.power(dst).is_powered() { dst } else { self.proxy(net, dst) };
        if target == at {
            // We are the proxy: eject to the bypass ring.
            return Some(Port::Local);
        }
        let n = net.nodes();
        let e = self.table[at as usize * n + target as usize];
        if e == updown::NO_ROUTE {
            // Mesh cannot reach the target (split powered subgraph): the
            // ring rescues — eject here and ride it the rest of the way.
            return Some(Port::Local);
        }
        let out = Port::from_index(e as usize);
        if out == ctx.in_port {
            // Power changes move the proxy and rebuild the up*/down* table
            // while packets are en route, so the fresh next hop can point
            // straight back where the flit came from. A mesh U-turn is
            // forbidden (livelock guard); let the ring rescue instead,
            // exactly like the NO_ROUTE case.
            return Some(Port::Local);
        }
        Some(out)
    }

    fn next_event(&self, core: &NetworkCore) -> Option<Cycle> {
        // Stranded ring transfers land only while the ring is live, which
        // keeps the fabric non-quiescent; only the power FSM self-schedules.
        self.fsm.next_event(core, &NordGate)
    }

    fn audit_state(&self, core: &NetworkCore, report: &mut dyn FnMut(String)) {
        audit_adjacent_drains(core, "NoRD", report);
        for n in 0..core.nodes() as NodeId {
            // The up*/down* table is rebuilt at the end of every step, so
            // between steps its power snapshot mirrors the fabric.
            if self.snapshot[n as usize] != core.power(n) {
                report(format!(
                    "NoRD routing table is stale: snapshot says {:?} for router {n} but power \
                     is {:?}",
                    self.snapshot[n as usize],
                    core.power(n)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flov_noc::network::Simulation;
    use flov_noc::traits::{PacketRequest, ScriptedWorkload};
    use flov_noc::{NocConfig, TopologySpec};

    fn cfg() -> NocConfig {
        NocConfig { enable_ring: true, ..NocConfig::small_test() }
    }

    fn gate_all_but(active: &[u16]) -> Vec<(u64, NodeId, bool)> {
        (0..16).filter(|n| !active.contains(n)).map(|n| (0u64, n, false)).collect()
    }

    #[test]
    fn odd_mesh_has_no_ring() {
        // The paper's critique of NoRD, as an API contract: an odd-radix
        // mesh admits no Hamiltonian cycle, so the config is rejected with
        // a structured error instead of a panic.
        let c = NocConfig {
            topology: TopologySpec::Mesh { k: 5 },
            enable_ring: true,
            ..NocConfig::default()
        };
        match flov_noc::network::NetworkCore::try_new(c) {
            Err(flov_noc::ConfigError::RingUnsupported { topology }) => {
                assert_eq!(topology, "mesh5x5");
            }
            Err(other) => panic!("expected RingUnsupported, got {other:?}"),
            Ok(_) => panic!("odd-radix mesh ring config must not validate"),
        }
    }

    #[test]
    fn torus_admits_a_ring_at_odd_radix() {
        // The wrap links remove NoRD's even-radix restriction: a 5x5 torus
        // has a Hamiltonian cycle, so the same config validates once the
        // topology is a torus (with the escape VC the torus requires).
        let c = NocConfig {
            topology: TopologySpec::Torus { k: 5 },
            enable_ring: true,
            ..NocConfig::default()
        };
        assert!(c.validate().is_ok());
        let _ = Nord::new(&c);
    }

    #[test]
    fn nord_gates_without_adjacency_or_aon_limits() {
        let c = cfg();
        let w = ScriptedWorkload::new(vec![]).with_core_events(gate_all_but(&[]));
        let mut sim = Simulation::new(c.clone(), Box::new(Nord::new(&c)), Box::new(w));
        sim.run(3_000);
        // Every single router sleeps — more than gFLOV (AON column) or
        // rFLOV (adjacency) can ever gate.
        let asleep = (0..16u16).filter(|&n| sim.core.power(n) == PowerState::Sleep).count();
        assert_eq!(asleep, 16, "NoRD should gate all routers of gated cores");
    }

    #[test]
    fn ring_delivers_between_gated_nodes() {
        // Source and destination both gated, everything else gated too:
        // pure ring delivery.
        let c = cfg();
        let gates = gate_all_but(&[]);
        let w = ScriptedWorkload::new(vec![(
            4_000,
            PacketRequest { src: 2, dst: 11, vnet: 0, len: 4 },
        )])
        .with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(Nord::new(&c)), Box::new(w));
        sim.run(3_500);
        assert!((0..16u16).all(|n| sim.core.power(n) == PowerState::Sleep));
        let end = sim.run_until_done(20_000);
        assert!(end < 20_000, "ring failed to deliver with all routers off");
        assert_eq!(sim.core.activity.packets_delivered, 1);
        assert!(sim.core.activity.ring_flits > 0);
        // No router woke up for the delivery.
        assert!((0..16u16).all(|n| sim.core.power(n) == PowerState::Sleep));
    }

    #[test]
    fn mesh_mixes_with_ring_for_gated_destination() {
        // Powered source, gated destination: mesh to the proxy, ring to D.
        let c = cfg();
        let gates = vec![(0u64, 10u16, false)];
        let w = ScriptedWorkload::new(vec![(
            2_000,
            PacketRequest { src: 0, dst: 10, vnet: 0, len: 4 },
        )])
        .with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(Nord::new(&c)), Box::new(w));
        sim.run(1_500);
        assert_eq!(sim.core.power(10), PowerState::Sleep);
        let end = sim.run_until_done(20_000);
        assert!(end < 20_000);
        assert_eq!(sim.core.activity.packets_delivered, 1);
        // Destination never woke (NoRD's defining property vs FLOV).
        assert_eq!(sim.core.power(10), PowerState::Sleep);
        assert!(sim.core.activity.ring_flits > 0);
    }

    #[test]
    fn gated_source_enters_mesh_at_first_powered_node() {
        let c = cfg();
        let gates = vec![(0u64, 5u16, false)];
        let w = ScriptedWorkload::new(vec![(
            2_000,
            PacketRequest { src: 5, dst: 15, vnet: 0, len: 4 },
        )])
        .with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(Nord::new(&c)), Box::new(w));
        sim.run(1_500);
        assert_eq!(sim.core.power(5), PowerState::Sleep);
        let end = sim.run_until_done(20_000);
        assert!(end < 20_000);
        assert_eq!(sim.core.activity.packets_delivered, 1);
        // The source stayed asleep: the bypass injected for it.
        assert_eq!(sim.core.power(5), PowerState::Sleep);
    }

    #[test]
    fn steady_traffic_under_heavy_gating() {
        let c = cfg();
        let gates = gate_all_but(&[0, 15]);
        let mut events = Vec::new();
        for i in 0..60u64 {
            events.push((2_000 + i * 23, PacketRequest { src: 0, dst: 15, vnet: 0, len: 4 }));
            events.push((2_000 + i * 29, PacketRequest { src: 15, dst: 0, vnet: 0, len: 4 }));
        }
        let w = ScriptedWorkload::new(events).with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(Nord::new(&c)), Box::new(w));
        let end = sim.run_until_done(60_000);
        assert!(end < 60_000);
        assert_eq!(sim.core.activity.packets_delivered, 120);
    }

    #[test]
    fn core_reactivation_wakes_router() {
        let c = cfg();
        let gates = vec![(0u64, 6u16, false), (4_000, 6, true)];
        let w = ScriptedWorkload::new(vec![]).with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(Nord::new(&c)), Box::new(w));
        sim.run(3_000);
        assert_eq!(sim.core.power(6), PowerState::Sleep);
        sim.run(3_000);
        assert_eq!(sim.core.power(6), PowerState::Active);
    }
}
