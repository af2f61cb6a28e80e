//! The FLOV power-gating mechanism: the distributed handshake protocols
//! (restricted and generalized, paper §IV) driving the router power FSM
//! (Fig. 2), combined with the partition-based dynamic routing of §V.
//!
//! Control is strictly local: every decision uses only the router's own
//! state, its PSR view of physical neighbors, and (for gFLOV) its logical
//! neighbors reached by relayed handshake signals. Timing costs of the
//! handshake — one cycle per signal hop, relaying across sleepers — are
//! modeled by requiring conditions to hold for a handshake-latency window
//! before a transition commits. The FSM itself is [`PowerFsm`]; this module
//! states the two protocols' rules as its [`Gate`].

use crate::fsm::{Gate, PowerFsm, HANDSHAKE_RTT};
use crate::routing::flov_route;
use flov_noc::network::NetworkCore;
use flov_noc::routing::RouteCtx;
use flov_noc::traits::{PowerMechanism, PowerView};
use flov_noc::types::{Cycle, Dir, NodeId, Port, PowerState};
use serde::{Deserialize, Serialize};

/// Which handshake protocol to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlovMode {
    /// rFLOV: no two physically adjacent routers may be power-gated; all
    /// handshakes are between physical neighbors.
    Restricted,
    /// gFLOV: consecutive routers may sleep; handshakes run between logical
    /// neighbors with signals relayed across the sleeping routers.
    Generalized,
}

/// Tunable protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlovParams {
    /// Cycles of local-port silence before a gated-core router tries to
    /// drain (paper: "waits ... for a certain number of cycles").
    pub idle_threshold: u32,
    /// Base handshake latency: the drain_done / wakeup signal exchange
    /// between immediate neighbors (one cycle out, one back).
    pub handshake_rtt: u32,
}

impl FlovParams {
    pub fn for_config(cfg: &flov_noc::NocConfig) -> FlovParams {
        FlovParams { idle_threshold: cfg.idle_threshold, handshake_rtt: HANDSHAKE_RTT }
    }
}

/// The FLOV mechanism (rFLOV or gFLOV).
pub struct Flov {
    rules: Rules,
    fsm: PowerFsm,
}

impl Flov {
    pub fn new(mode: FlovMode, params: FlovParams, nodes: usize) -> Flov {
        Flov { rules: Rules { mode, params }, fsm: PowerFsm::new(nodes, params.idle_threshold) }
    }

    /// rFLOV with parameters derived from the config.
    pub fn restricted(cfg: &flov_noc::NocConfig) -> Flov {
        Flov::new(FlovMode::Restricted, FlovParams::for_config(cfg), cfg.nodes())
    }

    /// gFLOV with parameters derived from the config.
    pub fn generalized(cfg: &flov_noc::NocConfig) -> Flov {
        Flov::new(FlovMode::Generalized, FlovParams::for_config(cfg), cfg.nodes())
    }
}

/// The handshake protocol's gating rules.
struct Rules {
    mode: FlovMode,
    params: FlovParams,
}

/// True if `node` sits in the always-on (AON) column, the grid's east edge
/// (the routing algorithm's East fallback relies on it).
fn is_aon(core: &NetworkCore, node: NodeId) -> bool {
    core.coord(node).x == core.cfg.kx() - 1
}

impl Gate for Rules {
    fn may_drain(&self, core: &NetworkCore, node: NodeId) -> bool {
        if is_aon(core, node) {
            return false;
        }
        match self.mode {
            FlovMode::Restricted => {
                // No physically adjacent router may be anything but Active:
                // this both enforces the no-two-consecutive-sleepers rule
                // and resolves simultaneous drain attempts (the in-order
                // scan means the smaller id transitioned first this cycle,
                // so the larger id sees Draining and backs off — the
                // paper's id-based arbitration).
                Dir::ALL.iter().all(|&d| {
                    core.neighbor(node, d).is_none_or(|m| core.power(m) == PowerState::Active)
                })
            }
            FlovMode::Generalized => {
                // Logical neighbors must not be Draining (Draining–Draining
                // forbidden; id arbitration via scan order) nor Wakeup
                // (Draining–Wakeup forbidden; Wakeup has priority).
                Dir::ALL.iter().all(|&d| {
                    core.logical_neighbor(node, d).is_none_or(|(m, _)| {
                        !matches!(core.power(m), PowerState::Draining | PowerState::Wakeup)
                    })
                })
            }
        }
    }

    fn may_wake(&self, core: &NetworkCore, node: NodeId) -> bool {
        match self.mode {
            FlovMode::Restricted => true,
            FlovMode::Generalized => {
                // A sleeper with a Draining logical neighbor defers its
                // wakeup until that drain resolves (paper §IV-B).
                Dir::ALL.iter().all(|&d| {
                    core.logical_neighbor(node, d)
                        .is_none_or(|(m, _)| core.power(m) != PowerState::Draining)
                })
            }
        }
    }

    /// Base RTT plus (gFLOV) the extra relay hops to the farthest logical
    /// neighbor.
    fn window(&self, core: &NetworkCore, node: NodeId) -> u32 {
        let mut w = self.params.handshake_rtt;
        if self.mode == FlovMode::Generalized {
            let mut extra = 0;
            for d in Dir::ALL {
                if let Some((_, hops)) = core.logical_neighbor(node, d) {
                    extra = extra.max(hops);
                }
            }
            w += extra;
        }
        w
    }

    /// HSC wire activations for one broadcast from `node` (one per physical
    /// neighbor, plus relay hops to logical neighbors under gFLOV).
    fn signals(&self, core: &NetworkCore, node: NodeId) -> u64 {
        let mut cost = 0u64;
        for d in Dir::ALL {
            if core.neighbor(node, d).is_none() {
                continue;
            }
            cost += 1;
            if self.mode == FlovMode::Generalized {
                if let Some((_, hops)) = core.logical_neighbor(node, d) {
                    cost += hops as u64;
                }
            }
        }
        cost
    }
}

impl PowerMechanism for Flov {
    fn name(&self) -> &'static str {
        match self.rules.mode {
            FlovMode::Restricted => "rFLOV",
            FlovMode::Generalized => "gFLOV",
        }
    }

    fn step(&mut self, core: &mut NetworkCore) {
        // Wakeup requests raised by blocked packets whose destination
        // router is asleep.
        self.fsm.wake_requested(core, &self.rules);
        self.fsm.step(core, &self.rules);
    }

    fn route(&self, _net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
        flov_route(ctx)
    }

    fn next_event(&self, core: &NetworkCore) -> Option<Cycle> {
        self.fsm.next_event(core, &self.rules)
    }

    fn audit_state(&self, core: &NetworkCore, report: &mut dyn FnMut(String)) {
        for n in 0..core.nodes() as NodeId {
            let p = core.power(n);
            // The always-on column never leaves Active (may_drain refuses
            // AON routers, so anything else is a protocol breach).
            if is_aon(core, n) && p != PowerState::Active {
                report(format!("AON router {n} is {p:?}; column must stay Active"));
            }
            match self.rules.mode {
                FlovMode::Restricted => {
                    // No two physically adjacent routers may be non-Active
                    // at the same time: drains start only with all-Active
                    // neighbors, and a Sleep->Wakeup flip never changes the
                    // non-Active set. Check each edge once (n < m).
                    if p == PowerState::Active {
                        continue;
                    }
                    for d in Dir::ALL {
                        if let Some(m) = core.neighbor(n, d) {
                            if m > n && core.power(m) != PowerState::Active {
                                report(format!(
                                    "rFLOV adjacency: routers {n} ({p:?}) and {m} ({:?}) are \
                                     physical neighbors and both non-Active",
                                    core.power(m)
                                ));
                            }
                        }
                    }
                }
                FlovMode::Generalized => {
                    // A Draining router may not have a Draining or Wakeup
                    // logical neighbor: may_drain refuses to start next
                    // to one, and may_wake defers wakeups
                    // beside an in-progress drain.
                    if p != PowerState::Draining {
                        continue;
                    }
                    for d in Dir::ALL {
                        if let Some((m, _)) = core.logical_neighbor(n, d) {
                            if matches!(core.power(m), PowerState::Draining | PowerState::Wakeup)
                                && (core.power(m) != PowerState::Draining || m > n)
                            {
                                report(format!(
                                    "gFLOV handshake: Draining router {n} has {:?} logical \
                                     neighbor {m}",
                                    core.power(m)
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flov_noc::baseline::AlwaysOnYx;
    use flov_noc::config::NocConfig;
    use flov_noc::network::Simulation;
    use flov_noc::traits::{PacketRequest, ScriptedWorkload, SilentWorkload};

    fn cfg() -> NocConfig {
        NocConfig::small_test() // 4x4, 1 vnet
    }

    fn gate_all_but(active: &[u16], k: u16) -> Vec<(u64, NodeId, bool)> {
        (0..k * k).filter(|n| !active.contains(n)).map(|n| (0u64, n, false)).collect()
    }

    #[test]
    fn idle_gated_cores_send_routers_to_sleep_gflov() {
        let c = cfg();
        let w = ScriptedWorkload::new(vec![]).with_core_events(gate_all_but(&[], 4));
        let mech = Flov::generalized(&c);
        let mut sim = Simulation::new(c, Box::new(mech), Box::new(w));
        sim.run(2_000);
        // Everything but the AON column (x = 3) should sleep.
        for n in 0..16u16 {
            let x = n % 4;
            if x == 3 {
                assert_eq!(sim.core.power(n), PowerState::Active, "AON router {n} gated");
            } else {
                assert_eq!(sim.core.power(n), PowerState::Sleep, "router {n} not gated");
            }
        }
    }

    #[test]
    fn rflov_never_gates_adjacent_routers() {
        let c = cfg();
        let w = ScriptedWorkload::new(vec![]).with_core_events(gate_all_but(&[], 4));
        let mech = Flov::restricted(&c);
        let mut sim = Simulation::new(c, Box::new(mech), Box::new(w));
        for _ in 0..2_000 {
            sim.step();
            for n in 0..16u16 {
                if sim.core.power(n) != PowerState::Sleep {
                    continue;
                }
                for d in Dir::ALL {
                    if let Some(m) = sim.core.neighbor(n, d) {
                        assert_ne!(
                            sim.core.power(m),
                            PowerState::Sleep,
                            "adjacent sleepers {n} and {m} under rFLOV"
                        );
                    }
                }
            }
        }
        // And rFLOV does gate *something*.
        let asleep = (0..16u16).filter(|&n| sim.core.power(n) == PowerState::Sleep).count();
        assert!(asleep >= 4, "rFLOV gated only {asleep} routers");
    }

    #[test]
    fn packet_flies_over_sleeping_row_segment() {
        let c = cfg();
        // Gate cores (1,1) and (2,1); keep senders/receivers in row 1 active.
        let gates = vec![(0u64, 5u16, false), (0u64, 6u16, false)];
        let w =
            ScriptedWorkload::new(vec![(1_500, PacketRequest { src: 4, dst: 7, vnet: 0, len: 4 })])
                .with_core_events(gates);
        let mech = Flov::generalized(&c);
        let mut sim = Simulation::new(c, Box::new(mech), Box::new(w));
        sim.run(1_400);
        assert_eq!(sim.core.power(5), PowerState::Sleep);
        assert_eq!(sim.core.power(6), PowerState::Sleep);
        let end = sim.run_until_done(20_000);
        assert!(end < 20_000, "packet not delivered over FLOV links");
        let s = &sim.core.stats;
        assert_eq!(s.packets, 1);
        assert_eq!(s.flov_hop_sum, 2, "expected exactly two FLOV latch hops");
        // Routers (1,1) and (2,1) stayed asleep: a through packet must not
        // wake them.
        assert_eq!(sim.core.power(5), PowerState::Sleep);
        assert_eq!(sim.core.power(6), PowerState::Sleep);
        // 2 powered routers (src, dst) + 2 FLOV hops; 3 links + ejection.
        assert_eq!(s.hop_sum, 2);
        assert_eq!(s.breakdown.flov, 2);
    }

    #[test]
    fn packet_to_sleeping_destination_wakes_it() {
        let c = cfg();
        let gates = vec![(0u64, 6u16, false)];
        let w =
            ScriptedWorkload::new(vec![(1_500, PacketRequest { src: 4, dst: 6, vnet: 0, len: 4 })])
                .with_core_events(gates);
        let mech = Flov::generalized(&c);
        let mut sim = Simulation::new(c, Box::new(mech), Box::new(w));
        sim.run(1_400);
        assert_eq!(sim.core.power(6), PowerState::Sleep);
        let end = sim.run_until_done(20_000);
        assert!(end < 20_000, "packet to sleeping router never delivered");
        assert_eq!(sim.core.stats.packets, 1);
        // The destination router woke up to take delivery, then (core still
        // gated, idle) eventually drains again.
        sim.run(2_000);
        assert_eq!(sim.core.power(6), PowerState::Sleep, "router did not re-gate after delivery");
    }

    #[test]
    fn core_reactivation_wakes_router() {
        let c = cfg();
        let gates = vec![(0u64, 5u16, false), (3_000u64, 5u16, true)];
        let w = ScriptedWorkload::new(vec![]).with_core_events(gates);
        let mech = Flov::generalized(&c);
        let mut sim = Simulation::new(c, Box::new(mech), Box::new(w));
        sim.run(2_000);
        assert_eq!(sim.core.power(5), PowerState::Sleep);
        sim.run(2_000);
        assert_eq!(sim.core.power(5), PowerState::Active);
    }

    #[test]
    fn gflov_gates_more_than_rflov() {
        let all_gated = gate_all_but(&[], 4);
        let count_asleep = |mode: FlovMode| {
            let mech = Flov::new(mode, FlovParams::for_config(&cfg()), 16);
            let w = ScriptedWorkload::new(vec![]).with_core_events(all_gated.clone());
            let mut sim = Simulation::new(cfg(), Box::new(mech), Box::new(w));
            sim.run(3_000);
            (0..16u16).filter(|&n| sim.core.power(n) == PowerState::Sleep).count()
        };
        let r = count_asleep(FlovMode::Restricted);
        let g = count_asleep(FlovMode::Generalized);
        assert!(g > r, "gFLOV ({g}) should gate more than rFLOV ({r})");
        assert_eq!(g, 12); // all but the AON column
    }

    #[test]
    fn active_cores_keep_routers_on() {
        let c = cfg();
        let w = SilentWorkload;
        let mech = Flov::generalized(&c);
        let mut sim = Simulation::new(c, Box::new(mech), Box::new(w));
        sim.run(2_000);
        for n in 0..16u16 {
            assert_eq!(sim.core.power(n), PowerState::Active);
        }
    }

    #[test]
    fn baseline_name_vs_flov_names() {
        assert_eq!(Flov::restricted(&cfg()).name(), "rFLOV");
        assert_eq!(Flov::generalized(&cfg()).name(), "gFLOV");
        assert_eq!(AlwaysOnYx.name(), "Baseline");
    }

    #[test]
    fn traffic_between_active_cores_delivered_under_heavy_gating() {
        let c = cfg();
        // Only nodes 0 and 15 active; everything else gated.
        let gates = gate_all_but(&[0, 15], 4);
        let mut events = Vec::new();
        for i in 0..50u64 {
            events.push((2_000 + i * 17, PacketRequest { src: 0, dst: 15, vnet: 0, len: 4 }));
            events.push((2_000 + i * 19, PacketRequest { src: 15, dst: 0, vnet: 0, len: 4 }));
        }
        let w = ScriptedWorkload::new(events).with_core_events(gates);
        let mech = Flov::generalized(&c);
        let mut sim = Simulation::new(c, Box::new(mech), Box::new(w));
        let end = sim.run_until_done(60_000);
        assert!(end < 60_000, "packets lost under heavy gating");
        assert_eq!(sim.core.activity.packets_delivered, 100);
    }
}
