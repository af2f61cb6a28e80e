//! Power Punch (Chen, Zhu, Pedram & Pinkston, HPCA'15) — the third prior
//! power-gating scheme the paper's §II discusses: "a performance-aware,
//! non-blocking power-gating scheme that wakes up powered-off routers along
//! the path of a packet in advance, thereby preventing the packet from
//! suffering router wakeup latency".
//!
//! Model: routers gate freely (no adjacency/AON/connectivity constraints —
//! wake-on-demand provides connectivity); when a packet enters a NIC queue,
//! the mechanism immediately sends *power punches* (wake signals) to every
//! sleeping router on the packet's YX path, so the ~10-cycle wakeup ramp
//! overlaps with the packet's injection serialization and upstream hops.
//! Routing is plain YX; a packet whose next hop is not yet Active simply
//! waits at its current router (there are no FLOV latches and no bypass
//! ring in this scheme, so nothing ever flies over a gated router).
//!
//! Run it with `NocConfig { escape_vcs: 0, .. }`: YX is deadlock-free on
//! its own and a `route() == None` must mean "wait for the punched wakeup",
//! not "divert to the escape network" ([`punch_config`] does this).
//!
//! The interesting trade vs FLOV, which the tests and the `punch` binary
//! quantify: Power Punch keeps latency near Baseline like FLOV does, but
//! every through-packet forces a wake/re-drain cycle of intermediate
//! routers (gating-event energy + powered residency), where FLOV's latches
//! let them stay asleep.

use crate::fsm::{audit_adjacent_drains, neighbor_draining, Gate, PowerFsm, DRAIN_TIMEOUT};
use flov_noc::network::NetworkCore;
use flov_noc::routing::{yx_route, RouteCtx};
use flov_noc::traits::{PowerMechanism, PowerView};
use flov_noc::types::{Coord, Cycle, NodeId, PacketId, Port, PowerState};

/// Configuration adjustments Power Punch needs: no escape VCs (waiting on a
/// punched wakeup must not divert to the FLOV escape network).
pub fn punch_config(base: &flov_noc::NocConfig) -> flov_noc::NocConfig {
    flov_noc::NocConfig {
        escape_vcs: 0,
        // Keep the total VC count comparable.
        regular_vcs: base.regular_vcs + base.escape_vcs,
        ..base.clone()
    }
}

/// Cycles a punched router stays awake after its punch, so the punched
/// packet can actually pass before the idle detector re-drains it.
const PUNCH_HOLD: u64 = 48;

/// The Power Punch mechanism.
pub struct PowerPunch {
    fsm: PowerFsm,
    /// Packets whose paths have already been punched.
    punched: std::collections::HashSet<PacketId>,
    /// Persistent scratch for the punch/re-punch scans (kept across cycles
    /// so the steady-state control step never allocates).
    to_punch: Vec<(NodeId, NodeId)>,
    to_repunch: Vec<(NodeId, NodeId)>,
}

impl PowerPunch {
    pub fn new(cfg: &flov_noc::NocConfig) -> PowerPunch {
        assert_eq!(cfg.escape_vcs, 0, "Power Punch requires escape_vcs = 0 (see punch_config)");
        PowerPunch {
            fsm: PowerFsm::new(cfg.nodes(), cfg.idle_threshold),
            punched: std::collections::HashSet::new(),
            to_punch: Vec::new(),
            to_repunch: Vec::new(),
        }
    }

    /// Walk the YX path from `src` to `dst`, punching every non-active
    /// router (including the destination).
    fn punch_path(&mut self, core: &mut NetworkCore, src: NodeId, dst: NodeId) {
        let (kx, ky) = (core.cfg.kx(), core.cfg.ky());
        let mut at = Coord { x: src % kx, y: src / kx };
        let dstc = Coord { x: dst % kx, y: dst / kx };
        loop {
            let n = at.y * kx + at.x;
            self.fsm.hold(n, core.cycle + PUNCH_HOLD);
            match core.power(n) {
                PowerState::Sleep => {
                    self.fsm.wake(core, n, &PunchGate);
                    core.activity.handshake_signals += 1;
                }
                PowerState::Draining => {
                    // A punch overrides a drain in progress.
                    core.abort_drain(n);
                    core.activity.handshake_signals += 1;
                }
                _ => {}
            }
            let p = yx_route(at, dstc);
            let Some(d) = p.dir() else { break };
            at = flov_noc::topology::grid_step(at, d, kx, ky).expect("yx stays in the grid");
        }
    }
}

/// Power Punch's gating rule: routers gate freely (wake-on-demand provides
/// connectivity), but physically adjacent routers never drain at once.
/// Punched routers are held awake through [`PowerFsm::hold`].
struct PunchGate;

impl Gate for PunchGate {
    fn may_drain(&self, core: &NetworkCore, n: NodeId) -> bool {
        !neighbor_draining(core, n)
    }
}

impl PowerMechanism for PowerPunch {
    fn name(&self) -> &'static str {
        "PowerPunch"
    }

    fn step(&mut self, core: &mut NetworkCore) {
        let now = core.cycle;
        // Fallback wakeups (should be rare: punches precede packets).
        self.fsm.wake_requested(core, &PunchGate);
        // Punch the paths of newly queued packets.
        let mut to_punch = std::mem::take(&mut self.to_punch);
        for node in 0..core.nodes() {
            for q in &core.nics[node].queues {
                for pkt in q.iter() {
                    if !self.punched.contains(&pkt.id) {
                        to_punch.push((pkt.src, pkt.dst));
                        self.punched.insert(pkt.id);
                    }
                }
            }
        }
        for &(src, dst) in to_punch.iter() {
            self.punch_path(core, src, dst);
        }
        to_punch.clear();
        self.to_punch = to_punch;
        // Re-punch stalled packets. A punch holds routers awake only for
        // `PUNCH_HOLD` cycles, so a packet delayed in the mesh (VC
        // backpressure, congestion behind another wakeup ramp) can face a
        // next hop that re-drained after its original punch expired — and
        // `route()` then waits for a wakeup that is never coming. Any head
        // flit parked at a buffer front for a full drain-timeout window
        // gets its remaining YX path re-punched from where it stands, once
        // per window.
        let repunch_after = DRAIN_TIMEOUT;
        let mut to_repunch = std::mem::take(&mut self.to_repunch);
        for (n, r) in core.routers.iter().enumerate() {
            for (dst, head_since) in r.blocked_heads() {
                let waited = now.saturating_sub(head_since);
                if waited >= repunch_after && waited.is_multiple_of(repunch_after) {
                    to_repunch.push((n as NodeId, dst));
                }
            }
        }
        for &(at, dst) in to_repunch.iter() {
            self.punch_path(core, at, dst);
        }
        to_repunch.clear();
        self.to_repunch = to_repunch;
        self.fsm.step(core, &PunchGate);
        // Bound the punched-set memory (ids of long-delivered packets).
        if self.punched.len() > 100_000 {
            self.punched.clear();
        }
    }

    fn route(&self, net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
        let out = yx_route(ctx.at, ctx.dst);
        let Some(d) = out.dir() else { return Some(out) };
        // No bypass datapath: wait until the (punched) next hop is Active.
        let next =
            flov_noc::topology::grid_step(ctx.at, d, ctx.kx, ctx.ky).expect("yx stays in the grid");
        if net.power(next.y * ctx.kx + next.x) == PowerState::Active {
            Some(out)
        } else {
            None
        }
    }

    fn next_event(&self, core: &NetworkCore) -> Option<Cycle> {
        // The punch scans read NIC queues and router buffers, which
        // quiescence leaves empty; only the power FSM self-schedules.
        self.fsm.next_event(core, &PunchGate)
    }

    fn audit_state(&self, core: &NetworkCore, report: &mut dyn FnMut(String)) {
        // Power Punch runs without the escape network ([`punch_config`]):
        // a `route() == None` means "wait for the punched wakeup", and an
        // escape VC would turn that wait into a divert.
        if core.cfg.escape_vcs != 0 {
            report(format!(
                "PowerPunch requires escape_vcs == 0 (got {}); see punch_config",
                core.cfg.escape_vcs
            ));
        }
        for n in 0..core.nodes() as NodeId {
            // Nothing ever flies over a gated router in this scheme, so a
            // sleeping router's FLOV latches must stay empty.
            if core.power(n).is_flov() && !core.routers[n as usize].latches_empty() {
                report(format!("PowerPunch router {n} is gated but holds latched flits"));
            }
        }
        audit_adjacent_drains(core, "PowerPunch", report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flov_noc::network::Simulation;
    use flov_noc::traits::{PacketRequest, ScriptedWorkload};
    use flov_noc::NocConfig;

    fn cfg() -> NocConfig {
        punch_config(&NocConfig::small_test())
    }

    fn gate_all_but(active: &[u16]) -> Vec<(u64, NodeId, bool)> {
        (0..16).filter(|n| !active.contains(n)).map(|n| (0u64, n, false)).collect()
    }

    #[test]
    fn config_swaps_escape_for_regular_vc() {
        let c = cfg();
        assert_eq!(c.escape_vcs, 0);
        assert_eq!(c.regular_vcs, 4); // 3 + 1
    }

    #[test]
    fn gates_everything_when_idle() {
        let c = cfg();
        let w = ScriptedWorkload::new(vec![]).with_core_events(gate_all_but(&[]));
        let mut sim = Simulation::new(c.clone(), Box::new(PowerPunch::new(&c)), Box::new(w));
        sim.run(3_000);
        let asleep = (0..16u16).filter(|&n| sim.core.power(n) == PowerState::Sleep).count();
        assert_eq!(asleep, 16, "Power Punch should gate every idle router");
    }

    #[test]
    fn punch_wakes_the_path_and_delivers() {
        let c = cfg();
        let gates = gate_all_but(&[0, 15]);
        let w = ScriptedWorkload::new(vec![(
            3_000,
            PacketRequest { src: 0, dst: 15, vnet: 0, len: 4 },
        )])
        .with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(PowerPunch::new(&c)), Box::new(w));
        sim.run(2_500);
        // Path routers asleep before the punch.
        assert_eq!(sim.core.power(4), PowerState::Sleep); // YX: column 0 first
        let end = sim.run_until_done(20_000);
        assert!(end < 20_000, "punched packet not delivered");
        assert_eq!(sim.core.activity.packets_delivered, 1);
        // After the hold expires, the path re-drains.
        sim.run(2_000);
        assert_eq!(sim.core.power(4), PowerState::Sleep, "path did not re-gate");
    }

    #[test]
    fn wakeup_latency_is_hidden_for_long_paths() {
        // The defining claim: with the punch sent at queue time, far-away
        // routers are awake by the time the packet arrives, so latency is
        // close to an all-on mesh.
        let c = cfg();
        let gates = gate_all_but(&[0, 15]);
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push((3_000 + i * 400, PacketRequest { src: 0, dst: 15, vnet: 0, len: 4 }));
        }
        let w = ScriptedWorkload::new(events).with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(PowerPunch::new(&c)), Box::new(w));
        let end = sim.run_until_done(60_000);
        assert!(end < 60_000);
        // Unloaded YX path 0->15: 7 routers * 3 + 7 links + 3 serial ~ 31;
        // with punches the measured average should be within ~60% of that
        // (first hops still see some ramp), far below 31 + 6*10 = 91 if
        // every hop had to wake on demand.
        let lat = sim.core.stats.avg_latency();
        assert!(lat < 55.0, "punch failed to hide wakeup latency: {lat}");
        // And routers really were gated between packets (400-cycle gaps >
        // PUNCH_HOLD + idle threshold).
        let gated: u64 = sim.core.residency().iter().map(|r| r.gated).sum();
        assert!(gated > 0);
    }

    #[test]
    fn through_traffic_churns_gating_events() {
        // The cost vs FLOV: every burst re-wakes the path.
        let c = cfg();
        let gates = gate_all_but(&[0, 15]);
        let mut events = Vec::new();
        for i in 0..10u64 {
            events.push((3_000 + i * 1_200, PacketRequest { src: 0, dst: 15, vnet: 0, len: 4 }));
        }
        let w = ScriptedWorkload::new(events).with_core_events(gates);
        let mut sim = Simulation::new(c.clone(), Box::new(PowerPunch::new(&c)), Box::new(w));
        let end = sim.run_until_done(60_000);
        assert!(end < 60_000);
        // Each of the 10 well-separated packets re-punches ~5 sleeping
        // routers: expect a pile of gating events (sleep+wake pairs).
        assert!(
            sim.core.activity.gating_events > 60,
            "expected wake/sleep churn, got {} events",
            sim.core.activity.gating_events
        );
    }
}
