//! Power-state transitions and their datapath consequences: mux switching
//! (modeled by the power state itself), credit-counter zero/copy, and VC
//! ownership resets — paper §IV and Fig. 3(d)-(f).
//!
//! The *decisions* live in the mechanism implementations (`flov-core`); this
//! module enforces the preconditions each transition contractually requires
//! and applies the state changes consistently.

use super::NetworkCore;
use crate::types::{Dir, NodeId, Port, PowerState};

impl NetworkCore {
    /// `Active -> Draining`: the router stops accepting new upstream packet
    /// transmissions (enforced by the VC allocator's chain walk) and starts
    /// emptying its buffers.
    pub fn begin_drain(&mut self, node: NodeId) {
        let r = &mut self.routers[node as usize];
        assert_eq!(r.power, PowerState::Active, "begin_drain from non-Active at {node}");
        r.power = PowerState::Draining;
    }

    /// `Draining -> Active`: lost the drain arbitration or saw new local
    /// traffic; resume normal operation.
    pub fn abort_drain(&mut self, node: NodeId) {
        let r = &mut self.routers[node as usize];
        assert_eq!(r.power, PowerState::Draining, "abort_drain from non-Draining at {node}");
        r.power = PowerState::Active;
    }

    /// `Draining -> Sleep`: power-gate the baseline datapath and activate
    /// the FLOV latches. Requires full quiescence (buffers drained, no open
    /// wormholes in or out, wires clear) — the handshake protocol must have
    /// established this. Re-seeds upstream credit counters to track the new
    /// logical downstream (paper Fig. 3(d)-(e)).
    pub fn enter_sleep(&mut self, node: NodeId) {
        {
            let r = &self.routers[node as usize];
            assert_eq!(r.power, PowerState::Draining, "enter_sleep from non-Draining at {node}");
            assert!(r.is_drained(), "enter_sleep with undrained buffers at {node}");
            assert!(r.latches_empty(), "enter_sleep with occupied latches at {node}");
        }
        assert!(self.fully_quiescent(node), "enter_sleep without quiescence at {node}");
        // Crossing the powered->gated boundary: settle residency first.
        self.settle_residency(node as usize);
        self.routers[node as usize].power = PowerState::Sleep;
        self.activity.gating_events += 1;
        // For each pass-through flow direction, the powered upstream
        // inherits this router's *own* credit counter — the paper's Fig.
        // 3(e): "the credit information is copied from Router B to A". The
        // sleeping router's counter is the ground truth of the downstream
        // flow (it already accounts for buffered flits, in-flight flits and
        // in-flight refunds). Credits still on the wire from this router
        // toward the upstream refer to this router's now-powered-off
        // buffers; on the real FIFO wires they arrive (and are absorbed
        // into the upstream's soon-to-be-overwritten counter) strictly
        // before the in-band sleep/copy signal, so here they are dropped.
        for d in Dir::ALL {
            let Some(u) = self.powered_walk(node, d.opposite()) else { continue };
            let port = Port::from_dir(d);
            // Drop stale refunds on the wires from node back to u.
            let mut cur = node;
            while cur != u {
                let prev = self.neighbor(cur, d.opposite()).unwrap();
                self.wheel.clear_credits(self.edge(cur, d.opposite()));
                cur = prev;
            }
            // A sleeping edge router has no wire in `d`: nothing can flow
            // onward, so the upstream's credits are zeroed (its packets for
            // nodes on this dead chain wait on wakeup requests instead).
            let dead_end = self.neighbor(node, d).is_none();
            assert!(
                !self.routers[u as usize].owns_downstream(port.index()),
                "open wormhole from {u} across sleeping {node}"
            );
            for flat in 0..self.cfg.total_vcs() {
                let seed = if dead_end {
                    0
                } else {
                    let n = &self.routers[node as usize];
                    n.out_credits[n.slot(port.index(), flat)].available()
                };
                let r = &mut self.routers[u as usize];
                let slot = r.slot(port.index(), flat);
                r.out_credits[slot].set(seed);
            }
        }
    }

    /// `Sleep -> Wakeup`: begin powering the baseline datapath back on. The
    /// FLOV latches keep forwarding in-flight traffic during the ramp.
    pub fn begin_wakeup(&mut self, node: NodeId) {
        let r = &mut self.routers[node as usize];
        assert_eq!(r.power, PowerState::Sleep, "begin_wakeup from non-Sleep at {node}");
        r.power = PowerState::Wakeup;
    }

    /// `Wakeup -> Active`: the power ramp finished and the neighborhood is
    /// quiescent; switch the muxes back, set upstream credits to full (the
    /// woken buffers are empty) and receive credit state from downstream.
    pub fn complete_wakeup(&mut self, node: NodeId) {
        {
            let r = &self.routers[node as usize];
            assert_eq!(r.power, PowerState::Wakeup, "complete_wakeup from non-Wakeup at {node}");
            assert!(r.latches_empty(), "complete_wakeup with occupied latches at {node}");
            assert!(r.is_drained(), "woken router has stale buffer state at {node}");
        }
        assert!(self.fully_quiescent(node), "complete_wakeup without quiescence at {node}");
        // Crossing the gated->powered boundary: settle residency first.
        self.settle_residency(node as usize);
        self.routers[node as usize].power = PowerState::Active;
        self.activity.gating_events += 1;
        // Re-mark for the active-set kernel: a newly powered router is
        // schedulable again (its buffers are drained, so these marks are
        // cleaned lazily unless work actually arrives).
        self.mark_work(node);
        for d in Dir::ALL {
            // (a) Upstream side of the flow entering `node` travelling `d`:
            // the powered upstream now has `node` as its logical downstream
            // with empty buffers. Relayed credits still on the wire would
            // have been absorbed into the old counter before the in-band
            // set-full signal (FIFO wires), so drop them.
            if let Some(u) = self.powered_walk(node, d.opposite()) {
                // Clear credit wires hop-by-hop from node back to u.
                let mut cur = node;
                while cur != u {
                    let prev = self.neighbor(cur, d.opposite()).unwrap();
                    self.wheel.clear_credits(self.edge(cur, d.opposite()));
                    cur = prev;
                }
                let port = Port::from_dir(d);
                let r = &mut self.routers[u as usize];
                assert!(
                    !r.owns_downstream(port.index()),
                    "open wormhole from {u} across waking {node}"
                );
                for flat in 0..self.cfg.total_vcs() {
                    let slot = r.slot(port.index(), flat);
                    r.out_credits[slot].set_full();
                }
            }
            // (b) `node`'s own downstream counters: seeded from the current
            // logical downstream's occupancy ("receives credit information
            // from its downstream router").
            let downstream = self.powered_walk(node, d);
            let port = Port::from_dir(d);
            for vnet in 0..self.cfg.vnets {
                for vc in 0..self.cfg.vcs_per_vnet() {
                    let seed = match downstream {
                        Some(l) => self.audit_credits(node, l, d, vnet, vc),
                        None => 0,
                    };
                    let flat = self.cfg.vc_index(vnet, vc);
                    let r = &mut self.routers[node as usize];
                    let slot = r.slot(port.index(), flat);
                    r.free_out_vc(slot);
                    r.out_credits[slot].set(seed);
                }
            }
        }
        // Local (ejection) port state is untouched by gating; reset it too
        // for hygiene.
        let total = self.cfg.total_vcs();
        let r = &mut self.routers[node as usize];
        for flat in 0..total {
            let slot = r.slot(Port::Local.index(), flat);
            r.free_out_vc(slot);
        }
        r.touch_local(self.cycle);
    }

    /// Nearest *powered* (Active or Draining) router from `node` in `d`,
    /// skipping routers that are asleep or waking.
    pub fn powered_walk(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        let mut cur = node;
        loop {
            let next = self.neighbor(cur, d)?;
            if self.power(next).is_powered() {
                // On a torus wrap cycle this may be `node` itself (the only
                // powered router on the cycle): flits it sends in `d` fly
                // over every sleeper and wrap back to its own input, so the
                // self-loop is the correct logical downstream.
                return Some(next);
            }
            if next == node {
                // Fully-unpowered torus wrap cycle: no powered router.
                return None;
            }
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::types::Coord;

    fn core() -> NetworkCore {
        NetworkCore::new(NocConfig::small_test())
    }

    fn id(x: u16, y: u16) -> NodeId {
        Coord::new(x, y).id(4)
    }

    /// Full legal transition sequence on an idle network.
    #[test]
    fn full_power_cycle() {
        let mut c = core();
        let n = id(1, 1);
        c.begin_drain(n);
        assert_eq!(c.power(n), PowerState::Draining);
        c.enter_sleep(n);
        assert_eq!(c.power(n), PowerState::Sleep);
        c.begin_wakeup(n);
        assert_eq!(c.power(n), PowerState::Wakeup);
        c.complete_wakeup(n);
        assert_eq!(c.power(n), PowerState::Active);
        assert_eq!(c.activity.gating_events, 2);
    }

    #[test]
    fn abort_returns_to_active() {
        let mut c = core();
        c.begin_drain(5);
        c.abort_drain(5);
        assert_eq!(c.power(5), PowerState::Active);
    }

    #[test]
    #[should_panic(expected = "non-Active")]
    fn double_drain_is_a_bug() {
        let mut c = core();
        c.begin_drain(5);
        c.begin_drain(5);
    }

    #[test]
    fn sleep_reseeds_upstream_credits() {
        let mut c = core();
        let n = id(1, 1);
        c.begin_drain(n);
        c.enter_sleep(n);
        // Upstream (0,1) now tracks (2,1)'s buffers: all empty => full depth.
        let u = &c.routers[id(0, 1) as usize];
        let slot = u.slot(Port::East.index(), 0);
        assert_eq!(u.out_credits[slot].available(), c.cfg.buf_depth);
    }

    #[test]
    fn corner_sleep_zeroes_dangling_credits() {
        let mut c = core();
        let corner = id(0, 0);
        c.begin_drain(corner);
        c.enter_sleep(corner);
        // (1,0)'s West output now leads nowhere: zero credits.
        let u = &c.routers[id(1, 0) as usize];
        let slot = u.slot(Port::West.index(), 0);
        assert_eq!(u.out_credits[slot].available(), 0);
        // (0,1)'s South output likewise.
        let u2 = &c.routers[id(0, 1) as usize];
        let slot2 = u2.slot(Port::South.index(), 0);
        assert_eq!(u2.out_credits[slot2].available(), 0);
    }

    #[test]
    fn wakeup_restores_full_credits_both_sides() {
        let mut c = core();
        let n = id(2, 1);
        c.begin_drain(n);
        c.enter_sleep(n);
        c.begin_wakeup(n);
        c.complete_wakeup(n);
        // Upstream (1,1) East counter: full (n's buffers empty).
        let u = &c.routers[id(1, 1) as usize];
        assert_eq!(u.out_credits[u.slot(Port::East.index(), 0)].available(), c.cfg.buf_depth);
        // n's own counters point at its physical neighbors: full.
        let r = &c.routers[n as usize];
        for p in [Port::North, Port::East, Port::South, Port::West] {
            assert_eq!(r.out_credits[r.slot(p.index(), 0)].available(), c.cfg.buf_depth);
        }
    }

    #[test]
    fn consecutive_sleepers_chain_credits() {
        let mut c = core();
        for x in [1, 2] {
            let n = id(x, 2);
            c.begin_drain(n);
            c.enter_sleep(n);
        }
        // (0,2) East counter tracks (3,2) across two sleepers.
        let u = &c.routers[id(0, 2) as usize];
        assert_eq!(u.out_credits[u.slot(Port::East.index(), 0)].available(), c.cfg.buf_depth);
        // Waking the first sleeper re-points (0,2) at it.
        let n1 = id(1, 2);
        c.begin_wakeup(n1);
        c.complete_wakeup(n1);
        let u = &c.routers[id(0, 2) as usize];
        assert_eq!(u.out_credits[u.slot(Port::East.index(), 0)].available(), c.cfg.buf_depth);
        // And the woken router's East counter tracks (3,2) across (2,2).
        let r = &c.routers[n1 as usize];
        assert_eq!(r.out_credits[r.slot(Port::East.index(), 0)].available(), c.cfg.buf_depth);
    }

    #[test]
    fn powered_walk_skips_sleepers() {
        let mut c = core();
        c.begin_drain(id(1, 3));
        c.enter_sleep(id(1, 3));
        assert_eq!(c.powered_walk(id(0, 3), Dir::East), Some(id(2, 3)));
        assert_eq!(c.powered_walk(id(0, 3), Dir::West), None);
    }
}
