//! Chain walks: resolving the *logical* neighbor relationships that FLOV
//! creates when consecutive routers sleep, and the per-VC credit audits used
//! to re-seed credit counters at power transitions.

use super::{NetworkCore, NodeTables};
use crate::traits::PowerView;
use crate::types::{Dir, NodeId, PowerState};

/// Result of walking from a router in one direction across any sleeping
/// routers, as the VC allocator and the handshake protocols see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainTarget {
    /// Nearest powered router in the direction, if any (the logical
    /// neighbor).
    pub powered: Option<NodeId>,
    /// True if new packet transmissions are currently forbidden on this
    /// chain: the logical neighbor is Draining, or a router on the way is
    /// mid-Wakeup (its latches are being drained).
    pub blocked: bool,
    /// A power-gated router on the chain that is itself the packet's
    /// destination; the packet must wait for it to wake up.
    pub dst_on_chain: Option<NodeId>,
    /// Number of sleeping routers the chain crosses before the target.
    pub sleepers: u32,
}

/// [`NetworkCore::chain_walk`] with power states read from `p`: the live
/// core for the sequential kernels, a tile's phase-start snapshot in the
/// parallel kernel.
pub(super) fn chain_walk(
    t: &NodeTables,
    p: &impl PowerView,
    from: NodeId,
    d: Dir,
    dst: NodeId,
) -> ChainTarget {
    let mut cur = from;
    let mut sleepers = 0;
    loop {
        let Some(next) = t.neighbor(cur, d) else {
            return ChainTarget { powered: None, blocked: false, dst_on_chain: None, sleepers };
        };
        if next == from {
            // Torus wrap cycle with every other router asleep: there is no
            // powered receiver anywhere in this direction, so new
            // transmissions must hold.
            return ChainTarget { powered: None, blocked: true, dst_on_chain: None, sleepers };
        }
        match p.power(next) {
            PowerState::Active => {
                return ChainTarget {
                    powered: Some(next),
                    blocked: false,
                    dst_on_chain: None,
                    sleepers,
                }
            }
            PowerState::Draining => {
                return ChainTarget {
                    powered: Some(next),
                    blocked: true,
                    dst_on_chain: None,
                    sleepers,
                }
            }
            PowerState::Wakeup => {
                // Mid-transition: not passable, not yet a buffer owner.
                return ChainTarget { powered: None, blocked: true, dst_on_chain: None, sleepers };
            }
            PowerState::Sleep => {
                if next == dst {
                    return ChainTarget {
                        powered: None,
                        blocked: true,
                        dst_on_chain: Some(next),
                        sleepers,
                    };
                }
                // An intermediate sleeper is geometrically guaranteed to
                // have FLOV capability in this dimension unless it sits at
                // the mesh edge, in which case the walk ends anyway.
                if t.neighbor(next, d).is_none() {
                    return ChainTarget {
                        powered: None,
                        blocked: false,
                        dst_on_chain: None,
                        sleepers,
                    };
                }
                sleepers += 1;
                cur = next;
            }
        }
    }
}

/// [`NetworkCore::logical_neighbor`] with power states read from `p`.
pub(super) fn logical_neighbor(
    t: &NodeTables,
    p: &impl PowerView,
    node: NodeId,
    d: Dir,
) -> Option<(NodeId, u32)> {
    let mut cur = node;
    let mut hops = 0;
    loop {
        let next = t.neighbor(cur, d)?;
        if next == node {
            // Torus wrap cycle of sleepers: no logical neighbor exists.
            return None;
        }
        if p.power(next) != PowerState::Sleep {
            return Some((next, hops));
        }
        hops += 1;
        cur = next;
    }
}

/// [`NetworkCore::psr`] with power states read from `p`.
pub(super) fn psr(t: &NodeTables, p: &impl PowerView, node: NodeId) -> [Option<PowerState>; 4] {
    Dir::ALL.map(|d| t.grid_neighbor(node, d).map(|m| p.power(m)))
}

impl NetworkCore {
    /// Walk from `from` in direction `d`, flying over sleeping routers,
    /// until a powered router, a Wakeup router, or the mesh edge. `dst` is
    /// the packet destination (to detect wake-up-needed cases); pass the
    /// walking router's own id when no packet is involved.
    pub fn chain_walk(&self, from: NodeId, d: Dir, dst: NodeId) -> ChainTarget {
        chain_walk(&self.tables, self, from, d, dst)
    }

    /// The logical neighbor of `node` in `d`: the nearest router in that
    /// direction that is not asleep (Draining/Wakeup routers are handshake
    /// participants), together with the sleeping-hop distance.
    pub fn logical_neighbor(&self, node: NodeId, d: Dir) -> Option<(NodeId, u32)> {
        logical_neighbor(&self.tables, self, node, d)
    }

    /// True if no committed traffic can still arrive at `node` from the
    /// `from` side: walk outward over non-powered routers checking that
    /// every wire and latch on the way is flit-free, and that the first
    /// powered router (if any) has no open wormhole pointed this way.
    ///
    /// This is the condition behind the `drain_done` handshake signal: once
    /// it holds (and the state forbids new transmissions), the segment stays
    /// quiescent.
    pub fn inbound_quiescent(&self, node: NodeId, from: Dir) -> bool {
        let toward = from.opposite(); // direction flits travel to reach node
        let mut cur = node;
        loop {
            let Some(next) = self.neighbor(cur, from) else { return true };
            // Wire next -> cur.
            if self.wheel.flits_on(self.edge(next, toward)) > 0 {
                return false;
            }
            if self.power(next).is_powered() {
                // First powered router: no open wormhole toward us. On a
                // torus wrap cycle this may be `node` itself, in which case
                // its own outbound wormholes would circle back around.
                let port = crate::types::Port::from_dir(toward);
                return !self.routers[next as usize].owns_downstream(port.index());
            }
            // Sleeping or waking intermediate: its pass-through latch toward
            // us must be empty.
            if self.routers[next as usize].latches[toward.index()].is_some() {
                return false;
            }
            if next == node {
                // Unpowered `node` on a fully-unpowered torus wrap cycle:
                // every wire and latch on the cycle has been checked clean.
                return true;
            }
            cur = next;
        }
    }

    /// [`NetworkCore::inbound_quiescent`] in every direction at once.
    pub fn fully_quiescent(&self, node: NodeId) -> bool {
        Dir::ALL.iter().all(|&d| self.inbound_quiescent(node, d))
    }

    /// Audit of one downstream VC as needed to seed an upstream credit
    /// counter. The counter invariant is
    ///
    /// `avail = free slots at owner - flits in flight toward owner
    ///                              - credits in flight back upstream`
    ///
    /// (in-flight flits will consume slots on arrival; in-flight credits
    /// will refund the counter on arrival). `upstream` and `owner` must lie
    /// on one straight line in direction `d` with only non-powered routers
    /// between them.
    pub fn audit_credits(
        &self,
        upstream: NodeId,
        owner: NodeId,
        d: Dir,
        vnet: usize,
        vc: usize,
    ) -> usize {
        let (vn, v) = (vnet as u8, vc as u8);
        self.audit_credits_by(upstream, owner, d, vnet, vc, |flit_link, credit_link| {
            self.wheel.flits_for(flit_link, vn, v) + self.wheel.credits_for(credit_link, vn, v)
        })
    }

    /// [`NetworkCore::audit_credits`] with the VC's traffic in flight on
    /// each hop counted by `in_flight(flit_link, credit_link)`: its flits
    /// on the link toward the owner plus its credits on the link back.
    /// The auditor counts from one scan of the wheel for every VC at once.
    pub(crate) fn audit_credits_by(
        &self,
        upstream: NodeId,
        owner: NodeId,
        d: Dir,
        vnet: usize,
        vc: usize,
        in_flight: impl Fn(usize, usize) -> usize,
    ) -> usize {
        let in_port = crate::types::Port::from_dir(d.opposite());
        let owner_r = &self.routers[owner as usize];
        let slot = owner_r.slot(in_port.index(), self.cfg.vc_index(vnet, vc));
        let free = owner_r.free_slots(slot);
        // Walk the reverse path owner -> upstream counting in-flight flits,
        // latched flits, and in-flight credits for this VC.
        let mut claimed = 0usize;
        let mut cur = owner;
        loop {
            let prev =
                self.neighbor(cur, d.opposite()).expect("audit path must stay inside the mesh");
            // Link prev -> cur carries flits downstream, link cur -> prev
            // credits upstream.
            claimed += in_flight(self.edge(prev, d), self.edge(cur, d.opposite()));
            if prev == upstream {
                break;
            }
            // Latched flit at the intermediate (non-powered) router.
            if let Some((_, f)) = self.routers[prev as usize].latches[d.index()] {
                if f.vnet as usize == vnet && f.vc as usize == vc {
                    claimed += 1;
                }
            }
            cur = prev;
        }
        free.saturating_sub(claimed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::types::Coord;

    fn core() -> NetworkCore {
        NetworkCore::new(NocConfig::small_test()) // 4x4
    }

    fn id(x: u16, y: u16) -> NodeId {
        Coord::new(x, y).id(4)
    }

    #[test]
    fn walk_to_active_neighbor() {
        let c = core();
        let t = c.chain_walk(id(0, 0), Dir::East, id(3, 0));
        assert_eq!(
            t,
            ChainTarget {
                powered: Some(id(1, 0)),
                blocked: false,
                dst_on_chain: None,
                sleepers: 0
            }
        );
    }

    #[test]
    fn walk_over_sleepers() {
        let mut c = core();
        c.routers[id(1, 1) as usize].power = PowerState::Sleep;
        c.routers[id(2, 1) as usize].power = PowerState::Sleep;
        let t = c.chain_walk(id(0, 1), Dir::East, id(3, 3));
        assert_eq!(t.powered, Some(id(3, 1)));
        assert_eq!(t.sleepers, 2);
        assert!(!t.blocked);
    }

    #[test]
    fn walk_blocked_by_draining() {
        let mut c = core();
        c.routers[id(1, 0) as usize].power = PowerState::Draining;
        let t = c.chain_walk(id(0, 0), Dir::East, id(3, 0));
        assert_eq!(t.powered, Some(id(1, 0)));
        assert!(t.blocked);
    }

    #[test]
    fn walk_blocked_by_wakeup() {
        let mut c = core();
        c.routers[id(1, 0) as usize].power = PowerState::Wakeup;
        let t = c.chain_walk(id(0, 0), Dir::East, id(3, 0));
        assert_eq!(t.powered, None);
        assert!(t.blocked);
    }

    #[test]
    fn sleeping_destination_detected() {
        let mut c = core();
        c.routers[id(1, 2) as usize].power = PowerState::Sleep;
        c.routers[id(2, 2) as usize].power = PowerState::Sleep;
        let t = c.chain_walk(id(0, 2), Dir::East, id(2, 2));
        assert_eq!(t.dst_on_chain, Some(id(2, 2)));
        assert!(t.blocked);
        assert_eq!(t.powered, None);
    }

    #[test]
    fn walk_dead_ends_at_edge() {
        let mut c = core();
        c.routers[id(0, 1) as usize].power = PowerState::Sleep;
        let t = c.chain_walk(id(1, 1), Dir::West, id(3, 3));
        assert_eq!(t.powered, None);
        assert!(!t.blocked);
    }

    #[test]
    fn logical_neighbor_skips_sleepers_only() {
        let mut c = core();
        c.routers[id(1, 1) as usize].power = PowerState::Sleep;
        c.routers[id(2, 1) as usize].power = PowerState::Draining;
        assert_eq!(c.logical_neighbor(id(0, 1), Dir::East), Some((id(2, 1), 1)));
        assert_eq!(c.logical_neighbor(id(3, 1), Dir::East), None);
    }

    #[test]
    fn audit_credits_counts_free_slots() {
        let c = core();
        let free = c.audit_credits(id(0, 0), id(1, 0), Dir::East, 0, 0);
        assert_eq!(free, c.cfg.buf_depth);
    }

    #[test]
    fn audit_credits_subtracts_in_flight_credits() {
        let mut c = core();
        let e = id(1, 0) as usize * 4 + Dir::West.index();
        c.wheel.send_credit(e, 1, crate::link::CreditMsg { vnet: 0, vc: 0 });
        c.wheel.send_credit(e, 3, crate::link::CreditMsg { vnet: 0, vc: 1 });
        // A credit for the same VC on another link is not this chain's.
        let other = id(2, 0) as usize * 4 + Dir::West.index();
        c.wheel.send_credit(other, 3, crate::link::CreditMsg { vnet: 0, vc: 0 });
        let free = c.audit_credits(id(0, 0), id(1, 0), Dir::East, 0, 0);
        assert_eq!(free, c.cfg.buf_depth - 1);
    }

    #[test]
    fn audit_credits_subtracts_in_flight_flits_over_sleeper() {
        let mut c = core();
        c.routers[id(1, 0) as usize].power = PowerState::Sleep;
        // Flit in flight on the 0->1 hop, headed for owner (2,0), vc 0.
        let e = id(0, 0) as usize * 4 + Dir::East.index();
        let p = crate::packet::Packet {
            id: 1,
            src: id(0, 0),
            dst: id(3, 0),
            vnet: 0,
            len: 1,
            birth: 0,
        };
        c.wheel.send_flit(e, 3, p.flit(0, 0));
        let free = c.audit_credits(id(0, 0), id(2, 0), Dir::East, 0, 0);
        assert_eq!(free, c.cfg.buf_depth - 1);
        // The flit on the wire also keeps the sleeper's inbound side busy.
        assert!(!c.inbound_quiescent(id(1, 0), Dir::West));
    }
}
