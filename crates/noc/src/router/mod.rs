//! The FLOV router model: baseline 3-stage VC router state plus the FLOV
//! additions (output latches, power state, PSR-visible neighbor states).
//!
//! The pipeline phases (route compute, chain walks, link sends) live in
//! the network kernels; this module owns the per-router state, its
//! invariants, and the router-local allocation steps every kernel calls:
//! the VA candidate order, VC claims, switch allocation and departure.

pub mod arbiter;

use crate::buffer::{CreditCounter, VcBuffer};
use crate::config::NocConfig;
use crate::flit::Flit;
use crate::types::{Coord, Cycle, Dir, NodeId, Port, PowerState, NUM_PORTS};
use arbiter::RoundRobin;

/// Ownership of one downstream input VC, tracked at the upstream router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcOwner {
    /// No wormhole currently allocated to this VC.
    Free,
    /// A wormhole from local input `(port, flat vc)` holds the VC until its
    /// tail flit departs.
    Owned { in_port: u8, in_vc: u16 },
}

/// One input virtual channel: buffer plus wormhole/pipeline state.
#[derive(Clone, Debug)]
pub struct InVc {
    pub buf: VcBuffer,
    /// Output port + downstream VC granted by VC allocation; present while a
    /// wormhole is in flight through this input VC. Mirrored in
    /// `Router::alloc_mask`, so only `Router` methods write it.
    pub alloc: Option<(u8, u8)>,
    /// Cycle the current front *head* flit became front (route compute
    /// starts then; VA is legal from `head_since + 1`). Also drives the
    /// escape-timeout diversion.
    pub head_since: Cycle,
}

impl InVc {
    fn new(depth: usize) -> InVc {
        InVc { buf: VcBuffer::new(depth), alloc: None, head_since: 0 }
    }

    /// True if this VC is completely quiescent.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.alloc.is_none()
    }
}

/// Per-router state.
#[derive(Clone, Debug)]
pub struct Router {
    pub id: NodeId,
    pub coord: Coord,
    pub power: PowerState,
    /// Input VCs, flattened `[port][vnet * vcs + vc]`.
    pub inputs: Vec<InVc>,
    /// Credit counters toward the *logical* downstream per output port,
    /// flattened like `inputs`. Local (ejection) port entries are unused.
    pub out_credits: Vec<CreditCounter>,
    /// Downstream VC ownership per output port, flattened like `inputs`.
    /// Mirrored in `out_owned`, so only `Router` methods write it.
    pub out_vc_state: Vec<VcOwner>,
    /// FLOV output latches, one per direction, live while power-gated.
    /// Entry is `(cycle latched, flit)`.
    pub latches: [Option<(Cycle, Flit)>; 4],
    /// True if this router has FLOV links in the X dimension (neighbors on
    /// both the East and West sides).
    pub flov_x: bool,
    /// True if this router has FLOV links in the Y dimension.
    pub flov_y: bool,
    /// SA stage-1 arbiter: per input port, over that port's VCs.
    pub sa_in: Vec<RoundRobin>,
    /// SA stage-2 arbiter: per output port, over input ports.
    pub sa_out: Vec<RoundRobin>,
    /// Occupancy fast path: flits buffered per input port.
    pub port_occupancy: [u32; NUM_PORTS],
    /// Occupancy fast path: bit `v` of `vc_busy[p]` mirrors "the buffer of
    /// input VC `(p, v)` is non-empty". Maintained by [`Router::push_flit`]
    /// and [`Router::pop_flit`]; lets the allocators visit only occupied
    /// slots via `trailing_zeros` instead of scanning every VC.
    pub vc_busy: [u64; NUM_PORTS],
    /// Allocation mirror: bit `v` of `alloc_mask[p]` is set exactly when
    /// input VC `(p, v)` holds a VC grant (`inputs[p·V + v].alloc` is
    /// `Some`). Written only by [`Router::claim_vc`] and
    /// [`Router::depart`], together with `alloc`.
    pub(crate) alloc_mask: [u64; NUM_PORTS],
    /// Ownership mirror: bit `v` of `out_owned[p]` is set exactly when
    /// `out_vc_state[p·V + v]` is `Owned`. Written only by
    /// [`Router::claim_vc`], [`Router::depart`] and
    /// [`Router::free_out_vc`], together with `out_vc_state`.
    pub(crate) out_owned: [u64; NUM_PORTS],
    /// Last cycle with local-port activity (inject/eject/queued traffic);
    /// drives the idle-detection that precedes draining.
    pub last_local_activity: Cycle,
    total_vcs: usize,
    vcs_per_vnet: usize,
}

impl Router {
    pub fn new(cfg: &NocConfig, id: NodeId) -> Router {
        let spec = cfg.topology_spec();
        let coord = Coord { x: id % spec.kx(), y: id / spec.kx() };
        // FLOV latch capability: a gated router can fly flits over in a
        // dimension iff it has physical links on both sides of it — the
        // grid interior, or anywhere on a torus.
        let (flov_x, flov_y) = spec.flov_capability(coord);
        let total_vcs = cfg.total_vcs();
        assert!(total_vcs <= 64, "per-port VC bitmasks hold at most 64 VCs");
        let n = NUM_PORTS * total_vcs;
        Router {
            id,
            coord,
            power: PowerState::Active,
            inputs: (0..n).map(|_| InVc::new(cfg.buf_depth)).collect(),
            out_credits: (0..n).map(|_| CreditCounter::new_full(cfg.buf_depth)).collect(),
            out_vc_state: vec![VcOwner::Free; n],
            latches: [None; 4],
            flov_x,
            flov_y,
            sa_in: (0..NUM_PORTS).map(|_| RoundRobin::new(total_vcs)).collect(),
            sa_out: (0..NUM_PORTS).map(|_| RoundRobin::new(NUM_PORTS)).collect(),
            port_occupancy: [0; NUM_PORTS],
            vc_busy: [0; NUM_PORTS],
            alloc_mask: [0; NUM_PORTS],
            out_owned: [0; NUM_PORTS],
            last_local_activity: 0,
            total_vcs,
            vcs_per_vnet: cfg.vcs_per_vnet(),
        }
    }

    /// Flattened index for `(port, flat vc)`.
    #[inline]
    pub fn slot(&self, port: usize, vc: usize) -> usize {
        port * self.total_vcs + vc
    }

    /// Total VCs per port.
    #[inline]
    pub fn total_vcs(&self) -> usize {
        self.total_vcs
    }

    /// True if this router can fly flits over in direction `d` while gated.
    #[inline]
    pub fn has_flov(&self, d: Dir) -> bool {
        if d.is_x() {
            self.flov_x
        } else {
            self.flov_y
        }
    }

    /// All input buffers empty and no outbound wormhole in progress:
    /// the condition for finishing the drain.
    pub fn is_drained(&self) -> bool {
        self.inputs.iter().all(|vc| vc.is_idle())
            && self.out_vc_state.iter().all(|s| *s == VcOwner::Free)
    }

    /// All FLOV latches empty (wakeup completion condition).
    #[inline]
    pub fn latches_empty(&self) -> bool {
        self.latches.iter().all(|l| l.is_none())
    }

    /// Number of buffered flits across all input ports.
    pub fn buffered_flits(&self) -> u32 {
        self.port_occupancy.iter().sum()
    }

    /// Buffer a flit into input VC slot `s` of `port`, maintaining the
    /// occupancy fast paths (`port_occupancy`, `vc_busy`) and starting the
    /// RC clock when a head flit reaches the buffer front.
    #[inline]
    pub fn push_flit(&mut self, port: usize, s: usize, f: Flit, now: Cycle) {
        let was_empty = self.inputs[s].buf.is_empty();
        self.inputs[s].buf.push(f);
        if was_empty {
            self.vc_busy[port] |= 1 << (s - port * self.total_vcs);
            if f.kind.is_head() {
                self.inputs[s].head_since = now;
            }
        }
        self.port_occupancy[port] += 1;
    }

    /// Pop the front flit of input VC slot `s` of `port`, maintaining the
    /// occupancy fast paths. Panics if the buffer is empty.
    #[inline]
    pub fn pop_flit(&mut self, port: usize, s: usize) -> Flit {
        let f = self.inputs[s].buf.pop().expect("pop from an empty input VC");
        self.port_occupancy[port] -= 1;
        if self.inputs[s].buf.is_empty() {
            self.vc_busy[port] &= !(1 << (s - port * self.total_vcs));
        }
        f
    }

    /// VA candidates: the occupied input VCs that hold no VC grant, as
    /// flat slots in the rotated order that starts at slot `now·7 mod
    /// slots`. Equivalent to scanning every slot circularly from that
    /// origin: an empty VC has no head to route, VA skips an allocated
    /// one, and VA changes only the grant of the slot it is visiting.
    pub(crate) fn va_order(&self, now: Cycle, order: &mut Vec<u16>) {
        let total_vcs = self.total_vcs;
        let start = (now as usize).wrapping_mul(7) % (NUM_PORTS * total_vcs);
        let (sp, sv) = (start / total_vcs, start % total_vcs);
        let low = (1u64 << sv) - 1; // VCs before the rotated origin
        let cand = |p: usize| self.vc_busy[p] & !self.alloc_mask[p];
        order.clear();
        push_slots(order, sp, cand(sp) & !low, total_vcs);
        for off in 1..NUM_PORTS {
            let p = (sp + off) % NUM_PORTS;
            push_slots(order, p, cand(p), total_vcs);
        }
        push_slots(order, sp, cand(sp) & low, total_vcs);
    }

    /// Try to claim a free downstream VC for the head of input slot `s`:
    /// among VCs `[first, first + count)` of `vnet` on output `op`, the
    /// first free one at or after `first + now mod count`, wrapping. On
    /// success, records the grant on both sides and in both mirrors.
    pub(crate) fn claim_vc(
        &mut self,
        now: Cycle,
        s: usize,
        op: usize,
        vnet: usize,
        first: usize,
        count: usize,
    ) -> bool {
        let base = vnet * self.vcs_per_vnet + first;
        let free = (!self.out_owned[op] >> base) & (u64::MAX >> (64 - count));
        if free == 0 {
            return false;
        }
        let from = free & (u64::MAX << (now as usize % count));
        let j = if from != 0 { from } else { free }.trailing_zeros() as usize;
        let in_port = s / self.total_vcs;
        self.out_vc_state[op * self.total_vcs + base + j] =
            VcOwner::Owned { in_port: in_port as u8, in_vc: s as u16 };
        self.out_owned[op] |= 1 << (base + j);
        self.inputs[s].alloc = Some((op as u8, (first + j) as u8));
        self.alloc_mask[in_port] |= 1 << (s - in_port * self.total_vcs);
        true
    }

    /// Separable switch allocation. A VC bids when it holds a VC grant
    /// (so it is occupied and past route compute) and, off the local
    /// port, its downstream VC has a credit. Stage 1 picks one bidder per
    /// input port and stage 2 one input port per output port, both
    /// round-robin. Returns the winner of each output port as `(input
    /// port, input slot, downstream vc)`.
    pub(crate) fn switch_allocate(
        &mut self,
        now: Cycle,
    ) -> [Option<(usize, usize, u8)>; NUM_PORTS] {
        let total_vcs = self.total_vcs;
        let local = Port::Local.index();
        let mut cand = [(0usize, 0u8); NUM_PORTS];
        let mut req = [0u64; NUM_PORTS]; // per output port: bidding input ports
        #[allow(clippy::needless_range_loop)] // index mirrors the hardware port id
        for p in 0..NUM_PORTS {
            let mut mask = 0u64;
            let mut bids = self.vc_busy[p] & self.alloc_mask[p];
            while bids != 0 {
                let v = bids.trailing_zeros() as usize;
                bids &= bids - 1;
                let invc = &self.inputs[p * total_vcs + v];
                let (op, ovc) = invc.alloc.expect("alloc_mask bit set without a VC grant");
                // VA grants only from `head_since + 1`, and `head_since`
                // moves only after the tail has released the grant.
                debug_assert!(invc
                    .buf
                    .front()
                    .is_some_and(|f| !f.kind.is_head() || now > invc.head_since));
                let op = op as usize;
                if op != local {
                    let flat = v - v % self.vcs_per_vnet + ovc as usize;
                    if !self.out_credits[op * total_vcs + flat].has_credit() {
                        continue;
                    }
                }
                mask |= 1 << v;
            }
            if let Some(v) = self.sa_in[p].grant_mask(mask) {
                let (op, ovc) = self.inputs[p * total_vcs + v].alloc.expect("bidder holds a grant");
                cand[p] = (p * total_vcs + v, ovc);
                req[op as usize] |= 1 << p;
            }
        }
        let mut winners = [None; NUM_PORTS];
        for (op, w) in winners.iter_mut().enumerate() {
            if let Some(p) = self.sa_out[op].grant_mask(req[op]) {
                *w = Some((p, cand[p].0, cand[p].1));
            }
        }
        winners
    }

    /// Switch traversal, router side: pop the front flit of input slot
    /// `s` (bound for output `op`, downstream VC `ovc`), consume its
    /// downstream credit off the local port, and on a tail release the
    /// wormhole on both sides and in both mirrors. A head that reaches
    /// the front starts its route-compute clock. Returns the flit as
    /// buffered.
    pub(crate) fn depart(
        &mut self,
        in_port: usize,
        s: usize,
        op: usize,
        ovc: u8,
        now: Cycle,
    ) -> Flit {
        let f = self.pop_flit(in_port, s);
        let v = s - in_port * self.total_vcs;
        debug_assert_eq!(f.vnet as usize, v / self.vcs_per_vnet, "flit in another vnet's VC");
        let flat = v - v % self.vcs_per_vnet + ovc as usize;
        let oslot = op * self.total_vcs + flat;
        if op != Port::Local.index() {
            self.out_credits[oslot].consume();
        }
        let is_tail = f.kind.is_tail();
        if is_tail {
            self.out_vc_state[oslot] = VcOwner::Free;
            self.out_owned[op] &= !(1 << flat);
            self.inputs[s].alloc = None;
            self.alloc_mask[in_port] &= !(1 << v);
        }
        if self.inputs[s].buf.front().is_some_and(|nf| nf.kind.is_head()) {
            debug_assert!(is_tail, "head flit queued behind an open wormhole");
            self.inputs[s].head_since = now;
        }
        f
    }

    /// Mark downstream VC slot `oslot` free (power-transition reset).
    pub(crate) fn free_out_vc(&mut self, oslot: usize) {
        self.out_vc_state[oslot] = VcOwner::Free;
        self.out_owned[oslot / self.total_vcs] &= !(1 << (oslot % self.total_vcs));
    }

    /// Record local-port activity at `now` (idle detector input).
    #[inline]
    pub fn touch_local(&mut self, now: Cycle) {
        self.last_local_activity = now;
    }

    /// Cycles since the local port was last active.
    #[inline]
    pub fn local_idle(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.last_local_activity)
    }
}

/// Append the flat slots of port `p`'s VCs set in `mask`, in ascending VC
/// order.
#[inline]
fn push_slots(order: &mut Vec<u16>, p: usize, mut mask: u64, total_vcs: usize) {
    while mask != 0 {
        order.push((p * total_vcs + mask.trailing_zeros() as usize) as u16);
        mask &= mask - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::default()
    }

    #[test]
    fn new_router_is_quiescent() {
        let r = Router::new(&cfg(), 9);
        assert_eq!(r.power, PowerState::Active);
        assert!(r.is_drained());
        assert!(r.latches_empty());
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn slot_layout_is_dense_and_unique() {
        let c = cfg();
        let r = Router::new(&c, 0);
        let mut seen = std::collections::HashSet::new();
        for p in 0..NUM_PORTS {
            for v in 0..c.total_vcs() {
                assert!(seen.insert(r.slot(p, v)));
            }
        }
        assert_eq!(seen.len(), r.inputs.len());
        assert_eq!(*seen.iter().max().unwrap() + 1, r.inputs.len());
    }

    #[test]
    fn flov_capability_by_position() {
        let c = cfg(); // 8x8
                       // Corner: no FLOV links at all.
        let corner = Router::new(&c, 0);
        assert!(!corner.flov_x && !corner.flov_y);
        // South edge (3,0): X only.
        let edge = Router::new(&c, 3);
        assert!(edge.flov_x && !edge.flov_y);
        // West edge (0,3): Y only.
        let wedge = Router::new(&c, 3 * 8);
        assert!(!wedge.flov_x && wedge.flov_y);
        // Interior: both.
        let mid = Router::new(&c, 3 * 8 + 3);
        assert!(mid.flov_x && mid.flov_y);
        assert!(mid.has_flov(Dir::East) && mid.has_flov(Dir::North));
    }

    #[test]
    fn idle_detector_counts_from_touch() {
        let mut r = Router::new(&cfg(), 5);
        r.touch_local(100);
        assert_eq!(r.local_idle(130), 30);
        assert_eq!(r.local_idle(100), 0);
        assert_eq!(r.local_idle(50), 0); // saturating
    }

    #[test]
    fn push_pop_maintain_occupancy_fast_paths() {
        let c = cfg();
        let mut r = Router::new(&c, 5);
        let p = crate::packet::Packet { id: 1, src: 0, dst: 5, vnet: 0, len: 2, birth: 0 };
        let port = 2;
        let s = r.slot(port, 3);
        r.push_flit(port, s, p.flit(0, 10), 10);
        assert_eq!(r.inputs[s].head_since, 10);
        r.push_flit(port, s, p.flit(1, 11), 11);
        assert_eq!(r.inputs[s].head_since, 10, "non-front flit must not reset the RC clock");
        assert_eq!(r.port_occupancy[port], 2);
        assert_eq!(r.vc_busy[port], 1 << 3);
        assert!(r.pop_flit(port, s).kind.is_head());
        assert_eq!(r.vc_busy[port], 1 << 3, "mask stays set while flits remain");
        r.pop_flit(port, s);
        assert_eq!(r.port_occupancy[port], 0);
        assert_eq!(r.vc_busy[port], 0);
    }

    #[test]
    fn claim_vc_takes_the_first_free_vc_from_the_rotated_origin() {
        let c = cfg();
        let (vnet, count, op) = (1, c.regular_vcs, Port::East.index());
        let base = c.vc_index(vnet, 0);
        for owned in 0u64..1 << count {
            for now in 0..2 * count as Cycle {
                let mut r = Router::new(&c, 5);
                r.out_owned[op] = owned << base;
                let s = r.slot(Port::West.index(), base);
                // The rotating scan this replaces.
                let want =
                    (0..count).map(|j| (now as usize + j) % count).find(|&vc| owned >> vc & 1 == 0);
                let got = r.claim_vc(now, s, op, vnet, 0, count).then(|| r.inputs[s].alloc);
                assert_eq!(got, want.map(|vc| Some((op as u8, vc as u8))), "owned {owned:b}");
                if let Some(vc) = want {
                    assert_eq!(r.out_owned[op], (owned | 1 << vc) << base);
                    assert_eq!(r.alloc_mask[Port::West.index()], 1 << base);
                    let owner =
                        VcOwner::Owned { in_port: Port::West.index() as u8, in_vc: s as u16 };
                    assert_eq!(r.out_vc_state[r.slot(op, base + vc)], owner);
                }
            }
        }
    }

    #[test]
    fn drained_detects_owned_vc() {
        let c = cfg();
        let mut r = Router::new(&c, 5);
        assert!(r.is_drained());
        assert!(r.claim_vc(0, 1, 0, 0, 0, 1));
        assert_eq!(r.out_vc_state[0], VcOwner::Owned { in_port: 0, in_vc: 1 });
        assert!(!r.is_drained());
        r.free_out_vc(0);
        assert_eq!(r.out_owned, [0; NUM_PORTS]);
    }
}
