//! The FLOV router model: baseline 3-stage VC router state plus the FLOV
//! additions (output latches, power state, PSR-visible neighbor states).
//!
//! The pipeline phases (route compute, chain walks, link sends) live in
//! the network kernels; this module owns the per-router state, its
//! invariants, and the router-local allocation steps every kernel calls:
//! the VA candidate scan, VC claims, switch allocation and departure.

pub mod arbiter;

use crate::buffer::CreditCounter;
use crate::config::{NocConfig, MAX_BUF_DEPTH};
use crate::flit::{Flit, FlitKind};
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

/// The flit a new pool ring is filled with.
const NO_FLIT: Flit = Flit {
    packet: 0,
    kind: FlitKind::Single,
    src: 0,
    dst: 0,
    vnet: 0,
    vc: 0,
    escape: false,
    flit_idx: 0,
    pkt_len: 0,
    birth: 0,
    inject: 0,
    hops_router: 0,
    hops_flov: 0,
    hops_link: 0,
    payload: 0,
};

/// One input virtual channel: a FIFO over a `buf_depth`-flit ring it
/// leases from its router's ring pool while it holds flits, plus
/// wormhole/pipeline state.
#[derive(Clone, Debug)]
pub struct InVc {
    /// Ring offset of the front flit within the leased ring.
    first: u8,
    /// Flits buffered.
    len: u8,
    /// The pool ring this VC leases; meaningless while it is empty.
    pub(crate) ring: u16,
    /// Output port + downstream VC granted by VC allocation; present while a
    /// wormhole is in flight through this input VC. Mirrored in
    /// `Router::alloc_mask` and `Router::sa_ready`, so only `Router`
    /// methods write it.
    pub alloc: Option<(u8, u8)>,
    /// Cycle the current front *head* flit became front (route compute
    /// starts then; VA is legal from `head_since + 1`). Also drives the
    /// escape-timeout diversion.
    pub head_since: Cycle,
    /// Route inputs of the front head flit, copied from it when it became
    /// front (with `head_since`), so VA reads no flit. Stale while a body
    /// or tail flit is in front.
    pub(crate) dst: NodeId,
    pub(crate) vnet: u8,
    pub(crate) escape: bool,
}

impl InVc {
    fn new() -> InVc {
        InVc {
            first: 0,
            len: 0,
            ring: 0,
            alloc: None,
            head_since: 0,
            dst: 0,
            vnet: 0,
            escape: false,
        }
    }

    /// Flits buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no flit is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if this VC is completely quiescent.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.is_empty() && self.alloc.is_none()
    }

    /// Pool index of the front flit, for rings of `depth` flits.
    #[inline]
    fn front_at(&self, depth: usize) -> usize {
        self.ring as usize * depth + self.first as usize
    }

    /// Head flit `f` became the front at `now`: start its RC clock and
    /// copy its route inputs.
    #[inline]
    fn head_became_front(&mut self, f: &Flit, now: Cycle) {
        self.head_since = now;
        self.dst = f.dst;
        self.vnet = f.vnet;
        self.escape = f.escape;
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
    /// The ring pool: ring `r` is `flits[r·depth .. (r+1)·depth]`, and a
    /// non-empty input VC buffers its flits in the ring it leases. Starts
    /// with room for one input port's rings and grows by doubling, up to
    /// one ring per input VC. Written only by [`Router::push_flit`] and
    /// [`Router::pop_flit`] (and the escape diversion of a front head).
    flits: Vec<Flit>,
    /// Rings no VC leases, the most recently returned last.
    pub(crate) free_rings: Vec<u16>,
    /// Slots per input VC (`NocConfig::buf_depth`).
    depth: usize,
    /// Credit counters toward the *logical* downstream per output port,
    /// flattened like `inputs`. Local (ejection) port entries are unused.
    /// Mirrored in `sa_ready`: a refund goes through `refund_credit`, and
    /// counters are re-seeded only while their output VC is `Free`.
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
    /// SA-ready mirror, a subset of `alloc_mask`: bit `v` of
    /// `sa_ready[p]` is set exactly when input VC `(p, v)` holds a grant
    /// to the local port, or to a downstream VC with a credit. Written
    /// only by [`Router::claim_vc`], [`Router::depart`] and
    /// [`Router::refund_credit`].
    pub(crate) sa_ready: [u64; NUM_PORTS],
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
        let spec = cfg.topology;
        let coord = Coord { x: id % spec.kx(), y: id / spec.kx() };
        // FLOV latch capability: a gated router can fly flits over in a
        // dimension iff it has physical links on both sides of it — the
        // grid interior, or anywhere on a torus.
        let (flov_x, flov_y) = spec.flov_capability(coord);
        let total_vcs = cfg.total_vcs();
        assert!(total_vcs <= 64, "per-port VC bitmasks hold at most 64 VCs");
        let depth = cfg.buf_depth;
        assert!((1..=MAX_BUF_DEPTH).contains(&depth), "8-bit VC rings hold 1 to 255 flits");
        let n = NUM_PORTS * total_vcs;
        Router {
            id,
            coord,
            power: PowerState::Active,
            inputs: vec![InVc::new(); n],
            flits: Vec::with_capacity(total_vcs * depth),
            free_rings: Vec::with_capacity(n),
            depth,
            out_credits: vec![CreditCounter::new_full(depth); n],
            out_vc_state: vec![VcOwner::Free; n],
            latches: [None; 4],
            flov_x,
            flov_y,
            sa_in: (0..NUM_PORTS).map(|_| RoundRobin::new(total_vcs)).collect(),
            sa_out: (0..NUM_PORTS).map(|_| RoundRobin::new(NUM_PORTS)).collect(),
            port_occupancy: [0; NUM_PORTS],
            vc_busy: [0; NUM_PORTS],
            alloc_mask: [0; NUM_PORTS],
            sa_ready: [0; NUM_PORTS],
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

    /// Rings the pool has allocated, leased or free.
    pub fn rings(&self) -> usize {
        self.flits.len() / self.depth
    }

    /// Front flit of input VC slot `s`, if any. A lease outside the pool
    /// reads as no front, so the auditor can report it instead of
    /// panicking on it.
    #[inline]
    pub fn front(&self, s: usize) -> Option<&Flit> {
        let vc = &self.inputs[s];
        if vc.len > 0 {
            self.flits.get(vc.front_at(self.depth))
        } else {
            None
        }
    }

    /// Free buffer slots of input VC slot `s`.
    #[inline]
    pub fn free_slots(&self, s: usize) -> usize {
        self.depth - self.inputs[s].len()
    }

    /// Buffer a flit into input VC slot `s` of `port`, maintaining the
    /// occupancy fast paths (`port_occupancy`, `vc_busy`) and starting the
    /// RC clock when a head flit reaches the buffer front. An empty VC
    /// first leases the most recently returned ring. Panics on overflow:
    /// credits must have prevented it, and a silent overflow would
    /// invalidate every result downstream.
    #[inline]
    pub fn push_flit(&mut self, port: usize, s: usize, f: Flit, now: Cycle) {
        let len = self.inputs[s].len as usize;
        assert!(
            len < self.depth,
            "VC buffer overflow: credit protocol violated (packet {}, flit {})",
            f.packet,
            f.flit_idx
        );
        if len == 0 {
            self.inputs[s].ring = self.free_rings.pop().unwrap_or_else(|| self.add_ring());
        }
        let vc = &mut self.inputs[s];
        let mut at = vc.first as usize + len;
        if at >= self.depth {
            at -= self.depth;
        }
        self.flits[vc.ring as usize * self.depth + at] = f;
        if len == 0 {
            self.vc_busy[port] |= 1 << (s - port * self.total_vcs);
            if f.kind.is_head() {
                vc.head_became_front(&f, now);
            }
        }
        vc.len += 1;
        self.port_occupancy[port] += 1;
    }

    /// Add a ring to the pool and return it. With no spare capacity the
    /// pool doubles, capped at one ring per input VC: a new ring is added
    /// only when every ring is leased, so that cap is never passed.
    #[cold]
    fn add_ring(&mut self) -> u16 {
        let len = self.flits.len();
        let cap = NUM_PORTS * self.total_vcs * self.depth;
        debug_assert!(len < cap, "a ring added while a free one exists");
        if len == self.flits.capacity() {
            self.flits.reserve_exact(len.min(cap - len));
        }
        self.flits.resize(len + self.depth, NO_FLIT);
        (len / self.depth) as u16
    }

    /// Pop the front flit of input VC slot `s` of `port`, maintaining the
    /// occupancy fast paths. A VC that empties returns its ring to the
    /// pool. Panics if the buffer is empty.
    #[inline]
    pub fn pop_flit(&mut self, port: usize, s: usize) -> Flit {
        let vc = &mut self.inputs[s];
        assert!(vc.len > 0, "pop from an empty input VC");
        let f = self.flits[vc.front_at(self.depth)];
        vc.first += 1;
        if vc.first as usize == self.depth {
            vc.first = 0;
        }
        vc.len -= 1;
        self.port_occupancy[port] -= 1;
        if vc.len == 0 {
            self.vc_busy[port] &= !(1 << (s - port * self.total_vcs));
            self.free_rings.push(vc.ring);
        }
        f
    }

    /// Divert the front head of input slot `s` into the escape
    /// sub-network: mark the flit and its route copy.
    pub(crate) fn divert_to_escape(&mut self, s: usize) {
        let vc = &mut self.inputs[s];
        assert!(vc.len > 0, "escape diversion of an empty input VC");
        self.flits[vc.front_at(self.depth)].escape = true;
        vc.escape = true;
    }

    /// VA candidates: per port, the occupied input VCs that hold no VC
    /// grant, in the rotated scan order that starts at flat slot `now·7
    /// mod slots` — the origin's port (VCs from the origin up), the other
    /// ports in turn, then the origin's port again (VCs below the origin).
    /// Equivalent to scanning every slot circularly from that origin: an
    /// empty VC has no head to route, VA skips an allocated one, and VA
    /// changes only the grant of the slot it is visiting.
    pub(crate) fn va_scan(&self, now: Cycle) -> [(usize, u64); NUM_PORTS + 1] {
        let total_vcs = self.total_vcs;
        let start = (now as usize).wrapping_mul(7) % (NUM_PORTS * total_vcs);
        let (sp, sv) = (start / total_vcs, start % total_vcs);
        let low = (1u64 << sv) - 1; // VCs before the rotated origin
        let cand = |p: usize| self.vc_busy[p] & !self.alloc_mask[p];
        std::array::from_fn(|off| match off {
            0 => (sp, cand(sp) & !low),
            NUM_PORTS => (sp, cand(sp) & low),
            _ => ((sp + off) % NUM_PORTS, cand((sp + off) % NUM_PORTS)),
        })
    }

    /// Try to claim a free downstream VC for the head of input slot `s`:
    /// among VCs `[first, first + count)` of `vnet` on output `op`, the
    /// first free one at or after `first + now mod count`, wrapping. On
    /// success, records the grant on both sides and in the mirrors.
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
        let oslot = op * self.total_vcs + base + j;
        self.out_vc_state[oslot] = VcOwner::Owned { in_port: in_port as u8, in_vc: s as u16 };
        self.out_owned[op] |= 1 << (base + j);
        self.inputs[s].alloc = Some((op as u8, (first + j) as u8));
        let bit = 1 << (s - in_port * self.total_vcs);
        self.alloc_mask[in_port] |= bit;
        if op == Port::Local.index() || self.out_credits[oslot].has_credit() {
            self.sa_ready[in_port] |= bit;
        }
        true
    }

    /// Separable switch allocation. A VC bids when it is occupied and
    /// SA-ready (it holds a VC grant, so it is past route compute, and off
    /// the local port its downstream VC has a credit). Stage 1 picks one
    /// bidder per input port and stage 2 one input port per output port,
    /// both round-robin. Returns the winner of each output port as
    /// `(input port, input slot, downstream vc)`.
    pub(crate) fn switch_allocate(
        &mut self,
        now: Cycle,
    ) -> [Option<(usize, usize, u8)>; NUM_PORTS] {
        let total_vcs = self.total_vcs;
        let mut cand = [(0usize, 0u8); NUM_PORTS];
        let mut req = [0u64; NUM_PORTS]; // per output port: bidding input ports
        #[allow(clippy::needless_range_loop)] // index mirrors the hardware port id
        for p in 0..NUM_PORTS {
            if let Some(v) = self.sa_in[p].grant_mask(self.vc_busy[p] & self.sa_ready[p]) {
                let s = p * total_vcs + v;
                let (op, ovc) = self.inputs[s].alloc.expect("sa_ready bit set without a VC grant");
                // VA grants only from `head_since + 1`, and `head_since`
                // moves only after the tail has released the grant.
                debug_assert!(self
                    .front(s)
                    .is_some_and(|f| !f.kind.is_head() || now > self.inputs[s].head_since));
                cand[p] = (s, ovc);
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
    /// wormhole on both sides and in the mirrors. A head that reaches
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
            if !self.out_credits[oslot].has_credit() {
                self.sa_ready[in_port] &= !(1 << v);
            }
        }
        let is_tail = f.kind.is_tail();
        if is_tail {
            self.out_vc_state[oslot] = VcOwner::Free;
            self.out_owned[op] &= !(1 << flat);
            self.inputs[s].alloc = None;
            self.alloc_mask[in_port] &= !(1 << v);
            self.sa_ready[in_port] &= !(1 << v);
        }
        let vc = &mut self.inputs[s];
        if vc.len > 0 {
            let nf = &self.flits[vc.front_at(self.depth)];
            if nf.kind.is_head() {
                debug_assert!(is_tail, "head flit queued behind an open wormhole");
                vc.head_became_front(nf, now);
            }
        }
        f
    }

    /// Return one credit to output VC slot `oslot`. A refund that takes
    /// the counter from 0 to 1 makes the VC's owner, if any, SA-ready.
    pub(crate) fn refund_credit(&mut self, oslot: usize) {
        let c = &mut self.out_credits[oslot];
        c.refund();
        if c.available() == 1 {
            if let VcOwner::Owned { in_port, in_vc } = self.out_vc_state[oslot] {
                let p = in_port as usize;
                self.sa_ready[p] |= 1 << (in_vc as usize - p * self.total_vcs);
            }
        }
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
    #[should_panic(expected = "overflow")]
    fn push_past_the_buffer_depth_panics() {
        let c = NocConfig { buf_depth: 2, ..cfg() };
        let mut r = Router::new(&c, 5);
        let p = crate::packet::Packet { id: 1, src: 0, dst: 5, vnet: 0, len: 3, birth: 0 };
        let s = r.slot(1, 0);
        for i in 0..3 {
            r.push_flit(1, s, p.flit(i, 0), 0);
        }
    }

    #[test]
    fn an_input_vc_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<InVc>(), 24);
    }

    #[test]
    fn a_vc_that_empties_returns_its_ring_for_the_next_vc_to_reuse() {
        let mut r = Router::new(&cfg(), 5);
        let p = crate::packet::Packet { id: 1, src: 0, dst: 5, vnet: 0, len: 2, birth: 0 };
        let (a, b, c) = (r.slot(1, 0), r.slot(1, 1), r.slot(3, 2));
        assert_eq!(r.rings(), 0, "a new router leases nothing");
        r.push_flit(1, a, p.flit(0, 0), 0);
        r.push_flit(1, a, p.flit(1, 0), 0);
        r.push_flit(1, b, p.flit(0, 0), 0);
        assert_eq!((r.inputs[a].ring, r.inputs[b].ring, r.rings()), (0, 1, 2));
        r.pop_flit(1, a);
        assert!(r.free_rings.is_empty(), "a VC keeps its ring while it holds flits");
        r.pop_flit(1, a);
        assert_eq!(r.free_rings, [0]);
        r.push_flit(3, c, p.flit(0, 1), 1);
        assert_eq!(r.inputs[c].ring, 0, "the returned ring is leased again");
        assert!(r.free_rings.is_empty());
        assert_eq!(r.rings(), 2);
        assert_eq!(r.front(c).map(|f| f.packet), Some(1));
    }

    #[test]
    fn fifo_order_holds_across_a_ring_wrap() {
        let c = cfg();
        let mut r = Router::new(&c, 5);
        let p = crate::packet::Packet { id: 7, src: 0, dst: 5, vnet: 0, len: 16, birth: 0 };
        let s = r.slot(2, 4);
        let mut next = 0;
        let mut want = 0;
        // Fill, drain four, refill: the second fill wraps past the ring end.
        for (pushes, pops) in [(c.buf_depth, 4), (4, c.buf_depth)] {
            for _ in 0..pushes {
                r.push_flit(2, s, p.flit(next, 0), 0);
                next += 1;
            }
            for _ in 0..pops {
                assert_eq!(r.front(s).map(|f| f.flit_idx), Some(want));
                assert_eq!(r.pop_flit(2, s).flit_idx, want);
                want += 1;
            }
        }
        assert_eq!(want, next);
        assert!(r.inputs[s].is_empty());
        assert_eq!((r.rings(), r.free_rings.len()), (1, 1));
    }

    #[test]
    fn filling_every_vc_allocates_one_ring_each_and_never_more() {
        let c = cfg();
        let mut r = Router::new(&c, 5);
        let vcs = NUM_PORTS * c.total_vcs();
        let p = crate::packet::Packet { id: 3, src: 0, dst: 5, vnet: 0, len: 16, birth: 0 };
        for round in 0..2 {
            for port in 0..NUM_PORTS {
                for v in 0..c.total_vcs() {
                    let s = r.slot(port, v);
                    for i in 0..c.buf_depth {
                        r.push_flit(port, s, p.flit(i as u16, 0), 0);
                    }
                }
            }
            assert_eq!(r.rings(), vcs, "round {round}");
            assert_eq!(r.flits.capacity(), vcs * c.buf_depth, "round {round}");
            let mut leased: Vec<u16> = r.inputs.iter().map(|vc| vc.ring).collect();
            leased.sort_unstable();
            assert!(leased.iter().copied().eq(0..vcs as u16), "round {round}: {leased:?}");
            for port in 0..NUM_PORTS {
                for v in 0..c.total_vcs() {
                    let s = r.slot(port, v);
                    for i in 0..c.buf_depth {
                        assert_eq!(r.pop_flit(port, s).flit_idx, i as u16);
                    }
                }
            }
            assert_eq!(r.free_rings.len(), vcs, "round {round}");
        }
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
