//! The FLOV router model: baseline 3-stage VC router state plus the FLOV
//! additions (output latches, power state, PSR-visible neighbor states).
//!
//! The pipeline phases (route compute, chain walks, link sends) live in
//! the network kernels; this module owns the per-router state, its
//! invariants (checked by [`Router::audit`]), and the router-local
//! allocation steps every kernel calls: the VA candidate scan, VC claims,
//! switch allocation and departure.

pub mod arbiter;

use crate::buffer::CreditCounter;
use crate::config::{NocConfig, MAX_BUF_DEPTH};
use crate::flit::{Flit, FlitKind};
use crate::types::{Cycle, NodeId, Port, PowerState, NUM_PORTS};
use arbiter::RoundRobin;

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
    /// Output port + downstream VC granted by VC allocation; meaningful
    /// only while this VC's `Router::alloc_mask` bit is set, i.e. while a
    /// wormhole is in flight through it.
    alloc: (u8, u8),
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
            alloc: (0, 0),
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

/// Per-router state. Each fact has one home: per port, the `u64` masks
/// record which input VCs hold flits (`vc_busy`), hold a VC grant
/// (`alloc_mask`) or may bid in SA (`sa_ready`), and which downstream VCs
/// a wormhole owns (`out_owned`); a grant's `(out port, out vc)` and an
/// owned VC's input slot are payloads, meaningful only while their bit
/// is set.
#[derive(Clone, Debug)]
pub struct Router {
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
    free_rings: Vec<u16>,
    /// Slots per input VC (`NocConfig::buf_depth`).
    depth: usize,
    /// Credit counters toward the *logical* downstream per output port,
    /// flattened like `inputs`. Local (ejection) port entries are unused.
    /// Summarized in `sa_ready`: a refund goes through `refund_credit`,
    /// and counters are re-seeded only while their output VC is free.
    pub out_credits: Vec<CreditCounter>,
    /// Owner of each downstream VC, flattened like `inputs`: the input
    /// slot whose wormhole holds it (its port is the slot over
    /// `total_vcs`). Meaningful only while its `out_owned` bit is set.
    out_owner: Vec<u16>,
    /// FLOV output latches, one per direction, live while power-gated.
    /// Entry is `(cycle latched, flit)`.
    pub latches: [Option<(Cycle, Flit)>; 4],
    /// SA stage-1 arbiter: per input port, over that port's VCs.
    sa_in: Vec<RoundRobin>,
    /// SA stage-2 arbiter: per output port, over input ports.
    sa_out: Vec<RoundRobin>,
    /// Bit `v` of `vc_busy[p]` mirrors "the buffer of input VC `(p, v)` is
    /// non-empty". Maintained by [`Router::push_flit`] and
    /// [`Router::pop_flit`]; lets the allocators visit only occupied
    /// slots via `trailing_zeros` instead of scanning every VC.
    vc_busy: [u64; NUM_PORTS],
    /// Bit `v` of `alloc_mask[p]` is set while input VC `(p, v)` holds a
    /// VC grant (named by its `alloc`). Written only by
    /// [`Router::claim_vc`] and [`Router::depart`].
    alloc_mask: [u64; NUM_PORTS],
    /// A subset of `alloc_mask`: bit `v` of `sa_ready[p]` is set exactly
    /// when input VC `(p, v)` holds a grant to the local port, or to a
    /// downstream VC with a credit. Written only by [`Router::claim_vc`],
    /// [`Router::depart`] and [`Router::refund_credit`].
    sa_ready: [u64; NUM_PORTS],
    /// Bit `v` of `out_owned[p]` is set while a wormhole owns downstream
    /// VC `(p, v)` (its input slot in `out_owner`). Written only by
    /// [`Router::claim_vc`], [`Router::depart`] and
    /// [`Router::free_out_vc`].
    out_owned: [u64; NUM_PORTS],
    /// Last cycle with local-port activity (inject/eject/queued traffic);
    /// drives the idle-detection that precedes draining.
    pub last_local_activity: Cycle,
    total_vcs: usize,
    vcs_per_vnet: usize,
}

impl Router {
    pub fn new(cfg: &NocConfig) -> Router {
        let total_vcs = cfg.total_vcs();
        assert!(total_vcs <= 64, "per-port VC bitmasks hold at most 64 VCs");
        let depth = cfg.buf_depth;
        assert!((1..=MAX_BUF_DEPTH).contains(&depth), "8-bit VC rings hold 1 to 255 flits");
        let n = NUM_PORTS * total_vcs;
        Router {
            power: PowerState::Active,
            inputs: vec![InVc::new(); n],
            flits: Vec::with_capacity(total_vcs * depth),
            free_rings: Vec::with_capacity(n),
            depth,
            out_credits: vec![CreditCounter::new_full(depth); n],
            out_owner: vec![0; n],
            latches: [None; 4],
            sa_in: (0..NUM_PORTS).map(|_| RoundRobin::new(total_vcs)).collect(),
            sa_out: (0..NUM_PORTS).map(|_| RoundRobin::new(NUM_PORTS)).collect(),
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

    /// All input buffers empty and no wormhole in progress, in or out:
    /// the condition for finishing the drain.
    pub fn is_drained(&self) -> bool {
        (0..NUM_PORTS).all(|p| (self.vc_busy[p] | self.alloc_mask[p] | self.out_owned[p]) == 0)
    }

    /// True if any input VC holds a flit.
    #[inline]
    pub fn holds_flits(&self) -> bool {
        self.vc_busy.iter().any(|&m| m != 0)
    }

    /// True if a wormhole owns a downstream VC of output `port`.
    #[inline]
    pub fn owns_downstream(&self, port: usize) -> bool {
        self.out_owned[port] != 0
    }

    /// All FLOV latches empty (wakeup completion condition).
    #[inline]
    pub fn latches_empty(&self) -> bool {
        self.latches.iter().all(|l| l.is_none())
    }

    /// Number of buffered flits across all input ports (a scan of every
    /// VC; [`Router::holds_flits`] answers the emptiness test).
    pub fn buffered_flits(&self) -> u32 {
        self.inputs.iter().map(|vc| vc.len as u32).sum()
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

    /// The heads waiting for a VC grant, in ascending slot order: each
    /// occupied input VC that holds no grant (the VCs VA scans), as the
    /// `(dst, head_since)` it cached when its head became front.
    pub fn blocked_heads(&self) -> impl Iterator<Item = (NodeId, Cycle)> + '_ {
        (0..NUM_PORTS).flat_map(move |p| {
            let mut cand = self.vc_busy[p] & !self.alloc_mask[p];
            std::iter::from_fn(move || {
                (cand != 0).then(|| {
                    let vc = &self.inputs[p * self.total_vcs + cand.trailing_zeros() as usize];
                    cand &= cand - 1;
                    (vc.dst, vc.head_since)
                })
            })
        })
    }

    /// Buffer a flit into input VC slot `s` of `port`, maintaining
    /// `vc_busy` and starting the RC clock when a head flit reaches the
    /// buffer front. An empty VC first leases the most recently returned
    /// ring. Panics on overflow: credits must have prevented it, and a
    /// silent overflow would invalidate every result downstream.
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

    /// Pop the front flit of input VC slot `s` of `port`, maintaining
    /// `vc_busy`. A VC that empties returns its ring to the pool. Panics
    /// if the buffer is empty.
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
    /// success, records the grant on both sides.
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
        self.out_owner[oslot] = s as u16;
        self.out_owned[op] |= 1 << (base + j);
        self.inputs[s].alloc = (op as u8, (first + j) as u8);
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
                debug_assert!(self.alloc_mask[p] & 1 << v != 0, "SA-ready without a VC grant");
                let (op, ovc) = self.inputs[s].alloc;
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
    /// wormhole on both sides. A head that reaches the front starts its
    /// route-compute clock. Returns the flit as buffered.
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
            self.out_owned[op] &= !(1 << flat);
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

    /// Return one credit to downstream VC `vc` of output `op`. A refund
    /// that takes the counter from 0 to 1 makes the VC's owner, if any,
    /// SA-ready.
    pub(crate) fn refund_credit(&mut self, op: usize, vc: usize) {
        let oslot = op * self.total_vcs + vc;
        let c = &mut self.out_credits[oslot];
        c.refund();
        if c.available() == 1 && self.out_owned[op] & 1 << vc != 0 {
            let s = self.out_owner[oslot] as usize;
            let p = s / self.total_vcs;
            self.sa_ready[p] |= 1 << (s - p * self.total_vcs);
        }
    }

    /// Mark downstream VC slot `oslot` free (power-transition reset).
    pub(crate) fn free_out_vc(&mut self, oslot: usize) {
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

    /// Check this router's invariants and `report` each one broken.
    ///
    /// While the router is powered, the allocators read only the masks
    /// and caches, so a missed update would silently change results:
    /// `vc_busy` must equal the VCs that hold flits, `sa_ready` the
    /// grants that eject or whose downstream VC has a credit, and each
    /// VC's cached head route its front head flit. In every power state,
    /// each allocated ring of the pool must be held exactly once, by one
    /// non-empty input VC or by the free list: a shared ring would mix
    /// two VCs' flits, a lost one strand its slots.
    ///
    /// The router does not know its own id, so each message continues a
    /// `router {i}` lead-in the caller writes: ` port {p}: …`,
    /// ` port {p} vc {j}: …` or `: …`.
    pub fn audit(&self, report: &mut dyn FnMut(String)) {
        if self.power.is_powered() {
            self.audit_masks(report);
        }
        self.audit_leases(report);
    }

    fn audit_masks(&self, report: &mut dyn FnMut(String)) {
        let (v, per) = (self.total_vcs, self.vcs_per_vnet);
        for p in 0..NUM_PORTS {
            let vcs = &self.inputs[p * v..(p + 1) * v];
            let mask = |bit: &dyn Fn(usize) -> bool| {
                (0..v).filter(|&j| bit(j)).fold(0u64, |m, j| m | 1 << j)
            };
            // A grant can bid in SA when it ejects, or its downstream VC
            // has a credit.
            let ready = |j: usize| {
                let (op, ovc) = (vcs[j].alloc.0 as usize, vcs[j].alloc.1 as usize);
                self.alloc_mask[p] & 1 << j != 0
                    && (op == Port::Local.index()
                        || self.out_credits[op * v + j - j % per + ovc].has_credit())
            };
            let mirrors = [
                ("vc_busy", self.vc_busy[p], mask(&|j| !vcs[j].is_empty())),
                ("sa_ready", self.sa_ready[p], mask(&ready)),
            ];
            for (name, have, want) in mirrors {
                if have != want {
                    report(format!(" port {p}: {name} {have:#x} but per-VC state gives {want:#x}"));
                }
            }
            for (j, vc) in vcs.iter().enumerate() {
                let Some(f) = self.front(p * v + j).filter(|f| f.kind.is_head()) else {
                    continue;
                };
                let (have, want) = ((vc.dst, vc.vnet, vc.escape), (f.dst, f.vnet, f.escape));
                if have != want {
                    report(format!(
                        " port {p} vc {j}: cached head route (dst, vnet, escape) {have:?} but \
                         the front head flit has {want:?}"
                    ));
                }
            }
        }
    }

    fn audit_leases(&self, report: &mut dyn FnMut(String)) {
        let n = self.rings();
        let mut held = vec![(0u32, 0u32); n]; // per ring: (leases, free-list entries)
        let leases = self.inputs.iter().filter(|vc| !vc.is_empty()).map(|vc| (vc.ring, true));
        for (ring, leased) in leases.chain(self.free_rings.iter().map(|&f| (f, false))) {
            match held.get_mut(ring as usize) {
                Some((l, _)) if leased => *l += 1,
                Some((_, f)) => *f += 1,
                None => {
                    let by = if leased { "a VC leases" } else { "the free list holds" };
                    report(format!(": {by} ring {ring} but the pool has {n} rings"));
                }
            }
        }
        for (ring, &(leases, free)) in held.iter().enumerate() {
            if leases + free != 1 {
                report(format!(
                    ": ring {ring} is leased by {leases} VCs and free {free} times, not held once"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn cfg() -> NocConfig {
        NocConfig::default()
    }

    /// Everything `Router::audit` reports for `r`.
    fn audit(r: &Router) -> Vec<String> {
        let mut found = Vec::new();
        r.audit(&mut |msg| found.push(msg));
        found
    }

    #[test]
    fn new_router_is_quiescent() {
        let r = Router::new(&cfg());
        assert_eq!(r.power, PowerState::Active);
        assert!(r.is_drained());
        assert!(!r.holds_flits());
        assert!(r.latches_empty());
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(audit(&r), Vec::<String>::new());
    }

    #[test]
    fn slot_layout_is_dense_and_unique() {
        let c = cfg();
        let r = Router::new(&c);
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
    fn idle_detector_counts_from_touch() {
        let mut r = Router::new(&cfg());
        r.touch_local(100);
        assert_eq!(r.local_idle(130), 30);
        assert_eq!(r.local_idle(100), 0);
        assert_eq!(r.local_idle(50), 0); // saturating
    }

    #[test]
    fn push_pop_maintain_occupancy_fast_paths() {
        let mut r = Router::new(&cfg());
        let p = Packet { id: 1, src: 0, dst: 5, vnet: 0, len: 2, birth: 0 };
        let port = 2;
        let s = r.slot(port, 3);
        r.push_flit(port, s, p.flit(0, 10), 10);
        assert_eq!(r.inputs[s].head_since, 10);
        r.push_flit(port, s, p.flit(1, 11), 11);
        assert_eq!(r.inputs[s].head_since, 10, "non-front flit must not reset the RC clock");
        assert_eq!(r.buffered_flits(), 2);
        assert_eq!(r.vc_busy[port], 1 << 3);
        assert!(r.pop_flit(port, s).kind.is_head());
        assert_eq!(r.vc_busy[port], 1 << 3, "mask stays set while flits remain");
        r.pop_flit(port, s);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.vc_busy[port], 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_past_the_buffer_depth_panics() {
        let c = NocConfig { buf_depth: 2, ..cfg() };
        let mut r = Router::new(&c);
        let p = Packet { id: 1, src: 0, dst: 5, vnet: 0, len: 3, birth: 0 };
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
        let mut r = Router::new(&cfg());
        let p = Packet { id: 1, src: 0, dst: 5, vnet: 0, len: 2, birth: 0 };
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
        let mut r = Router::new(&c);
        let p = Packet { id: 7, src: 0, dst: 5, vnet: 0, len: 16, birth: 0 };
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
        let mut r = Router::new(&c);
        let vcs = NUM_PORTS * c.total_vcs();
        let p = Packet { id: 3, src: 0, dst: 5, vnet: 0, len: 16, birth: 0 };
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
                let mut r = Router::new(&c);
                r.out_owned[op] = owned << base;
                let s = r.slot(Port::West.index(), base);
                // The rotating scan this replaces.
                let want =
                    (0..count).map(|j| (now as usize + j) % count).find(|&vc| owned >> vc & 1 == 0);
                let got = r.claim_vc(now, s, op, vnet, 0, count).then(|| r.inputs[s].alloc);
                assert_eq!(got, want.map(|vc| (op as u8, vc as u8)), "owned {owned:b}");
                if let Some(vc) = want {
                    assert_eq!(r.out_owned[op], (owned | 1 << vc) << base);
                    assert_eq!(r.alloc_mask[Port::West.index()], 1 << base);
                    assert_eq!(r.out_owner[r.slot(op, base + vc)], s as u16);
                }
            }
        }
    }

    #[test]
    fn drained_detects_owned_vc() {
        let mut r = Router::new(&cfg());
        assert!(r.is_drained());
        assert!(r.claim_vc(0, 1, 0, 0, 0, 1));
        assert_eq!((r.out_owned[0], r.out_owner[0]), (1, 1));
        assert!(r.owns_downstream(0) && !r.owns_downstream(1));
        assert!(!r.is_drained());
        r.free_out_vc(0);
        assert_eq!(r.out_owned, [0; NUM_PORTS]);
    }

    /// A powered router stopped mid-flight: a granted wormhole through
    /// input VC (North, 5) with its head gone, a head waiting for VA at
    /// (West, 0), and a ring (South, 2) has returned to the pool.
    fn mid_flight() -> Router {
        let c = cfg();
        let mut r = Router::new(&c);
        let (n, w, s, e) =
            (Port::North.index(), Port::West.index(), Port::South.index(), Port::East.index());
        let worm = Packet { id: 1, src: 0, dst: 7, vnet: 1, len: 4, birth: 0 };
        let a = r.slot(n, 5);
        for i in 0..3 {
            r.push_flit(n, a, worm.flit(i, 0), 0);
        }
        assert!(r.claim_vc(1, a, e, 1, 0, c.regular_vcs));
        let (_, ovc) = r.inputs[a].alloc;
        r.depart(n, a, e, ovc, 2);
        let waiting = Packet { id: 2, src: 0, dst: 9, vnet: 0, len: 2, birth: 0 };
        r.push_flit(w, r.slot(w, 0), waiting.flit(0, 2), 2);
        let gone = Packet { id: 3, src: 0, dst: 9, vnet: 0, len: 1, birth: 0 };
        r.push_flit(s, r.slot(s, 2), gone.flit(0, 2), 2);
        r.pop_flit(s, r.slot(s, 2));
        r
    }

    #[test]
    fn audit_flags_a_drifted_mirror() {
        // Flip one bit of each mask the audit re-derives, or one cached
        // head route, in turn behind the router methods' back.
        let r = mid_flight();
        assert_eq!(audit(&r), Vec::<String>::new(), "mirrors drifted on a healthy router");
        assert!(r.alloc_mask.iter().any(|&m| m != 0), "no granted wormhole");
        let flips: [fn(&mut Router); 3] = [
            |r| r.vc_busy[Port::North.index()] ^= 1 << 5,
            |r| r.sa_ready[Port::North.index()] ^= 1 << 5,
            |r| {
                let s = (0..r.inputs.len())
                    .find(|&s| r.front(s).is_some_and(|f| f.kind.is_head()))
                    .expect("a head flit at some VC front");
                r.inputs[s].dst ^= 1;
            },
        ];
        for flip in flips {
            let mut r = r.clone();
            flip(&mut r);
            let found = audit(&r);
            assert_eq!(found.len(), 1, "{found:?}");
        }
    }

    #[test]
    fn audit_flags_a_broken_ring_lease() {
        // Break the one-holder-per-ring rule in turn, each way a lease or
        // the free list can go wrong.
        let r = mid_flight();
        let lease_violations = |r: &Router| audit(r).iter().filter(|m| m.contains("ring")).count();
        assert_eq!(lease_violations(&r), 0, "leases broke on a healthy router");
        let busy = (0..r.inputs.len()).filter(|&s| !r.inputs[s].is_empty()).count();
        assert!(busy >= 2, "the router should hold flits in two VCs, has {busy}");
        assert!(!r.free_rings.is_empty(), "the router should have returned a ring");
        type Tamper = fn(&mut Router);
        /// The `nth` non-empty input VC of `r`.
        fn leased(r: &Router, nth: usize) -> usize {
            (0..r.inputs.len()).filter(|&s| !r.inputs[s].is_empty()).nth(nth).unwrap()
        }
        let tampers: [(Tamper, usize); 4] = [
            // A second VC leases the first one's ring: one ring shared, one lost.
            (
                |r| {
                    let (a, b) = (leased(r, 0), leased(r, 1));
                    r.inputs[b].ring = r.inputs[a].ring;
                },
                2,
            ),
            // A VC leases a ring the pool never allocated (and loses its own).
            (
                |r| {
                    let a = leased(r, 0);
                    r.inputs[a].ring = r.rings() as u16;
                },
                2,
            ),
            // A leased ring is also on the free list.
            (
                |r| {
                    let ring = r.inputs[leased(r, 0)].ring;
                    r.free_rings.push(ring);
                },
                1,
            ),
            // A returned ring drops off the free list.
            (
                |r| {
                    r.free_rings.pop();
                },
                1,
            ),
        ];
        for (tamper, want) in tampers {
            let mut r = r.clone();
            tamper(&mut r);
            assert_eq!(lease_violations(&r), want);
        }
    }

    /// Per-VC model of one router's record, for the property test below.
    struct Model {
        /// Per input slot: buffered flits, front first.
        fifo: Vec<VecDeque<Flit>>,
        /// Per input slot: the grant `(out port, out vc)`.
        grant: Vec<Option<(usize, u8)>>,
        /// Per output slot: the input slot that owns it.
        owner: Vec<Option<usize>>,
        /// Per output slot: credits.
        credits: Vec<usize>,
        /// Per input slot: the next packet id and flit index it receives.
        next: Vec<(u64, u16)>,
    }

    /// Drive one router (2-flit buffers, so credits run out mid-packet)
    /// and its model through `ops`, each decoded into an operation (low 3
    /// bits), an input VC (bits 3..8), an output port (bits 8..16) and a
    /// VC choice (bits 16..), and compare them after every step. Packets
    /// are 1 to 3 flits long. An even input VC takes raw `pop_flit`s,
    /// which leave the head-route cache alone (`depart` keeps it), so its
    /// packets share one destination; an odd one's packets vary theirs
    /// and leave only by `depart`.
    fn drive_against_model(ops: &[u64]) {
        let c = NocConfig { buf_depth: 2, ..cfg() };
        let (total, per, depth) = (c.total_vcs(), c.vcs_per_vnet(), c.buf_depth);
        let local = Port::Local.index();
        let mut r = Router::new(&c);
        let inputs = [(0, 0), (0, 1), (0, 5), (3, 0), (3, 6), (4, 1), (4, 4)];
        let outputs = [Port::East.index(), Port::South.index(), local];
        let n = NUM_PORTS * total;
        let mut m = Model {
            fifo: vec![VecDeque::new(); n],
            grant: vec![None; n],
            owner: vec![None; n],
            credits: vec![depth; n],
            next: vec![(0, 0); n],
        };
        for (now, &op) in ops.iter().enumerate() {
            let now = now as Cycle;
            let (port, vc) = inputs[(op >> 3 & 31) as usize % inputs.len()];
            let s = r.slot(port, vc);
            let vnet = vc / per;
            let out = outputs[(op >> 8 & 255) as usize % outputs.len()];
            let pick = (op >> 16) as usize;
            let head_in_front = m.fifo[s].front().is_some_and(|f| f.kind.is_head());
            match op % 8 {
                // Push the slot's next flit, when it has room.
                0..=2 if m.fifo[s].len() < depth => {
                    let (id, idx) = m.next[s];
                    let len = 1 + (id % 3) as u16;
                    let dst = if vc % 2 == 0 { s } else { (s + id as usize) % 64 } as NodeId;
                    let f =
                        Packet { id, src: 0, dst, vnet: vnet as u8, len, birth: 0 }.flit(idx, now);
                    r.push_flit(port, s, f, now);
                    m.fifo[s].push_back(f);
                    m.next[s] = if idx + 1 == len { (id + 1, 0) } else { (id, idx + 1) };
                }
                // Raw pop of an even VC that holds no grant.
                3 if vc % 2 == 0 && m.grant[s].is_none() && !m.fifo[s].is_empty() => {
                    assert_eq!(Some(r.pop_flit(port, s)), m.fifo[s].pop_front());
                }
                // VA: claim a downstream VC for a head at the front.
                4 | 5 if m.grant[s].is_none() && head_in_front => {
                    let (first, count) = match (out == local, pick % 2) {
                        (true, _) => (0, per),
                        (false, 0) => (0, c.regular_vcs),
                        (false, _) => (c.regular_vcs, 1),
                    };
                    let base = out * total + vnet * per + first;
                    let free = (0..count)
                        .map(|j| (now as usize + j) % count)
                        .find(|&j| m.owner[base + j].is_none());
                    assert_eq!(r.claim_vc(now, s, out, vnet, first, count), free.is_some());
                    if let Some(j) = free {
                        m.owner[base + j] = Some(s);
                        m.grant[s] = Some((out, (first + j) as u8));
                    }
                }
                // SA won: a granted VC departs when its output has a credit.
                6 => {
                    let Some((out, ovc)) = m.grant[s] else { continue };
                    let oslot = out * total + vnet * per + ovc as usize;
                    if m.fifo[s].is_empty() || (out != local && m.credits[oslot] == 0) {
                        continue;
                    }
                    let f = r.depart(port, s, out, ovc, now);
                    assert_eq!(Some(f), m.fifo[s].pop_front());
                    if out != local {
                        m.credits[oslot] -= 1;
                    }
                    if f.kind.is_tail() {
                        m.grant[s] = None;
                        m.owner[oslot] = None;
                    }
                }
                // A credit returns to one of the output VCs that lent one.
                7 => {
                    let lent: Vec<usize> = (0..n).filter(|&o| m.credits[o] < depth).collect();
                    if let Some(&o) = lent.get(pick % lent.len().max(1)) {
                        r.refund_credit(o / total, o % total);
                        m.credits[o] += 1;
                    }
                }
                _ => {}
            }
            assert_eq!(audit(&r), Vec::<String>::new(), "after op {op:#x} at {now}");
            let held: usize = m.fifo.iter().map(|q| q.len()).sum();
            assert_eq!(r.buffered_flits() as usize, held);
            assert_eq!(r.holds_flits(), held > 0);
            let idle = m.grant.iter().all(Option::is_none) && m.owner.iter().all(Option::is_none);
            assert_eq!(r.is_drained(), held == 0 && idle);
            let blocked = (0..n)
                .filter(|&s| m.grant[s].is_none())
                .filter_map(|s| m.fifo[s].front().map(|f| f.dst))
                .collect::<Vec<_>>();
            assert_eq!(r.blocked_heads().map(|(dst, _)| dst).collect::<Vec<_>>(), blocked);
        }
    }

    proptest! {
        /// Random pushes, raw pops, VC claims, departures and credit
        /// refunds on a few input and output VCs, against a per-VC model:
        /// after every step `Router::audit` reports nothing, and
        /// `is_drained`, `holds_flits`, `buffered_flits` and the blocked
        /// heads agree with the model.
        #[test]
        fn router_record_matches_a_per_vc_model(
            ops in prop::collection::vec(any::<u64>(), 1..400),
        ) {
            drive_against_model(&ops);
        }
    }
}
