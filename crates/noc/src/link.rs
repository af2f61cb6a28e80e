//! In-flight traffic: one arrival wheel for every inter-router wire and
//! every router-to-NIC ejection path.
//!
//! A directed link from A to B carries (a) flits travelling A->B with the
//! configured link latency and (b) credit messages travelling A->B that
//! refund flits which earlier flowed B->A (credits always flow against
//! their flits). Links are indexed `node * 4 + dir`: the link leads out of
//! `node` in direction `dir`, so each one feeds exactly one input port,
//! latch or credit counter.
//!
//! Every send lands a bounded number of cycles ahead (a switch-traversal
//! flit `link_latency + 2`, a latch flit `link_latency`, a switch-traversal
//! credit 3, a relayed credit 1), so in-flight traffic lives in a ring of
//! [`Wheel::slots`] slots indexed by arrival cycle, each holding that
//! cycle's flits, credits and ejections in send order. Delivery takes
//! exactly one slot per cycle; nothing is polled and nothing is sorted.

use crate::flit::Flit;
use crate::types::{Cycle, NodeId};

/// A credit refund for one VC, in flight on a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditMsg {
    pub vnet: u8,
    pub vc: u8,
}

/// The traffic arriving in one cycle, each list in send order.
#[derive(Clone, Debug, Default)]
pub struct Slot {
    /// Flits on inter-router links, as `(link, flit)`.
    pub flits: Vec<(u32, Flit)>,
    /// Credits on inter-router links, as `(link, credit)`.
    pub credits: Vec<(u32, CreditMsg)>,
    /// Flits leaving a router for its NIC, as `(node, flit)`.
    pub ejects: Vec<(NodeId, Flit)>,
}

impl Slot {
    /// Entries of all three kinds.
    pub fn len(&self) -> usize {
        self.flits.len() + self.credits.len() + self.ejects.len()
    }

    /// True if nothing arrives in this slot.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The arrival wheel: a ring of [`Slot`]s indexed by arrival cycle, plus a
/// flat count of the flits in flight on each link.
#[derive(Clone, Debug)]
pub struct Wheel {
    slots: Vec<Slot>,
    /// Flits in flight per link; written only by [`Wheel::send_flit`] and
    /// [`Wheel::retire`], so [`Wheel::flits_on`] is one load.
    wire_flits: Vec<u32>,
    /// Entries in flight across all slots.
    pending: usize,
}

impl Wheel {
    /// A wheel for `links` directed links and `nodes` ejection paths with
    /// `link_latency`-cycle wires. Each slot starts with room for one
    /// entry per node of each kind, so light and moderate loads never
    /// grow it.
    pub fn new(links: usize, nodes: usize, link_latency: u32) -> Wheel {
        let w = (link_latency as usize + 3).next_power_of_two();
        let slot = || Slot {
            flits: Vec::with_capacity(nodes),
            credits: Vec::with_capacity(nodes),
            ejects: Vec::with_capacity(nodes),
        };
        Wheel { slots: (0..w).map(|_| slot()).collect(), wire_flits: vec![0; links], pending: 0 }
    }

    /// Number of slots: the smallest power of two above `link_latency + 2`,
    /// the farthest any send lands ahead.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot_mut(&mut self, at: Cycle) -> &mut Slot {
        let mask = self.slots.len() - 1;
        &mut self.slots[at as usize & mask]
    }

    /// Schedule a flit to arrive on `link` at cycle `at`.
    #[inline]
    pub fn send_flit(&mut self, link: usize, at: Cycle, f: Flit) {
        self.slot_mut(at).flits.push((link as u32, f));
        self.wire_flits[link] += 1;
        self.pending += 1;
    }

    /// Schedule a credit to arrive on `link` at cycle `at`.
    #[inline]
    pub fn send_credit(&mut self, link: usize, at: Cycle, c: CreditMsg) {
        self.slot_mut(at).credits.push((link as u32, c));
        self.pending += 1;
    }

    /// Schedule a flit to reach the NIC of `node` at cycle `at`.
    #[inline]
    pub fn send_eject(&mut self, node: NodeId, at: Cycle, f: Flit) {
        self.slot_mut(at).ejects.push((node, f));
        self.pending += 1;
    }

    /// Take everything arriving at `now` for delivery. Sends made while
    /// the slot is out land in other slots (every send is at least one
    /// cycle ahead); hand it back with [`Wheel::retire`].
    #[inline]
    pub fn take(&mut self, now: Cycle) -> Slot {
        std::mem::take(self.slot_mut(now))
    }

    /// Return a delivered slot taken at `now`: its flits leave the
    /// per-link counts, and it is cleared in place, keeping its capacity.
    #[inline]
    pub fn retire(&mut self, now: Cycle, mut slot: Slot) {
        for &(link, _) in &slot.flits {
            self.wire_flits[link as usize] -= 1;
        }
        self.pending -= slot.len();
        slot.flits.clear();
        slot.credits.clear();
        slot.ejects.clear();
        let home = self.slot_mut(now);
        debug_assert!(home.is_empty(), "a send landed in the slot being delivered");
        *home = slot;
    }

    /// True if nothing is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Flits in flight on `link`.
    #[inline]
    pub fn flits_on(&self, link: usize) -> u32 {
        self.wire_flits[link]
    }

    /// Flits in flight on every link, indexed like the links.
    pub fn wire_flits(&self) -> &[u32] {
        &self.wire_flits
    }

    /// Mutable per-link counts, for the auditor's tamper tests.
    #[cfg(test)]
    pub(crate) fn wire_flits_mut(&mut self) -> &mut [u32] {
        &mut self.wire_flits
    }

    /// Every slot, in no particular cycle order (audits and tallies).
    pub fn iter_slots(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter()
    }

    /// Flits in flight on `link` for one VC (a scan of every slot; the
    /// credit audit at power transitions).
    pub fn flits_for(&self, link: usize, vnet: u8, vc: u8) -> usize {
        let hit = |&&(l, f): &&(u32, Flit)| l as usize == link && f.vnet == vnet && f.vc == vc;
        self.slots.iter().map(|s| s.flits.iter().filter(hit).count()).sum()
    }

    /// Credits in flight on `link` for one VC (a scan of every slot).
    pub fn credits_for(&self, link: usize, vnet: u8, vc: u8) -> usize {
        let want = (link as u32, CreditMsg { vnet, vc });
        self.slots.iter().map(|s| s.credits.iter().filter(|&&c| c == want).count()).sum()
    }

    /// Flits in flight anywhere: on links and toward NICs.
    pub fn flits(&self) -> usize {
        self.slots.iter().map(|s| s.flits.len() + s.ejects.len()).sum()
    }

    /// Drop every credit in flight on `link`. Used at power transitions:
    /// the upstream counter is about to be re-seeded, and FIFO ordering of
    /// the real wires guarantees these relayed credits would have been
    /// absorbed into the old (discarded) counter before the re-seed.
    pub fn clear_credits(&mut self, link: usize) {
        let mut dropped = 0;
        for s in &mut self.slots {
            let before = s.credits.len();
            s.credits.retain(|&(l, _)| l as usize != link);
            dropped += before - s.credits.len();
        }
        self.pending -= dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_LINK_LATENCY;
    use crate::flit::FlitKind;

    fn flit(idx: u16) -> Flit {
        Flit {
            packet: 9,
            kind: FlitKind::of(idx, 4),
            src: 0,
            dst: 3,
            vnet: 0,
            vc: 1,
            escape: false,
            flit_idx: idx,
            pkt_len: 4,
            birth: 0,
            inject: 0,
            hops_router: 0,
            hops_flov: 0,
            hops_link: 0,
            payload: Flit::expected_payload(9, idx),
        }
    }

    /// Deliver cycle `now`: the link and flit index of every flit, then
    /// the link of every credit.
    fn deliver(w: &mut Wheel, now: Cycle) -> (Vec<(u32, u16)>, Vec<u32>) {
        let slot = w.take(now);
        let flits = slot.flits.iter().map(|&(l, f)| (l, f.flit_idx)).collect();
        let credits = slot.credits.iter().map(|&(l, _)| l).collect();
        w.retire(now, slot);
        (flits, credits)
    }

    #[test]
    fn out_of_order_send_is_delivered_in_arrival_order() {
        let mut w = Wheel::new(8, 2, 1);
        w.send_flit(3, 5, flit(0));
        w.send_flit(3, 4, flit(1)); // sent later, arrives earlier
        assert_eq!(deliver(&mut w, 3).0, []);
        assert_eq!(deliver(&mut w, 4).0, [(3, 1)]);
        assert_eq!(deliver(&mut w, 5).0, [(3, 0)]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_cycle_sends_on_one_link_keep_fifo_order() {
        let mut w = Wheel::new(8, 2, 1);
        w.send_flit(2, 3, flit(0));
        w.send_flit(5, 3, flit(1));
        w.send_flit(2, 3, flit(2));
        w.send_flit(2, 3, flit(3));
        let (flits, _) = deliver(&mut w, 3);
        let on_2: Vec<u16> = flits.iter().filter(|&&(l, _)| l == 2).map(|&(_, i)| i).collect();
        assert_eq!(on_2, [0, 2, 3]);
        assert_eq!(flits.len(), 4);
    }

    #[test]
    fn clearing_one_links_credits_leaves_the_others() {
        let mut w = Wheel::new(8, 2, 1);
        let c = CreditMsg { vnet: 0, vc: 2 };
        w.send_credit(1, 1, c);
        w.send_credit(4, 1, c);
        w.send_credit(1, 3, c);
        w.send_credit(6, 3, c);
        w.send_flit(1, 3, flit(0));
        w.clear_credits(1);
        assert_eq!(w.credits_for(1, 0, 2), 0);
        assert_eq!(w.credits_for(4, 0, 2), 1);
        assert_eq!(w.credits_for(6, 0, 2), 1);
        assert_eq!(w.flits_on(1), 1, "flits on the cleared link stay");
        assert_eq!(deliver(&mut w, 1), (vec![], vec![4]));
        assert_eq!(deliver(&mut w, 3), (vec![(1, 0)], vec![6]));
        assert!(w.is_empty());
    }

    #[test]
    fn per_link_count_equals_a_scan_of_the_wheel() {
        let mut w = Wheel::new(16, 4, 2);
        for now in 0..40u64 {
            // Sends spread over every legal distance, links and kinds.
            let link = (now * 7 % 16) as usize;
            w.send_flit(link, now + 1 + now % 4, flit((now % 4) as u16));
            w.send_credit(link, now + 3, CreditMsg { vnet: 0, vc: 1 });
            w.send_eject((now % 4) as NodeId, now + 4, flit(0));
            deliver(&mut w, now);
            let mut scan = [0u32; 16];
            for s in w.iter_slots() {
                for &(l, _) in &s.flits {
                    scan[l as usize] += 1;
                }
            }
            assert_eq!(w.wire_flits(), &scan[..]);
        }
        assert_eq!(w.flits(), w.iter_slots().map(|s| s.flits.len() + s.ejects.len()).sum());
    }

    #[test]
    fn the_wheel_covers_the_farthest_send() {
        for lat in [1, 2, 5, 13, MAX_LINK_LATENCY] {
            let w = Wheel::new(4, 1, lat);
            assert!(w.slots() > lat as usize + 2, "latency {lat}: {} slots", w.slots());
            assert!(w.slots().is_power_of_two());
        }
        assert_eq!(Wheel::new(4, 1, 1).slots(), 4);
    }

    #[test]
    fn per_vc_credit_counting() {
        let mut w = Wheel::new(4, 1, 1);
        w.send_credit(2, 1, CreditMsg { vnet: 0, vc: 1 });
        w.send_credit(2, 2, CreditMsg { vnet: 0, vc: 1 });
        w.send_credit(2, 3, CreditMsg { vnet: 1, vc: 1 });
        w.send_credit(3, 3, CreditMsg { vnet: 0, vc: 1 });
        assert_eq!(w.credits_for(2, 0, 1), 2);
        assert_eq!(w.credits_for(2, 1, 1), 1);
        assert_eq!(w.credits_for(2, 0, 0), 0);
        assert_eq!(w.flits_for(2, 0, 1), 0);
    }
}
