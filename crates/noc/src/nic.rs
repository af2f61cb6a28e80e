//! Network interface controllers: per-node source queues (with serialization
//! state) and destination-side packet reassembly.

use crate::flit::Flit;
use crate::packet::{DeliveredPacket, Packet};
use crate::types::{Cycle, PacketId};
use std::collections::{HashMap, VecDeque};

/// Serialization state of the packet currently being injected on one vnet.
#[derive(Clone, Copy, Debug)]
pub struct InjectState {
    pub pkt: Packet,
    /// Next flit index to inject.
    pub next: u16,
    /// Local-port VC (within the vnet) the packet is being written into.
    pub vc: u8,
}

#[derive(Clone, Copy, Debug, Default)]
struct RxState {
    received: u16,
    head_inject: Cycle,
}

/// One node's NIC.
#[derive(Clone, Debug)]
pub struct Nic {
    /// Source queues, one per vnet. Unbounded: generation back-pressure is a
    /// statistic (queueing delay), not a drop.
    pub queues: Vec<VecDeque<Packet>>,
    /// In-flight serialization per vnet.
    pub in_progress: Vec<Option<InjectState>>,
    /// Round-robin pointer over vnets for the 1 flit/cycle injection port.
    pub vnet_rr: usize,
    rx: HashMap<PacketId, RxState>,
}

impl Nic {
    pub fn new(vnets: usize) -> Nic {
        Nic {
            queues: (0..vnets).map(|_| VecDeque::new()).collect(),
            in_progress: vec![None; vnets],
            vnet_rr: 0,
            rx: HashMap::new(),
        }
    }

    /// Queue a packet for injection.
    pub fn enqueue(&mut self, p: Packet) {
        self.queues[p.vnet as usize].push_back(p);
    }

    /// True if any packet is queued or mid-serialization.
    pub fn pending(&self) -> bool {
        self.in_progress.iter().any(|s| s.is_some()) || self.queues.iter().any(|q| !q.is_empty())
    }

    /// Accept one ejected flit; returns the completed packet record when the
    /// tail arrives. Panics on integrity violations — a corrupted or
    /// misdelivered flit invalidates the whole simulation.
    pub fn receive(&mut self, f: Flit, now: Cycle, at_node: u16) -> Option<DeliveredPacket> {
        assert!(f.integrity_ok(), "flit payload corrupted in transit (packet {})", f.packet);
        assert_eq!(f.dst, at_node, "flit misdelivered: dst {} arrived at {}", f.dst, at_node);
        let st = self.rx.entry(f.packet).or_default();
        assert_eq!(
            st.received, f.flit_idx,
            "flit reordering within packet {}: expected idx {}, got {}",
            f.packet, st.received, f.flit_idx
        );
        if f.kind.is_head() {
            st.head_inject = f.inject;
        }
        st.received += 1;
        if f.kind.is_tail() {
            let st = self.rx.remove(&f.packet).unwrap();
            assert_eq!(
                st.received, f.pkt_len,
                "tail arrived before all flits of packet {}",
                f.packet
            );
            Some(DeliveredPacket {
                id: f.packet,
                src: f.src,
                dst: f.dst,
                vnet: f.vnet,
                len: f.pkt_len,
                birth: f.birth,
                inject: st.head_inject,
                eject: now,
                hops_router: f.hops_router,
                hops_flov: f.hops_flov,
                hops_link: f.hops_link,
                used_escape: f.escape,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;

    fn packet(id: PacketId, len: u16) -> Packet {
        Packet { id, src: 1, dst: 2, vnet: 0, len, birth: 5 }
    }

    #[test]
    fn reassembly_completes_on_tail() {
        let mut nic = Nic::new(1);
        let p = packet(7, 4);
        for i in 0..4 {
            let mut f = p.flit(i, 10 + i as u64);
            f.hops_router = 3;
            let r = nic.receive(f, 20 + i as u64, 2);
            if i < 3 {
                assert!(r.is_none());
            } else {
                let d = r.unwrap();
                assert_eq!(d.id, 7);
                assert_eq!(d.inject, 10);
                assert_eq!(d.eject, 23);
                assert_eq!(d.len, 4);
                assert_eq!(d.hops_router, 3);
            }
        }
        assert!(nic.rx.is_empty());
    }

    #[test]
    fn interleaved_packets_reassemble_independently() {
        let mut nic = Nic::new(1);
        let a = packet(1, 2);
        let b = packet(2, 2);
        assert!(nic.receive(a.flit(0, 0), 10, 2).is_none());
        assert!(nic.receive(b.flit(0, 1), 11, 2).is_none());
        assert!(nic.receive(a.flit(1, 2), 12, 2).is_some());
        assert!(nic.receive(b.flit(1, 3), 13, 2).is_some());
    }

    #[test]
    #[should_panic(expected = "corrupted")]
    fn corruption_is_fatal() {
        let mut nic = Nic::new(1);
        let mut f = packet(3, 1).flit(0, 0);
        f.payload ^= 1;
        nic.receive(f, 10, 2);
    }

    #[test]
    #[should_panic(expected = "misdelivered")]
    fn misdelivery_is_fatal() {
        let mut nic = Nic::new(1);
        let f = packet(3, 1).flit(0, 0);
        nic.receive(f, 10, 9);
    }

    #[test]
    #[should_panic(expected = "reordering")]
    fn reordering_is_fatal() {
        let mut nic = Nic::new(1);
        let p = packet(4, 3);
        nic.receive(p.flit(0, 0), 10, 2);
        nic.receive(p.flit(2, 2), 11, 2);
    }

    #[test]
    fn single_flit_packet_completes_immediately() {
        let mut nic = Nic::new(1);
        let p = packet(5, 1);
        let d = nic.receive(p.flit(0, 9), 15, 2).unwrap();
        assert_eq!(d.inject, 9);
        assert_eq!(d.eject, 15);
        assert_eq!(d.serialization_latency(), 0);
    }

    #[test]
    fn queue_accounting() {
        let mut nic = Nic::new(2);
        assert!(!nic.pending());
        nic.enqueue(packet(1, 4));
        nic.enqueue(Packet { vnet: 1, ..packet(2, 4) });
        assert!(nic.pending());
        assert_eq!(nic.queues.iter().map(|q| q.len()).sum::<usize>(), 2);
        assert_eq!(FlitKind::of(0, 4), FlitKind::Head);
    }
}
