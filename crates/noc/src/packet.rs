//! Packets: the unit of routing and of workload generation.

use crate::config::ROUTER_STAGES;
use crate::flit::{Flit, FlitKind};
use crate::types::{Cycle, NodeId, PacketId};
use serde::{Deserialize, Serialize};

/// A packet as produced by a workload generator. The NIC serializes it into
/// flits at injection time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    pub vnet: u8,
    /// Length in flits (>= 1).
    pub len: u16,
    /// Creation cycle at the source NIC.
    pub birth: Cycle,
}

impl Packet {
    /// Materialize flit `idx` of this packet.
    #[inline]
    pub fn flit(&self, idx: u16, inject: Cycle) -> Flit {
        debug_assert!(idx < self.len);
        Flit {
            packet: self.id,
            kind: FlitKind::of(idx, self.len),
            src: self.src,
            dst: self.dst,
            vnet: self.vnet,
            vc: 0,
            escape: false,
            flit_idx: idx,
            pkt_len: self.len,
            birth: self.birth,
            inject,
            hops_router: 0,
            hops_flov: 0,
            hops_link: 0,
            payload: Flit::expected_payload(self.id, idx),
        }
    }
}

/// Record of a delivered packet, filled in at tail ejection.
/// Feeds the latency breakdown of paper Fig. 8(a)/(b).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeliveredPacket {
    pub id: PacketId,
    pub src: NodeId,
    pub dst: NodeId,
    pub vnet: u8,
    pub len: u16,
    pub birth: Cycle,
    /// Cycle the head flit left the NIC source queue.
    pub inject: Cycle,
    /// Cycle the tail flit was ejected at the destination NIC.
    pub eject: Cycle,
    /// Powered-on routers the head traversed.
    pub hops_router: u16,
    /// FLOV latches the head traversed.
    pub hops_flov: u16,
    /// Links the head traversed (including ejection).
    pub hops_link: u16,
    /// Whether the packet used the escape sub-network.
    pub used_escape: bool,
}

impl DeliveredPacket {
    /// Total latency: creation to tail ejection (includes source queueing).
    #[inline]
    pub fn total_latency(&self) -> u64 {
        self.eject - self.birth
    }

    /// Router pipeline component: hops x [`ROUTER_STAGES`].
    #[inline]
    pub fn router_latency(&self) -> u64 {
        self.hops_router as u64 * ROUTER_STAGES as u64
    }

    /// Link component: one cycle per link traversal.
    #[inline]
    pub fn link_latency(&self, link_latency: u32) -> u64 {
        self.hops_link as u64 * link_latency as u64
    }

    /// Serialization component: tail trails head by `len - 1` cycles.
    #[inline]
    pub fn serialization_latency(&self) -> u64 {
        (self.len - 1) as u64
    }

    /// FLOV component: one cycle per latch traversal.
    #[inline]
    pub fn flov_latency(&self) -> u64 {
        self.hops_flov as u64
    }

    /// Contention component: whatever is left after the structural terms
    /// (includes source queueing and in-network blocking).
    #[inline]
    pub fn contention_latency(&self, link_latency: u32) -> u64 {
        self.total_latency().saturating_sub(
            self.router_latency()
                + self.link_latency(link_latency)
                + self.serialization_latency()
                + self.flov_latency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(len: u16) -> Packet {
        Packet { id: 7, src: 0, dst: 5, vnet: 1, len, birth: 100 }
    }

    #[test]
    fn flit_materialization() {
        let p = pkt(4);
        let f0 = p.flit(0, 110);
        assert_eq!(f0.kind, FlitKind::Head);
        assert_eq!(f0.birth, 100);
        assert_eq!(f0.inject, 110);
        assert!(f0.integrity_ok());
        let f3 = p.flit(3, 113);
        assert_eq!(f3.kind, FlitKind::Tail);
        assert!(f3.integrity_ok());
    }

    #[test]
    fn single_flit_packet() {
        let p = pkt(1);
        assert_eq!(p.flit(0, 100).kind, FlitKind::Single);
    }

    #[test]
    fn latency_breakdown_sums_to_total() {
        let d = DeliveredPacket {
            id: 1,
            src: 0,
            dst: 9,
            vnet: 0,
            len: 4,
            birth: 0,
            inject: 2,
            eject: 40,
            hops_router: 4,
            hops_flov: 2,
            hops_link: 6,
            used_escape: false,
        };
        let total = d.total_latency();
        let parts = d.router_latency()
            + d.link_latency(1)
            + d.serialization_latency()
            + d.flov_latency()
            + d.contention_latency(1);
        assert_eq!(total, parts);
        assert_eq!(d.router_latency(), 12);
        assert_eq!(d.link_latency(1), 6);
        assert_eq!(d.serialization_latency(), 3);
        assert_eq!(d.flov_latency(), 2);
    }

    #[test]
    fn contention_saturates_at_zero() {
        // A pathological record cannot produce a negative component.
        let d = DeliveredPacket {
            id: 1,
            src: 0,
            dst: 1,
            vnet: 0,
            len: 1,
            birth: 0,
            inject: 0,
            eject: 1,
            hops_router: 10,
            hops_flov: 0,
            hops_link: 10,
            used_escape: false,
        };
        assert_eq!(d.contention_latency(1), 0);
    }
}
