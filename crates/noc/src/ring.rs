//! The NoRD bypass ring (Chen & Pinkston, MICRO'12): a unidirectional
//! Hamiltonian ring over all nodes, built from the node-router decoupling
//! bypass at each node. It keeps every NIC reachable even when routers are
//! power-gated — at the cost of O(N) worst-case hop counts, which is the
//! scalability critique the FLOV paper makes of it.
//!
//! The ring itself is [`TopologySpec::ring_successors`]: the seed's
//! serpentine on grids with an even height (its transposed weave when only
//! the width is even) and the "tornado" cycle on a torus of any radix. A
//! grid with both sides odd has no Hamiltonian cycle (odd number of cells
//! in a bipartite graph), which reproduces the paper's observation that "a
//! bypass can be constructed in a (k x k) mesh, if and only if k is even".
//!
//! Flow control: credit-based with two virtual channels and a dateline at
//! ring position 0 — packets start on VC0 and switch to VC1 when crossing
//! the dateline, which breaks the cyclic channel dependency of the ring.
//! Each hop takes [`RING_HOP_LATENCY`] cycles (bypass latch + wire).
//!
//! [`TopologySpec::ring_successors`]: crate::topology::TopologySpec::ring_successors

use crate::flit::Flit;
use crate::types::{Cycle, NodeId};
use std::collections::VecDeque;

/// Cycles per ring hop (bypass latch + inter-node wire).
pub const RING_HOP_LATENCY: u64 = 2;

/// Ring buffer depth per VC per node.
pub const RING_BUF_DEPTH: usize = 4;

/// Ring distance (hops) from `a` to `b` following successors.
pub fn ring_distance(succ: &[NodeId], a: NodeId, b: NodeId) -> u32 {
    let mut cur = a;
    let mut hops = 0;
    while cur != b {
        cur = succ[cur as usize];
        hops += 1;
        debug_assert!((hops as usize) <= succ.len(), "ring not a single cycle");
    }
    hops
}

/// One flit riding the ring, tagged with its VC (dateline discipline).
#[derive(Clone, Copy, Debug)]
struct RingFlit {
    flit: Flit,
    vc: u8,
}

/// Per-node ring state.
#[derive(Clone, Debug)]
pub struct RingNode {
    /// Forwarding buffers, one FIFO per VC.
    buf: [VecDeque<RingFlit>; 2],
    /// Credits toward the successor, per VC.
    credits: [u8; 2],
    /// Station: packets entering the ring here (injection from a gated
    /// node's bypass, or mesh-to-ring transfer). Unbounded by design — the
    /// station is NIC-side memory, and it is what breaks mesh<->ring
    /// coupling cycles (documented simplification).
    pub station: VecDeque<Flit>,
    /// Output wormhole lock: the packet currently being forwarded on each
    /// VC (flits of two packets must not interleave).
    out_lock: [Option<u64>; 2],
    /// Which source (0 = ring-through, 1 = station) last won arbitration.
    rr: u8,
}

impl Default for RingNode {
    fn default() -> Self {
        RingNode {
            buf: [VecDeque::new(), VecDeque::new()],
            credits: [RING_BUF_DEPTH as u8; 2],
            station: VecDeque::new(),
            out_lock: [None; 2],
            rr: 0,
        }
    }
}

/// Events the ring hands back to its owner each cycle.
#[derive(Clone, Debug, PartialEq)]
pub enum RingDelivery {
    /// Flit reached its destination node's bypass ejection.
    Eject(NodeId, Flit),
    /// Flit should transfer into the mesh at this (powered) node.
    MeshEntry(NodeId, Flit),
}

/// The bypass ring transport.
#[derive(Clone, Debug)]
pub struct BypassRing {
    succ: Vec<NodeId>,
    pred: Vec<NodeId>,
    nodes: Vec<RingNode>,
    /// In-flight flits: (arrival_cycle, to, RingFlit).
    wire: VecDeque<(Cycle, NodeId, RingFlit)>,
    /// In-flight credits: (arrival_cycle, to, vc).
    credit_wire: VecDeque<(Cycle, NodeId, u8)>,
    /// The dateline sits on the edge out of this node.
    dateline: NodeId,
    /// Total flits forwarded (activity/energy accounting).
    pub flits_forwarded: u64,
    /// Total ring ejections + mesh entries.
    pub flits_delivered: u64,
}

impl BypassRing {
    /// Build the ring transport over a Hamiltonian successor map (one
    /// entry per node; `succ[n]` is n's ring successor), as
    /// [`TopologySpec::ring_successors`](crate::topology::TopologySpec::ring_successors)
    /// supplies it.
    pub fn from_successors(succ: Vec<NodeId>) -> BypassRing {
        let n = succ.len();
        let mut pred = vec![0 as NodeId; n];
        for (a, &b) in succ.iter().enumerate() {
            pred[b as usize] = a as NodeId;
        }
        BypassRing {
            succ,
            pred,
            nodes: vec![RingNode::default(); n],
            wire: VecDeque::new(),
            credit_wire: VecDeque::new(),
            dateline: 0,
            flits_forwarded: 0,
            flits_delivered: 0,
        }
    }

    /// Ring successor of `n`.
    pub fn successor(&self, n: NodeId) -> NodeId {
        self.succ[n as usize]
    }

    /// Hops from `a` to `b` along the ring.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        ring_distance(&self.succ, a, b)
    }

    /// Queue a flit for ring transport at node `n`'s station.
    pub fn enqueue(&mut self, n: NodeId, flit: Flit) {
        self.nodes[n as usize].station.push_back(flit);
    }

    /// Flits anywhere in the ring (stations, buffers, wires).
    pub fn flits_in_ring(&self) -> u64 {
        let buffered: usize =
            self.nodes.iter().map(|rn| rn.buf[0].len() + rn.buf[1].len() + rn.station.len()).sum();
        buffered as u64 + self.wire.len() as u64
    }

    /// Advance one cycle. `exit_here(node, &flit)` decides whether a flit
    /// leaves the ring at `node` (destination bypass ejection or mesh
    /// re-entry); deliveries are appended to `out`. The rule must be a pure
    /// function of the flit (e.g. an exit node stamped at ingress) so that
    /// all flits of one packet exit at the same node.
    pub fn step(
        &mut self,
        now: Cycle,
        mut exit_here: impl FnMut(NodeId, &Flit) -> bool,
        out: &mut Vec<RingDelivery>,
    ) {
        // 1. Deliver arrived credits.
        while self.credit_wire.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, to, vc) = self.credit_wire.pop_front().unwrap();
            let c = &mut self.nodes[to as usize].credits[vc as usize];
            debug_assert!((*c as usize) < RING_BUF_DEPTH);
            *c += 1;
        }
        // 2. Deliver arrived flits into ring buffers.
        while self.wire.front().is_some_and(|&(t, _, _)| t <= now) {
            let (_, to, rf) = self.wire.pop_front().unwrap();
            let node = &mut self.nodes[to as usize];
            assert!(
                node.buf[rf.vc as usize].len() < RING_BUF_DEPTH,
                "ring buffer overflow at {to}"
            );
            node.buf[rf.vc as usize].push_back(rf);
        }
        // 3. Per node: retire exits, then forward one flit.
        for n in 0..self.nodes.len() as NodeId {
            // Exits: flits at the head of either VC that leave the ring
            // here (consume without credits — stations/NICs are the sink).
            for vc in 0..2usize {
                while let Some(head) = self.nodes[n as usize].buf[vc].front().copied() {
                    if !exit_here(n, &head.flit) {
                        break;
                    }
                    self.nodes[n as usize].buf[vc].pop_front();
                    self.send_credit(now, n, vc as u8);
                    self.flits_delivered += 1;
                    if head.flit.dst == n {
                        out.push(RingDelivery::Eject(n, head.flit));
                    } else {
                        out.push(RingDelivery::MeshEntry(n, head.flit));
                    }
                }
            }
            self.forward_one(now, n);
        }
    }

    /// Invariant audit hook: per ring edge `n -> succ(n)` and VC, the
    /// sender's credits plus the receiver's buffered flits plus flits in
    /// flight on the wire plus credits in flight back must equal
    /// [`RING_BUF_DEPTH`] — every launch/arrival/pop/refund moves one unit
    /// between exactly two of those terms. Calls `report` once per broken
    /// edge. (Stations are unbounded by design and excluded.)
    pub fn audit(&self, report: &mut dyn FnMut(String)) {
        for n in 0..self.nodes.len() as NodeId {
            let s = self.succ[n as usize];
            for vc in 0..2usize {
                let credits = self.nodes[n as usize].credits[vc] as usize;
                let buffered = self.nodes[s as usize].buf[vc].len();
                let wired = self
                    .wire
                    .iter()
                    .filter(|&&(_, to, rf)| to == s && rf.vc as usize == vc)
                    .count();
                let refunds = self
                    .credit_wire
                    .iter()
                    .filter(|&&(_, to, cvc)| to == n && cvc as usize == vc)
                    .count();
                let total = credits + buffered + wired + refunds;
                if total != RING_BUF_DEPTH {
                    report(format!(
                        "ring edge {n}->{s} vc {vc}: credits {credits} + buffered {buffered} + \
                         wired {wired} + refunds {refunds} = {total}, expected {RING_BUF_DEPTH}"
                    ));
                }
            }
        }
    }

    /// Credit back to the predecessor for a freed slot.
    fn send_credit(&mut self, now: Cycle, n: NodeId, vc: u8) {
        let pred = self.pred[n as usize];
        self.credit_wire.push_back((now + RING_HOP_LATENCY, pred, vc));
    }

    /// Forward at most one flit from node `n` to its successor: ring-through
    /// traffic and station ingress arbitrate round-robin; wormhole locks
    /// keep packets contiguous per VC.
    fn forward_one(&mut self, now: Cycle, n: NodeId) {
        let succ = self.succ[n as usize];
        // Candidate 0: ring-through (head of a VC buffer that is NOT
        // exiting here — exits were already retired above).
        // Candidate 1: station ingress (starts on VC0; switching VC happens
        // at the dateline below).
        let order = if self.nodes[n as usize].rr == 0 { [0u8, 1] } else { [1u8, 0] };
        for cand in order {
            if cand == 0 {
                // Try each VC's head.
                for vc in 0..2usize {
                    let Some(&head) = self.nodes[n as usize].buf[vc].front() else { continue };
                    // Dateline: crossing the edge out of `dateline` bumps to VC1.
                    let out_vc = if n == self.dateline { 1u8 } else { head.vc };
                    // Wormhole lock on the output VC.
                    let lock = self.nodes[n as usize].out_lock[out_vc as usize];
                    if lock.is_some_and(|p| p != head.flit.packet) {
                        continue;
                    }
                    if self.nodes[n as usize].credits[out_vc as usize] == 0 {
                        continue;
                    }
                    let rf = self.nodes[n as usize].buf[vc].pop_front().unwrap();
                    self.send_credit(now, n, vc as u8);
                    self.launch(now, n, succ, RingFlit { flit: rf.flit, vc: out_vc });
                    return;
                }
            } else {
                // Station ingress: only when VC0's output is free for us.
                let Some(&head) = self.nodes[n as usize].station.front() else { continue };
                let out_vc = 0u8;
                let lock = self.nodes[n as usize].out_lock[out_vc as usize];
                if lock.is_some_and(|p| p != head.packet) {
                    continue;
                }
                if self.nodes[n as usize].credits[out_vc as usize] == 0 {
                    continue;
                }
                let flit = self.nodes[n as usize].station.pop_front().unwrap();
                self.launch(now, n, succ, RingFlit { flit, vc: out_vc });
                self.nodes[n as usize].rr ^= 1;
                return;
            }
        }
    }

    fn launch(&mut self, now: Cycle, n: NodeId, succ: NodeId, mut rf: RingFlit) {
        self.nodes[n as usize].credits[rf.vc as usize] -= 1;
        let node = &mut self.nodes[n as usize];
        node.out_lock[rf.vc as usize] =
            if rf.flit.kind.is_tail() { None } else { Some(rf.flit.packet) };
        rf.flit.hops_flov += 1; // ring bypass hops counted as bypass latency
        rf.flit.hops_link += 1;
        self.flits_forwarded += 1;
        self.wire.push_back((now + RING_HOP_LATENCY, succ, rf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::topology::TopologySpec;
    use crate::types::Coord;

    fn mesh_ring_successors(k: u16) -> Option<Vec<NodeId>> {
        TopologySpec::Mesh { k }.ring_successors()
    }

    fn mesh4_ring() -> BypassRing {
        BypassRing::from_successors(mesh_ring_successors(4).unwrap())
    }

    #[test]
    fn ring_exists_iff_k_even() {
        // The paper's NoRD critique: bypass ring iff k is even.
        assert!(mesh_ring_successors(2).is_some());
        assert!(mesh_ring_successors(4).is_some());
        assert!(mesh_ring_successors(8).is_some());
        assert!(mesh_ring_successors(3).is_none());
        assert!(mesh_ring_successors(5).is_none());
        assert!(mesh_ring_successors(7).is_none());
    }

    #[test]
    fn ring_is_a_single_hamiltonian_cycle() {
        for k in [2u16, 4, 6, 8] {
            let succ = mesh_ring_successors(k).unwrap();
            let n = succ.len();
            // Adjacent in the mesh.
            for (a, &b) in succ.iter().enumerate() {
                let ca = Coord::of(a as NodeId, k);
                let cb = Coord::of(b, k);
                assert_eq!(ca.manhattan(cb), 1, "ring edge {a}->{b} not a mesh edge (k={k})");
            }
            // Single cycle covering all nodes.
            let mut cur = 0 as NodeId;
            let mut seen = vec![false; n];
            for _ in 0..n {
                assert!(!seen[cur as usize], "ring revisits {cur}");
                seen[cur as usize] = true;
                cur = succ[cur as usize];
            }
            assert_eq!(cur, 0);
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn ring_distance_sums_to_n() {
        let succ = mesh_ring_successors(4).unwrap();
        for a in 0..16u16 {
            for b in 0..16u16 {
                if a == b {
                    continue;
                }
                let d1 = ring_distance(&succ, a, b);
                let d2 = ring_distance(&succ, b, a);
                assert_eq!(d1 + d2, 16);
            }
        }
    }

    fn packet_flits(id: u64, src: NodeId, dst: NodeId, len: u16) -> Vec<Flit> {
        let p = Packet { id, src, dst, vnet: 0, len, birth: 0 };
        (0..len).map(|i| p.flit(i, 0)).collect()
    }

    /// Drive the ring until idle, delivering everything to destinations.
    fn run_ring(ring: &mut BypassRing, max_cycles: u64) -> Vec<RingDelivery> {
        let mut out = Vec::new();
        for now in 0..max_cycles {
            ring.step(now, |node, flit| flit.dst == node, &mut out);
            if ring.flits_in_ring() == 0 {
                break;
            }
        }
        out
    }

    #[test]
    fn single_packet_rides_ring_to_destination() {
        let mut ring = mesh4_ring();
        for f in packet_flits(1, 0, 5, 4) {
            ring.enqueue(0, f);
        }
        let out = run_ring(&mut ring, 500);
        assert_eq!(out.len(), 4);
        for d in &out {
            assert!(matches!(d, RingDelivery::Eject(5, _)));
        }
        assert_eq!(ring.flits_in_ring(), 0);
    }

    #[test]
    fn packets_cross_the_dateline() {
        let mut ring = mesh4_ring();
        // Source just after... pick a pair whose ring path crosses node 0.
        let succ = mesh_ring_successors(4).unwrap();
        // Find the predecessor of 0 on the ring and send from there to succ(0).
        let pred0 = (0..16u16).find(|&n| succ[n as usize] == 0).unwrap();
        let target = succ[0];
        for f in packet_flits(2, pred0, target, 4) {
            ring.enqueue(pred0, f);
        }
        let out = run_ring(&mut ring, 500);
        assert_eq!(out.len(), 4);
        for d in &out {
            assert!(matches!(d, RingDelivery::Eject(t, _) if *t == target));
        }
    }

    #[test]
    fn many_packets_from_many_sources_all_delivered_intact() {
        let mut ring = mesh4_ring();
        let mut expected = std::collections::HashMap::new();
        for i in 0..24u64 {
            let src = (i % 16) as NodeId;
            let dst = ((i * 7 + 3) % 16) as NodeId;
            if src == dst {
                continue;
            }
            expected.insert(i, (dst, 4u16));
            for f in packet_flits(i, src, dst, 4) {
                ring.enqueue(src, f);
            }
        }
        let out = run_ring(&mut ring, 5_000);
        let mut got: std::collections::HashMap<u64, u16> = Default::default();
        for d in out {
            let RingDelivery::Eject(node, f) = d else { panic!("unexpected mesh entry") };
            assert!(f.integrity_ok());
            assert_eq!(f.dst, node);
            *got.entry(f.packet).or_default() += 1;
        }
        for (id, (_, len)) in expected {
            assert_eq!(got.get(&id).copied().unwrap_or(0), len, "packet {id} incomplete");
        }
    }

    #[test]
    fn wormholes_never_interleave_per_vc() {
        // Two sources merging at the same node: the downstream receive
        // order within one packet must stay contiguous per VC lock. We
        // detect interleaving via the per-packet flit index order at eject.
        let mut ring = mesh4_ring();
        for f in packet_flits(10, 1, 9, 4) {
            ring.enqueue(1, f);
        }
        for f in packet_flits(11, 2, 9, 4) {
            ring.enqueue(2, f);
        }
        let out = run_ring(&mut ring, 1_000);
        let mut idx: std::collections::HashMap<u64, u16> = Default::default();
        for d in out {
            let RingDelivery::Eject(_, f) = d else { panic!() };
            let next = idx.entry(f.packet).or_default();
            assert_eq!(f.flit_idx, *next, "flits of packet {} out of order", f.packet);
            *next += 1;
        }
    }

    #[test]
    fn mesh_entry_exit_rule_is_honored() {
        let mut ring = mesh4_ring();
        for f in packet_flits(3, 0, 10, 4) {
            ring.enqueue(0, f);
        }
        // Exit rule: transfer to mesh at node 5 (pretend its router is on).
        let mut out = Vec::new();
        for now in 0..500 {
            ring.step(now, |node, flit| flit.dst == node || node == 5, &mut out);
            if ring.flits_in_ring() == 0 {
                break;
            }
        }
        assert_eq!(out.len(), 4);
        for d in out {
            assert!(matches!(d, RingDelivery::MeshEntry(5, _)));
        }
    }
}
