//! The 3-stage router pipeline (RC | VA+SA | ST) and NIC injection.
//!
//! Timing model: a head flit visible in an input buffer at cycle `a` does
//! route compute during `a`, may win VA+SA from `a + 1`, traverses the
//! switch the cycle after its SA win and the link after that — so a flit
//! winning SA at `t` becomes visible downstream at `t + 2 + link_latency`,
//! and the unloaded per-hop latency is `pipeline_stages + link_latency`.
//! Body flits stream behind the head at one flit per cycle per VC.

use super::{KernelMode, NetworkCore};
use crate::link::CreditMsg;
use crate::nic::InjectState;
use crate::routing::RouteCtx;
use crate::traits::PowerMechanism;
use crate::types::{NodeId, Port};

/// Build the routing context a mechanism sees for a head flit at `at`.
pub fn build_route_ctx(
    core: &NetworkCore,
    at: NodeId,
    in_port: Port,
    dst: NodeId,
    escape: bool,
) -> RouteCtx {
    use crate::topology::Topology;
    RouteCtx {
        kx: core.topo.kx(),
        ky: core.topo.ky(),
        torus: core.topo.wraps(),
        at: core.coord(at),
        in_port,
        dst: core.coord(dst),
        escape,
        neighbors: core.psr(at),
    }
}

/// Phase 5: one flit per node per cycle from the NIC source queues into the
/// local input port, subject to the mechanism's injection gate (Router
/// Parking stalls injection during reconfiguration).
pub(super) fn injection_phase(core: &mut NetworkCore, mech: &dyn PowerMechanism) {
    match core.kernel {
        KernelMode::Reference => {
            for node in 0..core.nodes() as NodeId {
                if !core.nics[node as usize].pending() {
                    continue;
                }
                inject_node(core, mech, node);
            }
        }
        KernelMode::ActiveSet => {
            let mut scratch = std::mem::take(&mut core.sched.scratch);
            core.sched.inject.collect_into(&mut scratch);
            for &node in &scratch {
                if !core.nics[node as usize].pending() {
                    core.sched.inject.remove(node as usize);
                    continue;
                }
                // Gated nodes with backlog stay marked: the mechanism will
                // wake the router eventually and injection resumes here.
                inject_node(core, mech, node as NodeId);
            }
            core.sched.scratch = scratch;
        }
        KernelMode::Parallel { tiles, grid } => {
            super::par::injection_phase(core, mech, tiles, grid)
        }
    }
}

/// Injection-phase body for one node with NIC backlog (shared by both
/// kernels).
fn inject_node(core: &mut NetworkCore, mech: &dyn PowerMechanism, node: NodeId) {
    let now = core.cycle;
    let vnets = core.cfg.vnets;
    if !core.routers[node as usize].power.is_powered() {
        return; // router gated; the mechanism is responsible for waking it
    }
    // The injection gate (Router Parking's reconfiguration stall) blocks
    // *starting* packets; committed serializations must finish so the
    // network can drain.
    let gate_open = mech.injection_allowed(core, node);
    if !gate_open && core.nics[node as usize].in_progress.iter().all(|p| p.is_none()) {
        core.stalled_injection_node_cycles += 1;
        return;
    }
    let rr0 = core.nics[node as usize].vnet_rr;
    for i in 0..vnets {
        let vn = (rr0 + i) % vnets;
        // Start a new serialization if this vnet is between packets.
        if core.nics[node as usize].in_progress[vn].is_none() {
            if !gate_open || core.nics[node as usize].queues[vn].is_empty() {
                continue;
            }
            // The ring transfer injector owns the last regular VC of the
            // local port (see `ring_injection_phase`): NIC serializations
            // must stay off it, or a local packet can interleave with a
            // ring-to-mesh transfer wormhole in one VC FIFO — the flits
            // reach the destination NIC interleaved (flit-reordering
            // panic) and debug builds trip the open-wormhole assert.
            let reg = core.cfg.regular_vcs - usize::from(core.ring.is_some());
            let mut chosen = None;
            for j in 0..reg {
                let vc = (now as usize + j) % reg;
                let flat = core.cfg.vc_index(vn, vc);
                let r = &core.routers[node as usize];
                if r.inputs[r.slot(Port::Local.index(), flat)].buf.free() > 0 {
                    chosen = Some(vc);
                    break;
                }
            }
            let Some(vc) = chosen else { continue };
            let pkt = core.nics[node as usize].queues[vn].pop_front().unwrap();
            core.nics[node as usize].in_progress[vn] =
                Some(InjectState { pkt, next: 0, vc: vc as u8 });
        }
        // Push the next flit of the in-progress packet if there is room.
        let st = core.nics[node as usize].in_progress[vn].unwrap();
        let flat = core.cfg.vc_index(vn, st.vc as usize);
        let slot = {
            let r = &core.routers[node as usize];
            r.slot(Port::Local.index(), flat)
        };
        if core.routers[node as usize].inputs[slot].buf.free() == 0 {
            continue;
        }
        let mut f = st.pkt.flit(st.next, now);
        f.vc = st.vc;
        let r = &mut core.routers[node as usize];
        r.push_flit(Port::Local.index(), slot, f, now);
        r.touch_local(now);
        core.activity.buffer_writes += 1;
        core.activity.flits_injected += 1;
        if st.next == 0 {
            core.activity.packets_injected += 1;
        }
        let nic = &mut core.nics[node as usize];
        if st.next + 1 == st.pkt.len {
            nic.in_progress[vn] = None;
        } else {
            nic.in_progress[vn] = Some(InjectState { next: st.next + 1, ..st });
        }
        nic.vnet_rr = (vn + 1) % vnets;
        core.mark_work(node);
        core.note_progress();
        break; // one flit per node per cycle
    }
}

/// Phase 6: VA then SA/ST for every powered router with buffered flits, in
/// id order. The reference kernel scans all routers; the active-set kernel
/// visits the work set (routers with `buffered_flits() > 0`), which is
/// equivalent because an empty router's VA and SA stages have no side
/// effects (every slot is skipped before any arbiter advances).
pub(super) fn pipeline_phase(core: &mut NetworkCore, mech: &dyn PowerMechanism) {
    match core.kernel {
        KernelMode::Reference => {
            for node in 0..core.nodes() as NodeId {
                if !core.routers[node as usize].power.is_powered() {
                    continue;
                }
                va_stage(core, mech, node);
                sa_stage(core, node);
            }
        }
        KernelMode::ActiveSet => {
            let mut scratch = std::mem::take(&mut core.sched.scratch);
            core.sched.work.collect_into(&mut scratch);
            for &node in &scratch {
                let i = node as usize;
                if core.routers[i].buffered_flits() == 0 {
                    core.sched.work.remove(i);
                    continue;
                }
                // Buffered flits imply a powered router: `enter_sleep`
                // asserts the buffers are drained.
                debug_assert!(core.routers[i].power.is_powered());
                va_stage(core, mech, node as NodeId);
                sa_stage(core, node as NodeId);
            }
            core.sched.scratch = scratch;
        }
        KernelMode::Parallel { tiles, grid } => super::par::pipeline_phase(core, mech, tiles, grid),
    }
}

/// VC allocation (with route compute folded in): for each input VC whose
/// front is an unallocated head flit past its RC cycle, compute the route
/// (re-evaluated every cycle until granted, so decisions always use current
/// power states), walk the FLOV chain, and try to claim a downstream VC.
fn va_stage(core: &mut NetworkCore, mech: &dyn PowerMechanism, node: NodeId) {
    let now = core.cycle;
    let total_vcs = core.cfg.total_vcs();
    let mut order = std::mem::take(&mut core.va_order);
    core.routers[node as usize].va_order(now, &mut order);
    for &s in &order {
        let s = s as usize;
        let port = s / total_vcs;
        let (dst, vnet, mut escape, head_since);
        {
            let invc = &core.routers[node as usize].inputs[s];
            let f = invc.buf.front().expect("VA candidate with an empty buffer");
            debug_assert!(f.kind.is_head(), "non-head flit at front without an allocation");
            head_since = invc.head_since;
            if now < head_since + 1 {
                continue; // still in the RC stage
            }
            dst = f.dst;
            vnet = f.vnet as usize;
            escape = f.escape;
        }
        // Duato timeout recovery: divert long-blocked packets to the escape
        // sub-network.
        if !escape && core.cfg.escape_vcs > 0 && now - head_since > core.cfg.escape_timeout as u64 {
            escape = true;
            core.escape_diversions += 1;
            core.routers[node as usize].inputs[s].buf.front_mut().unwrap().escape = true;
        }
        let in_port = Port::from_index(port);
        let ctx = build_route_ctx(core, node, in_port, dst, escape);
        let mut routed = mech.route(core, &ctx);
        if routed.is_none() && !escape && core.cfg.escape_vcs > 0 {
            // The regular routing function has no viable output at all
            // (e.g. FLOV's U-turn trap with both turn candidates gated):
            // divert to the escape sub-network immediately — it guarantees
            // a path — instead of burning the whole deadlock timeout.
            escape = true;
            core.escape_diversions += 1;
            core.routers[node as usize].inputs[s].buf.front_mut().unwrap().escape = true;
            routed = mech.route(core, &RouteCtx { escape: true, ..ctx });
        }
        let Some(out) = routed else { continue };
        debug_assert!(
            escape || out == Port::Local || out != in_port,
            "mechanism routed a non-escape U-turn at router {node}"
        );
        let (first, count) = if escape {
            let e = core.cfg.escape_vc().expect("escape flit but no escape VC configured");
            (e, 1)
        } else {
            (0, core.cfg.regular_vcs)
        };
        if out == Port::Local {
            debug_assert!(
                dst == node || core.ring.is_some(),
                "local ejection routed for a non-local flit without a ring"
            );
            // Ejection may use any VC of the vnet (the NIC always drains).
            try_grant(core, node, s, Port::Local.index(), vnet, 0, core.cfg.vcs_per_vnet());
            continue;
        }
        let d = out.dir().unwrap();
        debug_assert!(core.neighbor(node, d).is_some(), "mechanism routed off the mesh at {node}");
        let walk = core.chain_walk(node, d, dst);
        if let Some(sleeper) = walk.dst_on_chain {
            // Destination router is power-gated: hold the packet and ask the
            // mechanism to wake it.
            core.request_wakeup(sleeper);
            continue;
        }
        if walk.blocked || walk.powered.is_none() {
            continue; // retry next cycle; handshakes resolve this
        }
        try_grant(core, node, s, out.index(), vnet, first, count);
    }
    core.va_order = order;
}

/// Claim a free downstream VC among `[first, first + count)` of `vnet` on
/// output `op` (see [`crate::router::Router::claim_vc`]).
fn try_grant(
    core: &mut NetworkCore,
    node: NodeId,
    s: usize,
    op: usize,
    vnet: usize,
    first: usize,
    count: usize,
) {
    let now = core.cycle;
    if core.routers[node as usize].claim_vc(now, s, op, vnet, first, count) {
        core.activity.va_grants += 1;
    }
}

/// Switch allocation (see [`crate::router::Router::switch_allocate`]);
/// the winners traverse the switch in output-port order.
fn sa_stage(core: &mut NetworkCore, node: NodeId) {
    let winners = core.routers[node as usize].switch_allocate(core.cycle);
    for (op, w) in winners.into_iter().enumerate() {
        if let Some((p, s, ovc)) = w {
            st_traverse(core, node, p, s, op, ovc);
        }
    }
}

/// Switch traversal for one SA winner: move the flit onto the output link,
/// consume the downstream credit, refund the upstream credit for the freed
/// input slot, and close the wormhole on tails.
fn st_traverse(core: &mut NetworkCore, node: NodeId, in_port: usize, s: usize, op: usize, ovc: u8) {
    let now = core.cycle;
    let link_lat = core.cfg.link_latency as u64;
    let mut f = core.routers[node as usize].depart(in_port, s, op, ovc, now);
    core.activity.buffer_reads += 1;
    core.activity.xbar_traversals += 1;
    core.activity.sa_grants += 1;
    f.vc = ovc;
    if op != Port::Local.index() && core.cfg.is_escape_vc(ovc as usize) {
        f.escape = true;
    }
    f.hops_router += 1;
    f.hops_link += 1;
    core.activity.link_flits += 1;
    let arrival = now + link_lat + 2; // ST next cycle, then the wire
    if op == Port::Local.index() {
        core.eject[node as usize].send_flit(arrival, f);
        core.mark_eject(node);
    } else {
        let d = Port::from_index(op).dir().unwrap();
        let e = node as usize * 4 + d.index();
        core.link_util[e] += 1;
        core.channel_mut(node, d).send_flit(arrival, f);
        core.mark_chan(e);
    }
    // Credit for the freed input slot flows back upstream (not for the
    // local port: the NIC observes buffer space directly).
    if in_port != Port::Local.index() {
        let d_up = Port::from_index(in_port).dir().unwrap();
        if core.neighbor(node, d_up).is_some() {
            let (vn, vc) = core.cfg.vc_split(s % core.cfg.total_vcs());
            core.channel_mut(node, d_up)
                .send_credit(now + 3, CreditMsg { vnet: vn as u8, vc: vc as u8 });
            core.mark_chan(node as usize * 4 + d_up.index());
            core.activity.credit_msgs += 1;
        }
    }
    core.note_progress();
}
