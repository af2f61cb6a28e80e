//! The 3-stage router pipeline (RC | VA+SA | ST) and NIC injection.
//!
//! Timing model: a head flit visible in an input buffer at cycle `a` does
//! route compute during `a`, may win VA+SA from `a + 1`, traverses the
//! switch the cycle after its SA win and the link after that — so a flit
//! winning SA at `t` becomes visible downstream at `t + 2 + link_latency`,
//! and the unloaded per-hop latency is `pipeline_stages + link_latency`.
//! Body flits stream behind the head at one flit per cycle per VC.

use super::{chain, Fabric, KernelMode, NetworkCore, Seq, SetId};
use crate::link::CreditMsg;
use crate::nic::InjectState;
use crate::routing::RouteCtx;
use crate::traits::PowerMechanism;
use crate::types::{NodeId, Port};

/// The routing context a mechanism sees for a head flit at `at`.
fn build_route_ctx<F: Fabric>(
    fab: &F,
    at: NodeId,
    in_port: Port,
    dst: NodeId,
    escape: bool,
) -> RouteCtx {
    let (topo, t) = (fab.topo(), fab.tables());
    RouteCtx {
        kx: topo.kx(),
        ky: topo.ky(),
        torus: topo.wraps(),
        at: t.coord(at),
        in_port,
        dst: t.coord(dst),
        escape,
        neighbors: chain::psr(t, fab.view(), at),
    }
}

/// Phase 5: one flit per node per cycle from the NIC source queues into the
/// local input port, subject to the mechanism's injection gate (Router
/// Parking stalls injection during reconfiguration).
pub(super) fn injection_phase(core: &mut NetworkCore, mech: &dyn PowerMechanism) {
    match core.kernel {
        KernelMode::Reference => {
            for node in 0..core.nodes() as NodeId {
                if core.nics[node as usize].pending() {
                    inject_node(&mut Seq(core), mech, node);
                }
            }
        }
        KernelMode::ActiveSet => {
            core.for_each_marked(SetId::Inject, |fab, n| inject_task(fab, mech, n as NodeId))
        }
        KernelMode::Parallel { tiles, grid } => {
            super::par::injection_phase(core, mech, tiles, grid)
        }
    }
}

/// Active-set injection task for `node`, including the lazy removal. Gated
/// nodes with backlog stay marked: the mechanism will wake the router
/// eventually and injection resumes here.
pub(super) fn inject_task<F: Fabric>(fab: &mut F, mech: &dyn PowerMechanism, node: NodeId) {
    if !fab.nic(node as usize).pending() {
        fab.unmark(SetId::Inject, node as usize);
        return;
    }
    inject_node(fab, mech, node);
}

/// Injection body for one node with NIC backlog.
fn inject_node<F: Fabric>(fab: &mut F, mech: &dyn PowerMechanism, node: NodeId) {
    let now = fab.now();
    let vnets = fab.cfg().vnets;
    let n = node as usize;
    if !fab.router(n).power.is_powered() {
        return; // router gated; the mechanism is responsible for waking it
    }
    // The injection gate (Router Parking's reconfiguration stall) blocks
    // *starting* packets; committed serializations must finish so the
    // network can drain.
    let gate_open = mech.injection_allowed(fab.view(), node);
    if !gate_open && fab.nic(n).in_progress.iter().all(|p| p.is_none()) {
        fab.stalled_injection();
        return;
    }
    let rr0 = fab.nic(n).vnet_rr;
    for i in 0..vnets {
        let vn = (rr0 + i) % vnets;
        // Start a new serialization if this vnet is between packets.
        if fab.nic(n).in_progress[vn].is_none() {
            if !gate_open || fab.nic(n).queues[vn].is_empty() {
                continue;
            }
            // The ring transfer injector owns the last regular VC of the
            // local port (see `ring_injection_phase`): NIC serializations
            // must stay off it, or a local packet can interleave with a
            // ring-to-mesh transfer wormhole in one VC FIFO — the flits
            // reach the destination NIC interleaved (flit-reordering
            // panic) and debug builds trip the open-wormhole assert.
            let reg = fab.cfg().regular_vcs - usize::from(fab.has_ring());
            let mut chosen = None;
            for j in 0..reg {
                let vc = (now as usize + j) % reg;
                let flat = fab.cfg().vc_index(vn, vc);
                let r = fab.router(n);
                if r.free_slots(r.slot(Port::Local.index(), flat)) > 0 {
                    chosen = Some(vc);
                    break;
                }
            }
            let Some(vc) = chosen else { continue };
            let nic = fab.nic(n);
            let pkt = nic.queues[vn].pop_front().unwrap();
            nic.in_progress[vn] = Some(InjectState { pkt, next: 0, vc: vc as u8 });
        }
        // Push the next flit of the in-progress packet if there is room.
        let st = fab.nic(n).in_progress[vn].unwrap();
        let flat = fab.cfg().vc_index(vn, st.vc as usize);
        let r = fab.router(n);
        let slot = r.slot(Port::Local.index(), flat);
        if r.free_slots(slot) == 0 {
            continue;
        }
        let mut f = st.pkt.flit(st.next, now);
        f.vc = st.vc;
        r.push_flit(Port::Local.index(), slot, f, now);
        r.touch_local(now);
        let act = fab.act();
        act.buffer_writes += 1;
        act.flits_injected += 1;
        if st.next == 0 {
            act.packets_injected += 1;
        }
        let nic = fab.nic(n);
        if st.next + 1 == st.pkt.len {
            nic.in_progress[vn] = None;
        } else {
            nic.in_progress[vn] = Some(InjectState { next: st.next + 1, ..st });
        }
        nic.vnet_rr = (vn + 1) % vnets;
        fab.mark(SetId::Work, n);
        fab.progress();
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
                if core.routers[node as usize].power.is_powered() {
                    let fab = &mut Seq(core);
                    va_stage(fab, mech, node);
                    sa_stage(fab, node);
                }
            }
        }
        KernelMode::ActiveSet => {
            core.for_each_marked(SetId::Work, |fab, n| pipeline_task(fab, mech, n as NodeId))
        }
        KernelMode::Parallel { tiles, grid } => super::par::pipeline_phase(core, mech, tiles, grid),
    }
}

/// Active-set pipeline task for `node`, including the lazy removal.
pub(super) fn pipeline_task<F: Fabric>(fab: &mut F, mech: &dyn PowerMechanism, node: NodeId) {
    let i = node as usize;
    if fab.router(i).buffered_flits() == 0 {
        fab.unmark(SetId::Work, i);
        return;
    }
    // Buffered flits imply a powered router: `enter_sleep` asserts the
    // buffers are drained.
    debug_assert!(fab.router(i).power.is_powered());
    va_stage(fab, mech, node);
    sa_stage(fab, node);
}

/// VC allocation (with route compute folded in): for each input VC whose
/// front is an unallocated head flit past its RC cycle, compute the route
/// (re-evaluated every cycle until granted, so decisions always use current
/// power states), walk the FLOV chain, and try to claim a downstream VC.
fn va_stage<F: Fabric>(fab: &mut F, mech: &dyn PowerMechanism, node: NodeId) {
    let now = fab.now();
    let n = node as usize;
    let total_vcs = fab.cfg().total_vcs();
    for (port, mut cand) in fab.router(n).va_scan(now) {
        while cand != 0 {
            let s = port * total_vcs + cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let (dst, vnet, mut escape, head_since);
            {
                let r = fab.router(n);
                debug_assert!(
                    r.front(s).is_some_and(|f| f.kind.is_head()),
                    "non-head flit at front without an allocation"
                );
                let invc = &r.inputs[s];
                head_since = invc.head_since;
                if now < head_since + 1 {
                    continue; // still in the RC stage
                }
                dst = invc.dst;
                vnet = invc.vnet as usize;
                escape = invc.escape;
            }
            let cfg = fab.cfg();
            let escape_vcs = cfg.escape_vcs;
            // Duato timeout recovery: divert long-blocked packets to the escape
            // sub-network.
            if !escape && escape_vcs > 0 && now - head_since > cfg.escape_timeout as u64 {
                escape = true;
                fab.escape_diversion();
                fab.router(n).divert_to_escape(s);
            }
            let in_port = Port::from_index(port);
            let ctx = build_route_ctx(fab, node, in_port, dst, escape);
            let mut routed = mech.route(fab.view(), &ctx);
            if routed.is_none() && !escape && escape_vcs > 0 {
                // The regular routing function has no viable output at all
                // (e.g. FLOV's U-turn trap with both turn candidates gated):
                // divert to the escape sub-network immediately — it guarantees
                // a path — instead of burning the whole deadlock timeout.
                escape = true;
                fab.escape_diversion();
                fab.router(n).divert_to_escape(s);
                routed = mech.route(fab.view(), &RouteCtx { escape: true, ..ctx });
            }
            let Some(out) = routed else { continue };
            debug_assert!(
                escape || out == Port::Local || out != in_port,
                "mechanism routed a non-escape U-turn at router {node}"
            );
            let cfg = fab.cfg();
            let (first, count) = if escape {
                let e = cfg.escape_vc().expect("escape flit but no escape VC configured");
                (e, 1)
            } else {
                (0, cfg.regular_vcs)
            };
            if out == Port::Local {
                debug_assert!(
                    dst == node || fab.has_ring(),
                    "local ejection routed for a non-local flit without a ring"
                );
                // Ejection may use any VC of the vnet (the NIC always drains).
                let all = cfg.vcs_per_vnet();
                try_grant(fab, node, s, Port::Local.index(), vnet, 0, all);
                continue;
            }
            let d = out.dir().unwrap();
            debug_assert!(
                fab.tables().neighbor(node, d).is_some(),
                "mechanism routed off the mesh at {node}"
            );
            let walk = chain::chain_walk(fab.tables(), fab.view(), node, d, dst);
            if let Some(sleeper) = walk.dst_on_chain {
                // Destination router is power-gated: hold the packet and ask the
                // mechanism to wake it.
                fab.wakeup(node, sleeper);
                continue;
            }
            if walk.blocked || walk.powered.is_none() {
                continue; // retry next cycle; handshakes resolve this
            }
            try_grant(fab, node, s, out.index(), vnet, first, count);
        }
    }
}

/// Claim a free downstream VC among `[first, first + count)` of `vnet` on
/// output `op` (see [`crate::router::Router::claim_vc`]).
fn try_grant<F: Fabric>(
    fab: &mut F,
    node: NodeId,
    s: usize,
    op: usize,
    vnet: usize,
    first: usize,
    count: usize,
) {
    let now = fab.now();
    if fab.router(node as usize).claim_vc(now, s, op, vnet, first, count) {
        fab.act().va_grants += 1;
    }
}

/// Switch allocation (see [`crate::router::Router::switch_allocate`]);
/// the winners traverse the switch in output-port order.
fn sa_stage<F: Fabric>(fab: &mut F, node: NodeId) {
    let now = fab.now();
    let winners = fab.router(node as usize).switch_allocate(now);
    for (op, w) in winners.into_iter().enumerate() {
        if let Some((p, s, ovc)) = w {
            st_traverse(fab, node, p, s, op, ovc);
        }
    }
}

/// Switch traversal for one SA winner: move the flit onto the output link,
/// consume the downstream credit, refund the upstream credit for the freed
/// input slot, and close the wormhole on tails. Every write lands on
/// `node`'s own router and link counters, or on the wheel as a send from
/// `node`.
fn st_traverse<F: Fabric>(fab: &mut F, node: NodeId, in_port: usize, s: usize, op: usize, ovc: u8) {
    let now = fab.now();
    let n = node as usize;
    let link_lat = fab.cfg().link_latency as u64;
    let mut f = fab.router(n).depart(in_port, s, op, ovc, now);
    if op != Port::Local.index() && fab.cfg().is_escape_vc(ovc as usize) {
        f.escape = true;
    }
    let act = fab.act();
    act.buffer_reads += 1;
    act.xbar_traversals += 1;
    act.sa_grants += 1;
    act.link_flits += 1;
    f.vc = ovc;
    f.hops_router += 1;
    f.hops_link += 1;
    let arrival = now + link_lat + 2; // ST next cycle, then the wire
    if op == Port::Local.index() {
        fab.send_eject(node, arrival, f);
    } else {
        let e = n * 4 + Port::from_index(op).dir().unwrap().index();
        *fab.link_util(e) += 1;
        fab.send_flit(e, arrival, f);
    }
    // Credit for the freed input slot flows back upstream (not for the
    // local port: the NIC observes buffer space directly).
    if in_port != Port::Local.index() {
        let d_up = Port::from_index(in_port).dir().unwrap();
        if fab.tables().neighbor(node, d_up).is_some() {
            let (vn, vc) = fab.cfg().vc_split(s % fab.cfg().total_vcs());
            let e = n * 4 + d_up.index();
            fab.send_credit(e, now + 3, CreditMsg { vnet: vn as u8, vc: vc as u8 });
            fab.act().credit_msgs += 1;
        }
    }
    fab.progress();
}
