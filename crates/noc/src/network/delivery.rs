//! The link-side phase bodies, each written once against [`Fabric`]: FLOV
//! latch forwarding (phase 2), flit and credit delivery with the credit
//! relay across sleeping routers, and ejection with NoRD ring ingress
//! (phase 3). The reference scan and the active-set loop run them through
//! [`Seq`]; the parallel kernel runs the same `*_task` functions on its
//! tiles.

use super::{chain, Fabric, KernelMode, NetworkCore, Seq, SetId};
use crate::flit::Flit;
use crate::link::CreditMsg;
use crate::traits::PowerView;
use crate::types::{Dir, NodeId, Port};

/// Phase 2: power-gated routers move latched flits onward.
pub(super) fn latch_phase(core: &mut NetworkCore) {
    match core.kernel {
        KernelMode::Reference => {
            for i in 0..core.routers.len() {
                if !core.routers[i].power.is_flov() {
                    debug_assert!(core.routers[i].latches_empty());
                    continue;
                }
                latch_router(&mut Seq(core), i);
            }
        }
        KernelMode::ActiveSet => {
            core.for_each_marked(SetId::Latch, |fab, i| latch_task(fab, i as usize))
        }
        KernelMode::Parallel { tiles, grid } => super::par::latch_phase(core, tiles, grid),
    }
}

/// Active-set latch task for router `i`, including the lazy removal.
pub(super) fn latch_task<F: Fabric>(fab: &mut F, i: usize) {
    // A marked router may have woken since (wakeup requires empty
    // latches) — then this is just the lazy removal.
    if fab.router(i).latches_empty() {
        fab.unmark(SetId::Latch, i);
        return;
    }
    latch_router(fab, i);
    if fab.router(i).latches_empty() {
        fab.unmark(SetId::Latch, i);
    }
}

/// Forward every forwardable latched flit of router `i`.
fn latch_router<F: Fabric>(fab: &mut F, i: usize) {
    let now = fab.now();
    let link_lat = fab.cfg().link_latency as u64;
    for d in Dir::ALL {
        let Some((t0, flit)) = fab.router(i).latches[d.index()] else { continue };
        if t0 >= now {
            continue; // latched this cycle; hold for one cycle
        }
        assert!(
            fab.tables().neighbor(i as NodeId, d).is_some(),
            "FLOV latch forwarding would leave the mesh"
        );
        let mut f = flit;
        f.hops_link += 1;
        fab.act().link_flits += 1;
        let e = i * 4 + d.index();
        *fab.link_util(e) += 1;
        fab.chan(e).send_flit(now + link_lat, f);
        fab.mark(SetId::Chan, e);
        fab.router(i).latches[d.index()] = None;
        fab.progress();
    }
}

/// Phase 3: deliver arrived flits and credits.
pub(super) fn delivery_phase(core: &mut NetworkCore) {
    match core.kernel {
        KernelMode::Reference => {
            for e in 0..core.channels.len() {
                let node = (e / 4) as NodeId;
                let d = Dir::from_index(e % 4);
                let Some(target) = core.neighbor(node, d) else {
                    debug_assert!(core.channels[e].is_idle(), "traffic on an edge channel");
                    continue;
                };
                deliver_channel(&mut Seq(core), e, d, target);
            }
            for n in 0..core.eject.len() {
                deliver_eject(&mut Seq(core), n);
            }
        }
        KernelMode::ActiveSet => {
            core.for_each_marked(SetId::Chan, |fab, e| chan_task(fab, e as usize));
            core.for_each_marked(SetId::Eject, |fab, n| eject_task(fab, n as usize));
        }
        KernelMode::Parallel { tiles, grid } => super::par::delivery_phase(core, tiles, grid),
    }
}

/// Active-set delivery task for inter-router channel `e`, including the
/// lazy removal.
pub(super) fn chan_task<F: Fabric>(fab: &mut F, e: usize) {
    match fab.chan(e).earliest_arrival() {
        None => {
            fab.unmark(SetId::Chan, e);
            return;
        }
        // Everything in flight is still on the wire.
        Some(a) if a > fab.now() => return,
        Some(_) => {}
    }
    let node = (e / 4) as NodeId;
    let d = Dir::from_index(e % 4);
    // Edge channels are never sent on, hence never marked.
    let target = fab.tables().neighbor(node, d).expect("active channel on a mesh edge");
    deliver_channel(fab, e, d, target);
    if fab.chan(e).is_idle() {
        fab.unmark(SetId::Chan, e);
    }
}

/// Deliver everything that has arrived on inter-router channel `e`.
fn deliver_channel<F: Fabric>(fab: &mut F, e: usize, d: Dir, target: NodeId) {
    let now = fab.now();
    while let Some(flit) = fab.chan(e).recv_flit(now) {
        deliver_flit(fab, target, d, flit);
    }
    // Credits: travel in direction `d`; at a powered router they refund the
    // output facing back along `opposite(d)`.
    while let Some(c) = fab.chan(e).recv_credit(now) {
        deliver_credit(fab, target, d, c);
    }
}

fn deliver_flit<F: Fabric>(fab: &mut F, target: NodeId, travel: Dir, flit: Flit) {
    let now = fab.now();
    let vc_flat = fab.cfg().vc_index(flit.vnet as usize, flit.vc as usize);
    let r = fab.router(target as usize);
    if r.power.is_flov() {
        // Fly over: into the output latch of the same travel direction.
        debug_assert!(
            r.has_flov(travel),
            "flit flying over router {target} without FLOV capability in {travel:?}"
        );
        debug_assert!(flit.dst != target, "flit for a gated router reached its latch");
        let slot = &mut r.latches[travel.index()];
        assert!(slot.is_none(), "FLOV latch conflict at router {target}");
        let mut f = flit;
        f.hops_flov += 1;
        *slot = Some((now, f));
        fab.act().flov_latch_flits += 1;
        fab.mark(SetId::Latch, target as usize);
    } else {
        let in_port = Port::from_dir(travel.opposite());
        let slot = r.slot(in_port.index(), vc_flat);
        r.push_flit(in_port.index(), slot, flit, now);
        fab.act().buffer_writes += 1;
        fab.mark(SetId::Work, target as usize);
    }
    fab.progress();
}

/// True if a credit relayed onward from `from` in `travel` can ever reach a
/// powered consumer. Trivially true on a mesh (the relay path either hits a
/// powered router or falls off the edge and is dropped); on a torus a
/// fully-gated wrap cycle would relay the credit forever, so the (rare,
/// sleeping-router-only) relay path checks ahead.
fn relay_has_consumer<F: Fabric>(fab: &F, from: NodeId, travel: Dir) -> bool {
    if !fab.topo().wraps() {
        return true;
    }
    let mut cur = from;
    loop {
        let Some(next) = fab.tables().neighbor(cur, travel) else { return false };
        if next == from {
            return false; // full wrap: nothing powered on the cycle
        }
        if fab.view().power(next).is_powered() {
            return true;
        }
        cur = next;
    }
}

fn deliver_credit<F: Fabric>(fab: &mut F, target: NodeId, travel: Dir, c: CreditMsg) {
    let now = fab.now();
    if fab.router(target as usize).power.is_flov() {
        // Relay upstream: one extra cycle per sleeping hop.
        if fab.tables().neighbor(target, travel).is_some()
            && relay_has_consumer(fab, target, travel)
        {
            fab.act().credit_msgs += 1;
            fab.act().credit_relays += 1;
            let e = target as usize * 4 + travel.index();
            fab.relay_credit(e, now + 1, c);
            fab.mark(SetId::Chan, e);
        }
        // At a mesh edge (or on a fully-gated torus wrap cycle) the credit
        // has no consumer left; drop it.
    } else {
        let out_port = Port::from_dir(travel.opposite());
        let vc_flat = fab.cfg().vc_index(c.vnet as usize, c.vc as usize);
        let buf_depth = fab.cfg().buf_depth;
        let r = fab.router(target as usize);
        let slot = r.slot(out_port.index(), vc_flat);
        let (available, power) = (r.out_credits[slot].available(), r.power);
        // The assert's message arguments (the chain walk included) are
        // evaluated only when it fires.
        assert!(
            available < buf_depth,
            "credit overflow at router {target} port {out_port:?} vnet {} vc {} \
             (cycle {now}, router state {power:?}, logical downstream {:?})",
            c.vnet,
            c.vc,
            chain::logical_neighbor(fab.tables(), fab.view(), target, travel.opposite()),
        );
        fab.router(target as usize).refund_credit(slot);
        // A refund can unblock SA at `target`. Defensive: the flit waiting
        // on this credit is buffered at `target`, so the router is already
        // in the work set — re-mark anyway per the marking invariant.
        fab.mark(SetId::Work, target as usize);
    }
}

/// Active-set ejection task for node `n`, including the lazy removal.
pub(super) fn eject_task<F: Fabric>(fab: &mut F, n: usize) {
    if fab.eject(n).is_idle() {
        fab.unmark(SetId::Eject, n);
        return;
    }
    deliver_eject(fab, n);
    if fab.eject(n).is_idle() {
        fab.unmark(SetId::Eject, n);
    }
}

/// Deliver everything that has arrived on ejection channel `n`.
fn deliver_eject<F: Fabric>(fab: &mut F, n: usize) {
    let now = fab.now();
    while let Some(flit) = fab.eject(n).recv_flit(now) {
        if flit.dst != n as NodeId {
            // Mesh-to-ring transfer at a proxy node: the routing function
            // ejected the flit here so it can ride the bypass ring the rest
            // of the way (NoRD only).
            assert!(
                fab.has_ring(),
                "flit misdelivered: dst {} ejected at {n} without a ring",
                flit.dst
            );
            ring_ingress(fab, n as NodeId, flit, flit.dst);
            continue;
        }
        eject_local(fab, n as NodeId, flit);
    }
}

/// Hand `flit` to the NIC of its destination `n` (from the ejection channel
/// or the bypass ring), completing its packet on the tail.
pub(super) fn eject_local<F: Fabric>(fab: &mut F, n: NodeId, flit: Flit) {
    let now = fab.now();
    fab.act().flits_delivered += 1;
    fab.router(n as usize).touch_local(now);
    if let Some(done) = fab.nic(n as usize).receive(flit, now, n) {
        fab.act().packets_delivered += 1;
        fab.delivered(done);
    }
    fab.progress();
}

/// Queue a flit onto the bypass ring at `node`, stamping its exit node into
/// the (ring-unused) `vc` field. Flits are staged per packet and released
/// to the ring station only once the tail arrives, so packets stay
/// contiguous (flits of different packets interleave on the ejection
/// channel).
pub(super) fn ring_ingress<F: Fabric>(fab: &mut F, node: NodeId, mut flit: Flit, exit: NodeId) {
    debug_assert!(exit != node);
    flit.vc = exit as u8;
    let stage = fab.ring_stage(node as usize);
    match stage.iter_mut().find(|(p, _)| *p == flit.packet) {
        Some((_, fs)) => fs.push(flit),
        None => stage.push((flit.packet, vec![flit])),
    }
    if flit.kind.is_tail() {
        let pos = stage.iter().position(|(p, _)| *p == flit.packet).unwrap();
        let (_, fs) = stage.swap_remove(pos);
        for f in fs {
            fab.ring_enqueue(node, f);
        }
    }
    fab.progress();
}
