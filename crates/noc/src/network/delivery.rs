//! The link-side phase bodies, each written once against [`Fabric`]: FLOV
//! latch forwarding (phase 2), and the delivery of one wheel slot — flits,
//! credits with the credit relay across sleeping routers, ejections with
//! NoRD ring ingress (phase 3). The reference scan and the active-set loop
//! run them through [`Seq`]; the parallel kernel runs the same
//! `latch_task` and `deliver_slot` on its tiles.

use super::{chain, Fabric, KernelMode, NetworkCore, NodeTables, Seq, SetId};
use crate::flit::Flit;
use crate::link::{CreditMsg, Slot};
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
        KernelMode::Parallel { tiles, grid } => {
            super::par::marked_phase(core, None, SetId::Latch, tiles, grid)
        }
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
        fab.send_flit(e, now + link_lat, f);
        fab.router(i).latches[d.index()] = None;
        fab.progress();
    }
}

/// Phase 3: deliver this cycle's slot of the wheel. Every kernel takes the
/// same slot; the parallel one splits its entries by receiving router.
pub(super) fn delivery_phase(core: &mut NetworkCore) {
    if let KernelMode::Parallel { tiles, grid } = core.kernel {
        return super::par::delivery_phase(core, tiles, grid);
    }
    let now = core.cycle;
    let slot = core.wheel.take(now);
    deliver_slot(&mut Seq(core), &slot, |_| true);
    core.wheel.retire(now, slot);
}

/// The router link `e` feeds and the direction its traffic travels.
#[inline]
fn receiver(t: &NodeTables, e: u32) -> (NodeId, Dir) {
    let d = Dir::from_index(e as usize % 4);
    // Links off the mesh edge are never sent on.
    (t.neighbor((e / 4) as NodeId, d).expect("traffic on a mesh-edge link"), d)
}

/// Deliver the entries of `slot` whose receiving router (or ejecting node)
/// passes `owned`: its flits, then its credits, then its ejections, each
/// in send order. Entries on different links commute (each link feeds one
/// input port, latch or credit counter), and the ejections of one slot
/// come from one pipeline phase, so they ascend by node.
pub(super) fn deliver_slot<F: Fabric>(fab: &mut F, slot: &Slot, owned: impl Fn(NodeId) -> bool) {
    for &(e, f) in &slot.flits {
        let (target, d) = receiver(fab.tables(), e);
        if owned(target) {
            deliver_flit(fab, target, d, f);
        }
    }
    // Credits travel in direction `d`; at a powered router they refund the
    // output facing back along `opposite(d)`.
    for &(e, c) in &slot.credits {
        let (target, d) = receiver(fab.tables(), e);
        if owned(target) {
            deliver_credit(fab, target, d, c);
        }
    }
    for &(n, f) in &slot.ejects {
        if owned(n) {
            deliver_eject(fab, n, f);
        }
    }
}

fn deliver_flit<F: Fabric>(fab: &mut F, target: NodeId, travel: Dir, flit: Flit) {
    let now = fab.now();
    let vc_flat = fab.cfg().vc_index(flit.vnet as usize, flit.vc as usize);
    let r = fab.router(target as usize);
    if r.power.is_flov() {
        // Fly over: into the output latch of the same travel direction.
        debug_assert!(
            {
                let (x, y) = fab.cfg().topology.flov_capability(fab.tables().coord(target));
                if travel.is_x() {
                    x
                } else {
                    y
                }
            },
            "flit flying over router {target} without FLOV capability in {travel:?}"
        );
        debug_assert!(flit.dst != target, "flit for a gated router reached its latch");
        let slot = &mut fab.router(target as usize).latches[travel.index()];
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
            fab.send_credit(e, now + 1, c);
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
        fab.router(target as usize).refund_credit(out_port.index(), vc_flat);
        // A refund can unblock SA at `target`. Defensive: the flit waiting
        // on this credit is buffered at `target`, so the router is already
        // in the work set — re-mark anyway per the marking invariant.
        fab.mark(SetId::Work, target as usize);
    }
}

/// Deliver one flit that reached the ejection port of node `n`.
fn deliver_eject<F: Fabric>(fab: &mut F, n: NodeId, flit: Flit) {
    if flit.dst != n {
        // Mesh-to-ring transfer at a proxy node: the routing function
        // ejected the flit here so it can ride the bypass ring the rest of
        // the way (NoRD only).
        assert!(
            fab.has_ring(),
            "flit misdelivered: dst {} ejected at {n} without a ring",
            flit.dst
        );
        ring_ingress(fab, n, flit, flit.dst);
        return;
    }
    eject_local(fab, n, flit);
}

/// Hand `flit` to the NIC of its destination `n` (from the ejection path or
/// the bypass ring), completing its packet on the tail.
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
/// path).
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
