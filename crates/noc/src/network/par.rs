//! The sharded in-run parallel kernel: tile-partitioned execution of the
//! four hot per-cycle phases (FLOV latches, link delivery, NIC injection,
//! router pipelines) with a deterministic boundary exchange, bit-identical
//! to the sequential [`KernelMode::ActiveSet`] kernel.
//!
//! # Partitioning
//!
//! The router grid is cut into a 2-D grid of tiles ([`TilePlan`]): the
//! `ky` rows into `R` contiguous row bands and the `kx` columns into `C`
//! contiguous column bands, tile `(i, j)` owning row band `i` × column
//! band `j`. The planner picks `R×C` by seam-minimizing factorization of
//! the requested tile count (`--threads 8` on a square mesh → a 4×2
//! plan); an explicit geometry (`--tiles RxC`, `FLOV_TILES=RxC`)
//! overrides it. Tile 0 runs on the driving thread and each further tile
//! on a persistent pooled worker ([`Pool`]). Every phase is a fork-join:
//! the driver collects the phase's global active set (ascending, exactly
//! the order the sequential kernel iterates) and every tile walks that
//! snapshot, running the tasks it owns ([`TilePlan::tile_of`]) in the
//! same ascending order. Ownership per phase is single-writer per
//! element, independent of tile geometry:
//!
//! * latch / injection / pipeline phases partition by the *owning* router
//!   — a body touches only its router, its NIC, its outgoing channels and
//!   its ejection channel;
//! * the delivery phase partitions channels by the *receiving* router (a
//!   directed channel has exactly one receiver), so all four inbound
//!   channels of a router are drained by the same tile, in the same
//!   relative (ascending-index) order as the sequential scan.
//!
//! # Boundary exchange
//!
//! Everything a tile would write outside its own elements is buffered in a
//! per-tile [`Delta`] and applied by the driver *after* the join. With 2-D
//! tiles, tile order no longer equals ascending node order, so replay
//! distinguishes two classes. The order-sensitive streams — wakeup
//! requests and NoRD ring enqueues, both tagged with their originating
//! node — are k-way merged across tiles back into ascending origin order,
//! which is exactly the sequential order: per-tile lists are already
//! ascending by origin (tiles walk the snapshot in ascending order) and
//! origins are disjoint across tiles. Everything else — global counters
//! and statistics, delivered-packet records, cross-tile credit relays,
//! and every scheduling-set mark — commutes across tiles or is
//! single-writer (a relayed credit's channel is fed by exactly the tile
//! that owns its sender). Set marks apply all removals before all inserts — an insert from
//! one tile must survive a concurrent lazy removal by the channel's
//! consumer tile, exactly as the sequential kernel's in-order interleaving
//! guarantees (a relayed credit arrives at `now + 1`, so the sequential
//! consumer never removes the mark either). Buffered credit relays are
//! equally invisible intra-phase: nothing with arrival `now + 1` can be
//! received at `now`.
//!
//! # Power snapshot
//!
//! Power states change only in phase 4 (the mechanism step) and are *read*
//! across tile boundaries by routing (`psr`, FLOV chain walks, credit
//! relay checks). Each parallel phase therefore snapshots the power vector
//! up front and evaluates all cross-tile power reads — including the
//! mechanism's [`PowerMechanism::route`] / `injection_allowed` hooks, via
//! [`SnapView`] — against the immutable snapshot, while a tile reads its
//! *own* routers' states directly (identical by construction).
//!
//! # Sharded mechanism control (phase 4)
//!
//! Mechanisms that opt in ([`PowerMechanism::sharded_control`]) split
//! their per-cycle control step into a serial prologue, a per-node FSM
//! body (`control_node`, the exact sequential body), and a serial
//! epilogue. The driver runs the prologue, then a parallel *read-only*
//! verdict pass (`control_quiet`) that flags every node whose body could
//! do anything at all, then replays `control_node` serially over the
//! flagged nodes in ascending node order. Verdicts are computed against
//! pre-phase state and are conservative: the first body that mutates the
//! core (a power transition) invalidates later verdicts, so the driver
//! escalates and runs the body on *every* remaining node — from that
//! point the scan is literally the sequential loop, and id-order
//! arbitration (lower id transitions first, higher id sees `Draining`
//! and backs off) is preserved bit-for-bit. Self-only control-state
//! ticks return `false` and don't escalate: no other node's body or
//! verdict reads them.
//!
//! # Determinism argument (summary; see DESIGN.md §7)
//!
//! Within a phase, bodies of different tiles touch disjoint mutable state,
//! and every shared effect is buffered and replayed in the sequential
//! order. Arbitration (VA/SA round-robins, rotating VC scans) is per
//! router and stays inside a tile. The time-skip horizon reduction runs on
//! the driver over the *global* quiescence predicate and the same
//! mechanism/workload horizons as the sequential kernel, so jumps happen
//! at exactly the same cycles. Hence every cycle's end state — and every
//! `RunResult` — is bit-for-bit identical to the sequential kernel, which
//! is why `KernelMode` stays out of result cache keys.

use super::{NetworkCore, NodeTables};
use crate::activity::ActivityCounters;
use crate::config::NocConfig;
use crate::flit::Flit;
use crate::link::{Channel, CreditMsg};
use crate::nic::{InjectState, Nic};
use crate::packet::DeliveredPacket;
use crate::router::Router;
use crate::routing::RouteCtx;
use crate::topology::{AnyTopology, Topology};
use crate::traits::{PowerMechanism, PowerView};
use crate::types::{Cycle, Dir, NodeId, PacketId, Port, PowerState};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// --- Tile plan --------------------------------------------------------------

/// 2-D tile grid over the router grid: the `ky` rows are cut into `R`
/// contiguous row bands (`row_starts`, `R + 1` fenceposts) and the `kx`
/// columns into `C` column bands (`col_starts`); tile `(i, j)` owns row
/// band `i` × column band `j` and has index `i * C + j`. `row_of` /
/// `col_of` are per-row / per-column lookup tables so [`TilePlan::tile_of`]
/// is two loads and a multiply on the hot path.
#[derive(Debug)]
struct TilePlan {
    kx: u16,
    row_starts: Vec<u16>,
    col_starts: Vec<u16>,
    row_of: Vec<u16>,
    col_of: Vec<u16>,
}

/// Seam-minimizing factorization: among all `r × c` grids with `r <= ky`,
/// `c <= kx` and `r * c <= tiles`, maximize the tile count, then minimize
/// the total seam length `(c - 1) * ky + (r - 1) * kx`, then prefer more
/// rows (row seams cut fewer unit-stride node runs). A square mesh at 8
/// tiles plans 4×2; at 2 it stays a row-stripe pair.
fn plan_grid(kx: u16, ky: u16, tiles: usize) -> (u16, u16) {
    let t = tiles.max(1);
    let mut best = (1u16, 1u16);
    let mut best_area = 0usize;
    let mut best_cost = u64::MAX;
    for r in 1..=(ky as usize).min(t) {
        let c = (t / r).min(kx as usize);
        let area = r * c;
        let cost = (c as u64 - 1) * ky as u64 + (r as u64 - 1) * kx as u64;
        let better = area > best_area
            || (area == best_area && cost < best_cost)
            || (area == best_area && cost == best_cost && r as u16 > best.0);
        if better {
            best = (r as u16, c as u16);
            best_area = area;
            best_cost = cost;
        }
    }
    best
}

/// The geometry a `Parallel { tiles, grid }` request actually runs with on
/// a `kx × ky` grid: explicit grids clamp to the grid dimensions, planned
/// grids come from the seam-minimizing factorization.
pub(super) fn planned_geometry(
    kx: u16,
    ky: u16,
    tiles: usize,
    grid: Option<(u16, u16)>,
) -> (u16, u16) {
    match grid {
        Some((r, c)) => (r.clamp(1, ky), c.clamp(1, kx)),
        None => plan_grid(kx, ky, tiles),
    }
}

impl TilePlan {
    fn new(kx: u16, ky: u16, tiles: usize, grid: Option<(u16, u16)>) -> TilePlan {
        let (r, c) = planned_geometry(kx, ky, tiles, grid);
        let (r, c) = (r as usize, c as usize);
        let row_starts: Vec<u16> = (0..=r).map(|i| (i * ky as usize / r) as u16).collect();
        let col_starts: Vec<u16> = (0..=c).map(|j| (j * kx as usize / c) as u16).collect();
        let mut row_of = vec![0u16; ky as usize];
        for (i, w) in row_starts.windows(2).enumerate() {
            for y in w[0]..w[1] {
                row_of[y as usize] = i as u16;
            }
        }
        let mut col_of = vec![0u16; kx as usize];
        for (j, w) in col_starts.windows(2).enumerate() {
            for x in w[0]..w[1] {
                col_of[x as usize] = j as u16;
            }
        }
        TilePlan { kx, row_starts, col_starts, row_of, col_of }
    }

    fn rows(&self) -> usize {
        self.row_starts.len() - 1
    }

    fn cols(&self) -> usize {
        self.col_starts.len() - 1
    }

    fn tiles(&self) -> usize {
        self.rows() * self.cols()
    }

    #[inline]
    fn tile_of(&self, node: u32) -> usize {
        let y = node as usize / self.kx as usize;
        let x = node as usize % self.kx as usize;
        self.row_of[y] as usize * (self.col_starts.len() - 1) + self.col_of[x] as usize
    }

    /// Ordered pairs of tile indices that share a seam, each adjacency in
    /// both directions. Test-only: the proptest checks this against a
    /// brute-force node-adjacency scan.
    #[cfg(test)]
    fn seams(&self) -> Vec<(usize, usize)> {
        let (r, c) = (self.rows(), self.cols());
        let mut out = Vec::new();
        for i in 0..r {
            for j in 0..c {
                let a = i * c + j;
                if j + 1 < c {
                    out.push((a, a + 1));
                    out.push((a + 1, a));
                }
                if i + 1 < r {
                    out.push((a, a + c));
                    out.push((a + c, a));
                }
            }
        }
        out
    }
}

// --- Per-tile delta ---------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetId {
    Latch,
    Work,
    Inject,
    Chan,
    Eject,
}

/// Everything a tile body would write outside its own elements, buffered
/// for in-order replay by the driver after the phase join.
#[derive(Default)]
struct Delta {
    act: ActivityCounters,
    delivered: Vec<DeliveredPacket>,
    in_flight_dec: u64,
    stalled: u64,
    escape_diversions: u64,
    progressed: bool,
    /// Wakeup requests as `(origin, sleeper)`; origins ascend within a
    /// tile and are merged across tiles at replay.
    wakes: Vec<(NodeId, NodeId)>,
    /// Ring enqueues as `(origin, flit)`; merged like `wakes`.
    ring_enq: Vec<(NodeId, Flit)>,
    /// Cross-tile credit relays: `(channel, arrival, credit)`.
    credit_sends: Vec<(usize, Cycle, CreditMsg)>,
    removes: Vec<(SetId, u32)>,
    inserts: Vec<(SetId, u32)>,
}

impl Delta {
    /// A delta sized for a tile owning at most `owned` nodes. Deltas are
    /// drained after every phase, so the needed capacity is one phase's
    /// worst burst, which is bandwidth-bounded (per owned node and cycle:
    /// ~1 ejected packet, 4 outgoing channels' worth of flits/credits, a
    /// handful of set transitions) — not resident-state-bounded. Reserving
    /// past any realistic single-cycle burst keeps the steady-state loop
    /// allocation-free (enforced by the `alloc_regression` test); an
    /// extreme burst beyond the reserve still works, it just grows the
    /// arena once and keeps the new high-water mark.
    fn for_tile(owned: usize) -> Delta {
        let mut d = Delta::default();
        d.delivered.reserve(owned * 4);
        d.wakes.reserve(owned * 4);
        d.ring_enq.reserve(owned * 2);
        d.credit_sends.reserve(owned * 4);
        d.removes.reserve(owned * 10);
        d.inserts.reserve(owned * 10);
        d
    }
}

fn add_activity(into: &mut ActivityCounters, d: &ActivityCounters) {
    into.buffer_writes += d.buffer_writes;
    into.buffer_reads += d.buffer_reads;
    into.xbar_traversals += d.xbar_traversals;
    into.sa_grants += d.sa_grants;
    into.va_grants += d.va_grants;
    into.link_flits += d.link_flits;
    into.flov_latch_flits += d.flov_latch_flits;
    into.ring_flits += d.ring_flits;
    into.credit_msgs += d.credit_msgs;
    into.credit_relays += d.credit_relays;
    into.handshake_signals += d.handshake_signals;
    into.gating_events += d.gating_events;
    into.packets_injected += d.packets_injected;
    into.flits_injected += d.flits_injected;
    into.packets_delivered += d.packets_delivered;
    into.flits_delivered += d.flits_delivered;
}

fn sched_set(core: &mut NetworkCore, id: SetId) -> &mut crate::active::ActiveSet {
    match id {
        SetId::Latch => &mut core.sched.latch,
        SetId::Work => &mut core.sched.work,
        SetId::Inject => &mut core.sched.inject,
        SetId::Chan => &mut core.sched.chan,
        SetId::Eject => &mut core.sched.eject,
    }
}

/// K-way merge one per-tile, ascending-by-origin effect stream back into
/// global ascending-origin order. Origins are disjoint across tiles (a
/// node is owned by exactly one tile) and ascend within a tile, so the
/// merge reproduces exactly the sequential kernel's emission order —
/// including the relative order of same-origin entries, which stay in
/// their single tile's list order. `cursors` is persistent scratch.
fn merge_ordered<T: Copy>(
    deltas: &mut [Delta],
    cursors: &mut Vec<usize>,
    stream: impl Fn(&mut Delta) -> &mut Vec<(NodeId, T)>,
    mut apply: impl FnMut(NodeId, T),
) {
    cursors.clear();
    cursors.resize(deltas.len(), 0);
    loop {
        let mut best: Option<(NodeId, usize)> = None;
        for (t, d) in deltas.iter_mut().enumerate() {
            if let Some(&(origin, _)) = stream(d).get(cursors[t]) {
                if best.is_none_or(|(o, _)| origin < o) {
                    best = Some((origin, t));
                }
            }
        }
        let Some((_, t)) = best else { break };
        let (origin, payload) = stream(&mut deltas[t])[cursors[t]];
        cursors[t] += 1;
        apply(origin, payload);
    }
    for d in deltas.iter_mut() {
        stream(d).clear();
    }
}

/// Replay the per-tile deltas into the core. Set removals apply before
/// set inserts (see module docs). Counters, statistics and delivered
/// records commute across tiles; credit sends are single-tile per
/// channel; the two order-sensitive streams — wakeup requests and ring
/// enqueues — are merged back into ascending origin order, which is the
/// sequential kernel's order.
fn apply_deltas(core: &mut NetworkCore, deltas: &mut [Delta], cursors: &mut Vec<usize>) {
    for t in deltas.iter() {
        for &(s, idx) in &t.removes {
            sched_set(core, s).remove(idx as usize);
        }
    }
    for t in deltas.iter() {
        for &(s, idx) in &t.inserts {
            sched_set(core, s).insert(idx as usize);
        }
    }
    for d in deltas.iter_mut() {
        d.removes.clear();
        d.inserts.clear();
        add_activity(&mut core.activity, &d.act);
        d.act = ActivityCounters::default();
        for done in d.delivered.drain(..) {
            core.stats.record(&done);
        }
        core.in_flight_packets -= d.in_flight_dec;
        d.in_flight_dec = 0;
        core.stalled_injection_node_cycles += d.stalled;
        d.stalled = 0;
        core.escape_diversions += d.escape_diversions;
        d.escape_diversions = 0;
        if d.progressed {
            core.last_progress = core.cycle;
            d.progressed = false;
        }
        for (e, t, c) in d.credit_sends.drain(..) {
            core.channels[e].send_credit(t, c);
        }
    }
    merge_ordered(
        deltas,
        cursors,
        |d| &mut d.wakes,
        |_origin, sleeper| {
            core.request_wakeup(sleeper);
        },
    );
    merge_ordered(
        deltas,
        cursors,
        |d| &mut d.ring_enq,
        |origin, flit| {
            core.ring.as_mut().expect("ring enqueue without a ring").enqueue(origin, flit);
        },
    );
}

// --- Shared phase context ---------------------------------------------------

/// Power view over the start-of-phase snapshot.
struct SnapView<'a> {
    powers: &'a [PowerState],
}

impl PowerView for SnapView<'_> {
    #[inline]
    fn nodes(&self) -> usize {
        self.powers.len()
    }

    #[inline]
    fn power(&self, n: NodeId) -> PowerState {
        self.powers[n as usize]
    }
}

/// Raw shard access to the core's element arrays, shared by all tiles of
/// one phase. Soundness: per phase, every element is written by at most
/// one tile (see module docs), and the driver joins all tiles before
/// touching the core again.
struct Shared<'a> {
    now: Cycle,
    cfg: &'a NocConfig,
    topo: &'a AnyTopology,
    tables: &'a NodeTables,
    powers: &'a [PowerState],
    /// The mechanism, for the injection-gate and routing hooks; `None` in
    /// the latch/delivery phases, which never consult it.
    mech: Option<&'a dyn PowerMechanism>,
    has_ring: bool,
    nodes: usize,
    routers: *mut Router,
    channels: *mut Channel,
    eject: *mut Channel,
    nics: *mut Nic,
    link_util: *mut u64,
    ring_stage: *mut Vec<(PacketId, Vec<Flit>)>,
}

unsafe impl Send for Shared<'_> {}
unsafe impl Sync for Shared<'_> {}

/// One tile's execution context for one phase: shard access plus the
/// tile-private delta and scratch.
struct Lane<'a> {
    sh: &'a Shared<'a>,
    d: &'a mut Delta,
    va_order: &'a mut Vec<u16>,
}

#[allow(clippy::mut_from_ref)] // per-phase single-writer discipline; see Shared
impl Lane<'_> {
    #[inline]
    unsafe fn router(&self, i: usize) -> &mut Router {
        debug_assert!(i < self.sh.nodes);
        &mut *self.sh.routers.add(i)
    }

    #[inline]
    unsafe fn chan(&self, e: usize) -> &mut Channel {
        debug_assert!(e < self.sh.nodes * 4);
        &mut *self.sh.channels.add(e)
    }

    #[inline]
    unsafe fn eject_chan(&self, n: usize) -> &mut Channel {
        debug_assert!(n < self.sh.nodes);
        &mut *self.sh.eject.add(n)
    }

    #[inline]
    unsafe fn nic(&self, n: usize) -> &mut Nic {
        debug_assert!(n < self.sh.nodes);
        &mut *self.sh.nics.add(n)
    }

    #[inline]
    fn neighbor(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        self.sh.tables.neighbor(node, d)
    }

    #[inline]
    fn snap_power(&self, n: NodeId) -> PowerState {
        self.sh.powers[n as usize]
    }

    /// PSR register contents from the snapshot (mirrors `NetworkCore::psr`).
    fn psr(&self, node: NodeId) -> [Option<PowerState>; 4] {
        let mut out = [None; 4];
        for d in Dir::ALL {
            out[d.index()] = self.sh.tables.grid_neighbor(node, d).map(|m| self.snap_power(m));
        }
        out
    }

    /// Snapshot twin of `NetworkCore::chain_walk`.
    fn chain_walk(&self, from: NodeId, d: Dir, dst: NodeId) -> super::ChainTarget {
        use super::ChainTarget;
        let mut cur = from;
        let mut sleepers = 0;
        loop {
            let Some(next) = self.neighbor(cur, d) else {
                return ChainTarget { powered: None, blocked: false, dst_on_chain: None, sleepers };
            };
            if next == from {
                return ChainTarget { powered: None, blocked: true, dst_on_chain: None, sleepers };
            }
            match self.snap_power(next) {
                PowerState::Active => {
                    return ChainTarget {
                        powered: Some(next),
                        blocked: false,
                        dst_on_chain: None,
                        sleepers,
                    }
                }
                PowerState::Draining => {
                    return ChainTarget {
                        powered: Some(next),
                        blocked: true,
                        dst_on_chain: None,
                        sleepers,
                    }
                }
                PowerState::Wakeup => {
                    return ChainTarget {
                        powered: None,
                        blocked: true,
                        dst_on_chain: None,
                        sleepers,
                    };
                }
                PowerState::Sleep => {
                    if next == dst {
                        return ChainTarget {
                            powered: None,
                            blocked: true,
                            dst_on_chain: Some(next),
                            sleepers,
                        };
                    }
                    if self.neighbor(next, d).is_none() {
                        return ChainTarget {
                            powered: None,
                            blocked: false,
                            dst_on_chain: None,
                            sleepers,
                        };
                    }
                    sleepers += 1;
                    cur = next;
                }
            }
        }
    }

    /// Snapshot twin of `NetworkCore::logical_neighbor` (assert diagnostics
    /// in the credit path).
    fn logical_neighbor(&self, node: NodeId, d: Dir) -> Option<(NodeId, u32)> {
        let mut cur = node;
        let mut hops = 0;
        loop {
            let next = self.neighbor(cur, d)?;
            if next == node {
                return None;
            }
            if self.snap_power(next) != PowerState::Sleep {
                return Some((next, hops));
            }
            hops += 1;
            cur = next;
        }
    }

    /// Snapshot twin of `NetworkCore::relay_has_consumer`.
    fn relay_has_consumer(&self, from: NodeId, travel: Dir) -> bool {
        if !self.sh.topo.wraps() {
            return true;
        }
        let mut cur = from;
        loop {
            let Some(next) = self.neighbor(cur, travel) else { return false };
            if next == from {
                return false;
            }
            if self.snap_power(next).is_powered() {
                return true;
            }
            cur = next;
        }
    }

    // --- Phase 2: FLOV latches (partitioned by owner) -----------------------

    /// Active-set latch task for router `i`, including the lazy removal.
    fn latch_task(&mut self, i: usize) {
        unsafe {
            if self.router(i).latches_empty() {
                self.d.removes.push((SetId::Latch, i as u32));
                return;
            }
            self.latch_router(i);
            if self.router(i).latches_empty() {
                self.d.removes.push((SetId::Latch, i as u32));
            }
        }
    }

    /// Body twin of `NetworkCore::latch_router`.
    unsafe fn latch_router(&mut self, i: usize) {
        let now = self.sh.now;
        let link_lat = self.sh.cfg.link_latency as u64;
        for d in Dir::ALL {
            let Some((t0, flit)) = self.router(i).latches[d.index()] else { continue };
            if t0 >= now {
                continue; // latched this cycle; hold for one cycle
            }
            assert!(
                self.neighbor(i as NodeId, d).is_some(),
                "FLOV latch forwarding would leave the mesh"
            );
            let mut f = flit;
            f.hops_link += 1;
            self.d.act.link_flits += 1;
            let e = i * 4 + d.index();
            *self.sh.link_util.add(e) += 1;
            self.chan(e).send_flit(now + link_lat, f);
            self.d.inserts.push((SetId::Chan, e as u32));
            self.router(i).latches[d.index()] = None;
            self.d.progressed = true;
        }
    }

    // --- Phase 3: delivery (partitioned by receiver) ------------------------

    /// Active-set channel-delivery task for channel `e` (its receiver is in
    /// this tile), including the lazy removal.
    fn chan_task(&mut self, e: usize) {
        let now = self.sh.now;
        unsafe {
            match self.chan(e).earliest_arrival() {
                None => {
                    self.d.removes.push((SetId::Chan, e as u32));
                    return;
                }
                Some(a) if a > now => return,
                Some(_) => {}
            }
            let node = (e / 4) as NodeId;
            let d = Dir::from_index(e % 4);
            let target = self.neighbor(node, d).expect("active channel on a mesh edge");
            while let Some(flit) = self.chan(e).recv_flit(now) {
                self.deliver_flit(target, d, flit);
            }
            while let Some(c) = self.chan(e).recv_credit(now) {
                self.deliver_credit(target, d, c);
            }
            if self.chan(e).is_idle() {
                self.d.removes.push((SetId::Chan, e as u32));
            }
        }
    }

    /// Body twin of `NetworkCore::deliver_flit` (`target` is tile-owned).
    unsafe fn deliver_flit(&mut self, target: NodeId, travel: Dir, flit: Flit) {
        let now = self.sh.now;
        let r = self.router(target as usize);
        if r.power.is_flov() {
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
            self.d.act.flov_latch_flits += 1;
            self.d.inserts.push((SetId::Latch, target as u32));
        } else {
            let in_port = Port::from_dir(travel.opposite());
            let vc_flat = self.sh.cfg.vc_index(flit.vnet as usize, flit.vc as usize);
            let slot = r.slot(in_port.index(), vc_flat);
            r.push_flit(in_port.index(), slot, flit, now);
            self.d.act.buffer_writes += 1;
            self.d.inserts.push((SetId::Work, target as u32));
        }
        self.d.progressed = true;
    }

    /// Body twin of `NetworkCore::deliver_credit` (`target` is tile-owned;
    /// onward relays may target another tile's channel and are buffered).
    unsafe fn deliver_credit(&mut self, target: NodeId, travel: Dir, c: CreditMsg) {
        let now = self.sh.now;
        if self.router(target as usize).power.is_flov() {
            if self.neighbor(target, travel).is_some() && self.relay_has_consumer(target, travel) {
                self.d.act.credit_msgs += 1;
                self.d.act.credit_relays += 1;
                let e = target as usize * 4 + travel.index();
                self.d.credit_sends.push((e, now + 1, c));
                self.d.inserts.push((SetId::Chan, e as u32));
            }
        } else {
            let out_port = Port::from_dir(travel.opposite());
            let vc_flat = self.sh.cfg.vc_index(c.vnet as usize, c.vc as usize);
            let r = self.router(target as usize);
            let slot = r.slot(out_port.index(), vc_flat);
            assert!(
                r.out_credits[slot].available() < self.sh.cfg.buf_depth,
                "credit overflow at router {target} port {out_port:?} vnet {} vc {} \
                 (cycle {now}, router state {:?}, logical downstream {:?})",
                c.vnet,
                c.vc,
                r.power,
                self.logical_neighbor(target, travel.opposite()),
            );
            r.out_credits[slot].refund();
            self.d.inserts.push((SetId::Work, target as u32));
        }
    }

    /// Active-set ejection task for node `n`, including the lazy removal.
    fn eject_task(&mut self, n: usize) {
        let now = self.sh.now;
        unsafe {
            if self.eject_chan(n).is_idle() {
                self.d.removes.push((SetId::Eject, n as u32));
                return;
            }
            while let Some(flit) = self.eject_chan(n).recv_flit(now) {
                if flit.dst != n as NodeId {
                    assert!(
                        self.sh.has_ring,
                        "flit misdelivered: dst {} ejected at {n} without a ring",
                        flit.dst
                    );
                    let exit = flit.dst;
                    self.ring_ingress(n as NodeId, flit, exit);
                    continue;
                }
                self.d.act.flits_delivered += 1;
                self.router(n).touch_local(now);
                if let Some(done) = self.nic(n).receive(flit, now, n as NodeId) {
                    self.d.act.packets_delivered += 1;
                    self.d.in_flight_dec += 1;
                    self.d.delivered.push(done);
                }
                self.d.progressed = true;
            }
            if self.eject_chan(n).is_idle() {
                self.d.removes.push((SetId::Eject, n as u32));
            }
        }
    }

    /// Body twin of `NetworkCore::ring_ingress`: staging is tile-owned,
    /// released whole packets are buffered for the driver to enqueue.
    unsafe fn ring_ingress(&mut self, node: NodeId, mut flit: Flit, exit: NodeId) {
        debug_assert!(exit != node);
        flit.vc = exit as u8;
        let is_tail = flit.kind.is_tail();
        let stage = &mut *self.sh.ring_stage.add(node as usize);
        match stage.iter_mut().find(|(p, _)| *p == flit.packet) {
            Some((_, fs)) => fs.push(flit),
            None => stage.push((flit.packet, vec![flit])),
        }
        if is_tail {
            let pos = stage.iter().position(|(p, _)| *p == flit.packet).unwrap();
            let (_, fs) = stage.swap_remove(pos);
            for f in fs {
                self.d.ring_enq.push((node, f));
            }
        }
        self.d.progressed = true;
    }

    // --- Phase 5: NIC injection (partitioned by owner) ----------------------

    /// Active-set injection task for node `n`, including the lazy removal
    /// (gated nodes with backlog stay marked, exactly like the sequential
    /// kernel).
    fn inject_task(&mut self, node: NodeId) {
        let now = self.sh.now;
        let vnets = self.sh.cfg.vnets;
        unsafe {
            if !self.nic(node as usize).pending() {
                self.d.removes.push((SetId::Inject, node as u32));
                return;
            }
            if !self.router(node as usize).power.is_powered() {
                return; // router gated; the mechanism is responsible for waking it
            }
            let mech = self.sh.mech.expect("injection phase requires the mechanism");
            let gate_open = mech.injection_allowed(&SnapView { powers: self.sh.powers }, node);
            if !gate_open && self.nic(node as usize).in_progress.iter().all(|p| p.is_none()) {
                self.d.stalled += 1;
                return;
            }
            let rr0 = self.nic(node as usize).vnet_rr;
            for i in 0..vnets {
                let vn = (rr0 + i) % vnets;
                if self.nic(node as usize).in_progress[vn].is_none() {
                    if !gate_open || self.nic(node as usize).queues[vn].is_empty() {
                        continue;
                    }
                    let reg = self.sh.cfg.regular_vcs - usize::from(self.sh.has_ring);
                    let mut chosen = None;
                    for j in 0..reg {
                        let vc = (now as usize + j) % reg;
                        let flat = self.sh.cfg.vc_index(vn, vc);
                        let r = self.router(node as usize);
                        if r.inputs[r.slot(Port::Local.index(), flat)].buf.free() > 0 {
                            chosen = Some(vc);
                            break;
                        }
                    }
                    let Some(vc) = chosen else { continue };
                    let pkt = self.nic(node as usize).queues[vn].pop_front().unwrap();
                    self.nic(node as usize).in_progress[vn] =
                        Some(InjectState { pkt, next: 0, vc: vc as u8 });
                }
                let st = self.nic(node as usize).in_progress[vn].unwrap();
                let flat = self.sh.cfg.vc_index(vn, st.vc as usize);
                let slot = {
                    let r = self.router(node as usize);
                    r.slot(Port::Local.index(), flat)
                };
                if self.router(node as usize).inputs[slot].buf.free() == 0 {
                    continue;
                }
                let mut f = st.pkt.flit(st.next, now);
                f.vc = st.vc;
                let r = self.router(node as usize);
                r.push_flit(Port::Local.index(), slot, f, now);
                r.touch_local(now);
                self.d.act.buffer_writes += 1;
                self.d.act.flits_injected += 1;
                if st.next == 0 {
                    self.d.act.packets_injected += 1;
                }
                let nic = self.nic(node as usize);
                if st.next + 1 == st.pkt.len {
                    nic.in_progress[vn] = None;
                } else {
                    nic.in_progress[vn] = Some(InjectState { next: st.next + 1, ..st });
                }
                nic.vnet_rr = (vn + 1) % vnets;
                self.d.inserts.push((SetId::Work, node as u32));
                self.d.progressed = true;
                break; // one flit per node per cycle
            }
        }
    }

    // --- Phase 6: router pipelines (partitioned by owner) -------------------

    /// Active-set pipeline task for node `n`, including the lazy removal.
    fn pipeline_task(&mut self, node: NodeId) {
        unsafe {
            if self.router(node as usize).buffered_flits() == 0 {
                self.d.removes.push((SetId::Work, node as u32));
                return;
            }
            debug_assert!(self.router(node as usize).power.is_powered());
        }
        self.va_stage(node);
        self.sa_stage(node);
    }

    fn build_route_ctx(&self, at: NodeId, in_port: Port, dst: NodeId, escape: bool) -> RouteCtx {
        RouteCtx {
            kx: self.sh.topo.kx(),
            ky: self.sh.topo.ky(),
            torus: self.sh.topo.wraps(),
            at: self.sh.tables.coord(at),
            in_port,
            dst: self.sh.tables.coord(dst),
            escape,
            neighbors: self.psr(at),
        }
    }

    /// Body twin of `pipeline::va_stage`.
    fn va_stage(&mut self, node: NodeId) {
        let now = self.sh.now;
        let total_vcs = self.sh.cfg.total_vcs();
        let mut order = std::mem::take(self.va_order);
        // SAFETY: this tile owns `node` in the pipeline phase (see `Shared`).
        unsafe { self.router(node as usize).va_order(now, &mut order) };
        for &s in &order {
            let s = s as usize;
            let port = s / total_vcs;
            let (dst, vnet, mut escape, head_since);
            unsafe {
                let invc = &self.router(node as usize).inputs[s];
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
            if !escape
                && self.sh.cfg.escape_vcs > 0
                && now - head_since > self.sh.cfg.escape_timeout as u64
            {
                escape = true;
                self.d.escape_diversions += 1;
                unsafe {
                    self.router(node as usize).inputs[s].buf.front_mut().unwrap().escape = true;
                }
            }
            let in_port = Port::from_index(port);
            let ctx = self.build_route_ctx(node, in_port, dst, escape);
            let view = SnapView { powers: self.sh.powers };
            let mech = self.sh.mech.expect("pipeline phase requires the mechanism");
            let mut routed = mech.route(&view, &ctx);
            if routed.is_none() && !escape && self.sh.cfg.escape_vcs > 0 {
                escape = true;
                self.d.escape_diversions += 1;
                unsafe {
                    self.router(node as usize).inputs[s].buf.front_mut().unwrap().escape = true;
                }
                routed = mech.route(&view, &RouteCtx { escape: true, ..ctx });
            }
            let Some(out) = routed else { continue };
            debug_assert!(
                escape || out == Port::Local || out != in_port,
                "mechanism routed a non-escape U-turn at router {node}"
            );
            let (first, count) = if escape {
                let e = self.sh.cfg.escape_vc().expect("escape flit but no escape VC configured");
                (e, 1)
            } else {
                (0, self.sh.cfg.regular_vcs)
            };
            if out == Port::Local {
                debug_assert!(
                    dst == node || self.sh.has_ring,
                    "local ejection routed for a non-local flit without a ring"
                );
                self.try_grant(node, s, Port::Local.index(), vnet, 0, self.sh.cfg.vcs_per_vnet());
                continue;
            }
            let d = out.dir().unwrap();
            debug_assert!(
                self.neighbor(node, d).is_some(),
                "mechanism routed off the mesh at {node}"
            );
            let walk = self.chain_walk(node, d, dst);
            if let Some(sleeper) = walk.dst_on_chain {
                self.d.wakes.push((node, sleeper));
                continue;
            }
            if walk.blocked || walk.powered.is_none() {
                continue; // retry next cycle; handshakes resolve this
            }
            self.try_grant(node, s, out.index(), vnet, first, count);
        }
        *self.va_order = order;
    }

    /// Body twin of `pipeline::try_grant`.
    fn try_grant(
        &mut self,
        node: NodeId,
        s: usize,
        op: usize,
        vnet: usize,
        first: usize,
        count: usize,
    ) {
        let now = self.sh.now;
        // SAFETY: this tile owns `node` in the pipeline phase (see `Shared`).
        if unsafe { self.router(node as usize).claim_vc(now, s, op, vnet, first, count) } {
            self.d.act.va_grants += 1;
        }
    }

    /// Body twin of `pipeline::sa_stage`.
    fn sa_stage(&mut self, node: NodeId) {
        // SAFETY: this tile owns `node` in the pipeline phase (see `Shared`).
        let winners = unsafe { self.router(node as usize).switch_allocate(self.sh.now) };
        for (op, w) in winners.into_iter().enumerate() {
            if let Some((p, s, ovc)) = w {
                self.st_traverse(node, p, s, op, ovc);
            }
        }
    }

    /// Body twin of `pipeline::st_traverse` (all writes are tile-owned:
    /// the router, its outgoing channels, its ejection channel).
    fn st_traverse(&mut self, node: NodeId, in_port: usize, s: usize, op: usize, ovc: u8) {
        let now = self.sh.now;
        let link_lat = self.sh.cfg.link_latency as u64;
        unsafe {
            let mut f = self.router(node as usize).depart(in_port, s, op, ovc, now);
            self.d.act.buffer_reads += 1;
            self.d.act.xbar_traversals += 1;
            self.d.act.sa_grants += 1;
            f.vc = ovc;
            if op != Port::Local.index() && self.sh.cfg.is_escape_vc(ovc as usize) {
                f.escape = true;
            }
            f.hops_router += 1;
            f.hops_link += 1;
            self.d.act.link_flits += 1;
            let arrival = now + link_lat + 2; // ST next cycle, then the wire
            if op == Port::Local.index() {
                self.eject_chan(node as usize).send_flit(arrival, f);
                self.d.inserts.push((SetId::Eject, node as u32));
            } else {
                let d = Port::from_index(op).dir().unwrap();
                let e = node as usize * 4 + d.index();
                *self.sh.link_util.add(e) += 1;
                self.chan(e).send_flit(arrival, f);
                self.d.inserts.push((SetId::Chan, e as u32));
            }
            if in_port != Port::Local.index() {
                let d_up = Port::from_index(in_port).dir().unwrap();
                if self.neighbor(node, d_up).is_some() {
                    let (vn, vc) = self.sh.cfg.vc_split(s % self.sh.cfg.total_vcs());
                    let e = node as usize * 4 + d_up.index();
                    self.chan(e).send_credit(now + 3, CreditMsg { vnet: vn as u8, vc: vc as u8 });
                    self.d.inserts.push((SetId::Chan, e as u32));
                    self.d.act.credit_msgs += 1;
                }
            }
            self.d.progressed = true;
        }
    }
}

// --- Worker pool ------------------------------------------------------------

/// A phase job: type-erased pointer to a [`JobCtx`] on the driver's stack
/// plus the tile-runner entry point and the tile count. Valid only between
/// publication and the join. Executor `x` of `E` runs tiles `x, x + E,
/// x + 2E, ...` — each tile still writes only its own delta slot, so the
/// worker count never has to match the tile count (a single-core host runs
/// every tile inline on the driver).
#[derive(Clone, Copy)]
struct Job {
    ctx: *const (),
    run: unsafe fn(*const (), usize),
    tiles: usize,
}

/// Run this executor's strided share of the job's tiles.
unsafe fn run_stride(job: Job, executor: usize, executors: usize) {
    let mut tile = executor;
    while tile < job.tiles {
        (job.run)(job.ctx, tile);
        tile += executors;
    }
}

struct PoolShared {
    job: UnsafeCell<Option<Job>>,
    /// Bumped (release) to publish the job in `job`.
    epoch: AtomicU64,
    /// Workers that finished the current job (release on increment).
    done: AtomicU64,
    stop: AtomicBool,
    /// True if any worker tile panicked during the current job.
    panicked: AtomicBool,
    panic_msg: Mutex<Option<String>>,
    /// Park/wake for idle workers (pure spinning would steal cores from
    /// the across-run engine parallelism when this kernel is idle).
    lock: Mutex<()>,
    cv: Condvar,
}

// Raw job pointers are handed across threads; the epoch/done protocol is
// what synchronizes access (publish-before-bump, join-before-invalidate).
unsafe impl Send for PoolShared {}
unsafe impl Sync for PoolShared {}

struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn `workers` persistent tile threads (executor ids `1..=workers`;
    /// executor 0 is the driving thread). `workers` may be less than
    /// `tiles - 1` — tiles are strided over the executors — and zero runs
    /// everything inline on the driver.
    fn new(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            job: UnsafeCell::new(None),
            epoch: AtomicU64::new(0),
            done: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let executors = workers + 1;
        let handles = (1..=workers)
            .map(|executor| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flov-tile-{executor}"))
                    .spawn(move || worker_loop(&sh, executor, executors))
                    .expect("spawn tile worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Run `job` on all its tiles: workers take their strides, the caller
    /// runs executor 0's stride, then joins. Propagates any worker panic
    /// after the join (so shards are never left concurrently owned).
    fn run(&self, job: Job) {
        let n = self.handles.len() as u64;
        if n == 0 {
            for tile in 0..job.tiles {
                unsafe { (job.run)(job.ctx, tile) };
            }
            return;
        }
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared.epoch.fetch_add(1, Ordering::Release);
        {
            // Pair with the worker's check-then-wait under the same lock:
            // without this, a worker deciding to park right now would miss
            // the notification.
            let _g = self.shared.lock.lock().unwrap();
            self.shared.cv.notify_all();
        }
        // Executor 0's stride on the driving thread, shielded like the
        // workers so a panic still joins the fork before unwinding.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            run_stride(job, 0, self.handles.len() + 1)
        }));
        let mut spins = 0u32;
        while self.shared.done.load(Ordering::Acquire) < n {
            spins += 1;
            if spins < 10_000 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.shared.done.store(0, Ordering::Relaxed);
        if let Err(p) = r {
            std::panic::resume_unwind(p);
        }
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            let msg = self.shared.panic_msg.lock().unwrap().take();
            panic!(
                "parallel kernel tile worker panicked: {}",
                msg.unwrap_or_else(|| "<non-string panic payload>".to_string())
            );
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        {
            let _g = self.shared.lock.lock().unwrap();
            self.shared.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(sh: &PoolShared, executor: usize, executors: usize) {
    let mut seen = 0u64;
    loop {
        // Spin briefly (phases arrive every few microseconds mid-run),
        // then yield, then park until the next publication.
        let mut spins = 0u32;
        while sh.epoch.load(Ordering::Acquire) == seen {
            spins += 1;
            if spins < 10_000 {
                std::hint::spin_loop();
            } else if spins < 30_000 {
                std::thread::yield_now();
            } else {
                let mut g = sh.lock.lock().unwrap();
                while sh.epoch.load(Ordering::Acquire) == seen && !sh.stop.load(Ordering::Relaxed) {
                    g = sh.cv.wait(g).unwrap();
                }
                break;
            }
        }
        seen = sh.epoch.load(Ordering::Acquire);
        if sh.stop.load(Ordering::Relaxed) {
            return;
        }
        let Some(job) = (unsafe { *sh.job.get() }) else { continue };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            run_stride(job, executor, executors)
        }));
        if let Err(p) = r {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let mut slot = sh.panic_msg.lock().unwrap();
            if slot.is_none() {
                *slot = msg;
            }
            sh.panicked.store(true, Ordering::Relaxed);
        }
        sh.done.fetch_add(1, Ordering::Release);
    }
}

// --- Phase driver -----------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PhaseKind {
    Latch,
    Deliver,
    Inject,
    Pipeline,
}

/// The driver-side job context one phase hands to all tiles.
struct JobCtx<'a> {
    sh: Shared<'a>,
    kind: PhaseKind,
    plan: &'a TilePlan,
    /// Node-indexed tasks (ascending). Every tile walks the whole
    /// snapshot and runs the entries it owns, preserving ascending order
    /// per tile. For `Deliver` these are the ejection-channel tasks.
    tasks: &'a [u32],
    /// Channel tasks, ascending (`Deliver` only); owned by the tile of
    /// the *receiving* router.
    chan_tasks: &'a [u32],
    deltas: *mut Delta,
    va_orders: *mut Vec<u16>,
}

unsafe fn run_tile(ctx: *const (), tile: usize) {
    let j = &*(ctx as *const JobCtx);
    let d = &mut *j.deltas.add(tile);
    let va_order = &mut *j.va_orders.add(tile);
    let mut lane = Lane { sh: &j.sh, d, va_order };
    let plan = j.plan;
    match j.kind {
        PhaseKind::Latch => {
            for &i in j.tasks {
                if plan.tile_of(i) == tile {
                    lane.latch_task(i as usize);
                }
            }
        }
        PhaseKind::Deliver => {
            for &e in j.chan_tasks {
                let node = (e / 4) as NodeId;
                let dir = Dir::from_index(e as usize % 4);
                // Edge channels are never sent on, hence never marked.
                let target =
                    j.sh.tables.neighbor(node, dir).expect("active channel on a mesh edge");
                if plan.tile_of(target as u32) == tile {
                    lane.chan_task(e as usize);
                }
            }
            for &n in j.tasks {
                if plan.tile_of(n) == tile {
                    lane.eject_task(n as usize);
                }
            }
        }
        PhaseKind::Inject => {
            for &n in j.tasks {
                if plan.tile_of(n) == tile {
                    lane.inject_task(n as NodeId);
                }
            }
        }
        PhaseKind::Pipeline => {
            for &n in j.tasks {
                if plan.tile_of(n) == tile {
                    lane.pipeline_task(n as NodeId);
                }
            }
        }
    }
}

/// Per-core parallel-kernel state: the tile plan, the worker pool, and all
/// per-tile buffers, built lazily on the first parallel phase (and rebuilt
/// if the requested tile count changes).
pub(super) struct ParState {
    requested: (usize, Option<(u16, u16)>),
    plan: TilePlan,
    pool: Pool,
    deltas: Vec<Delta>,
    powers: Vec<PowerState>,
    tasks: Vec<u32>,
    chan_tasks: Vec<u32>,
    va_orders: Vec<Vec<u16>>,
    /// Per-node not-quiet flags for the sharded control step.
    ctl_flags: Vec<u8>,
    /// Persistent scratch for the ordered replay merges.
    cursors: Vec<usize>,
}

impl ParState {
    fn new(core: &NetworkCore, tiles: usize, grid: Option<(u16, u16)>) -> ParState {
        let plan = TilePlan::new(core.topo.kx(), core.topo.ky(), tiles, grid);
        let t = plan.tiles();
        // Never spawn more workers than the host has spare cores: the
        // partitioning (and hence the result) is fixed by the tile plan,
        // so surplus tiles stride over the executors instead of thrashing
        // an oversubscribed scheduler. On a single-core host every tile
        // runs inline on the driver.
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // Ragged plans leave some tiles larger than nodes/t; 4x covers the
        // worst imbalance a ceil-division grid can produce.
        let nodes = core.routers.len();
        let owned = (nodes.div_ceil(t) * 4).clamp(16, nodes.max(16));
        ParState {
            requested: (tiles, grid),
            pool: Pool::new((t - 1).min(avail.saturating_sub(1))),
            deltas: (0..t).map(|_| Delta::for_tile(owned)).collect(),
            powers: Vec::new(),
            tasks: Vec::new(),
            chan_tasks: Vec::new(),
            va_orders: (0..t).map(|_| Vec::new()).collect(),
            ctl_flags: Vec::new(),
            cursors: Vec::new(),
            plan,
        }
    }
}

/// Take the (lazily created) parallel state out of the core for a phase.
/// Ownership moves out so the driver can alias the core's arrays without
/// borrowing through `core.par`.
fn take_state(core: &mut NetworkCore, tiles: usize, grid: Option<(u16, u16)>) -> Box<ParState> {
    match core.par.take() {
        Some(st) if st.requested == (tiles, grid) => st,
        _ => Box::new(ParState::new(core, tiles, grid)),
    }
}

fn snapshot_powers(core: &NetworkCore, powers: &mut Vec<PowerState>) {
    powers.clear();
    powers.extend(core.routers.iter().map(|r| r.power));
}

fn make_shared<'a>(
    core: &'a mut NetworkCore,
    mech: Option<&'a dyn PowerMechanism>,
    powers: &'a [PowerState],
) -> Shared<'a> {
    Shared {
        now: core.cycle,
        cfg: &core.cfg,
        topo: &core.topo,
        tables: &core.tables,
        powers,
        mech,
        has_ring: core.ring.is_some(),
        nodes: core.routers.len(),
        routers: core.routers.as_mut_ptr(),
        channels: core.channels.as_mut_ptr(),
        eject: core.eject.as_mut_ptr(),
        nics: core.nics.as_mut_ptr(),
        link_util: core.link_util.as_mut_ptr(),
        ring_stage: core.ring_stage.as_mut_ptr(),
    }
}

/// Fork-join one phase over the prepared task snapshots, then replay the
/// deltas. `st.tasks` and (for `Deliver`) `st.chan_tasks` must be filled
/// before calling. The replay is timed into the `exchange` bucket when
/// phase timing is enabled.
fn run_phase(
    core: &mut NetworkCore,
    mech: Option<&dyn PowerMechanism>,
    st: &mut ParState,
    kind: PhaseKind,
) {
    {
        let deltas = st.deltas.as_mut_ptr();
        let va_orders = st.va_orders.as_mut_ptr();
        let ctx = JobCtx {
            sh: make_shared(core, mech, &st.powers),
            kind,
            plan: &st.plan,
            tasks: &st.tasks,
            chan_tasks: &st.chan_tasks,
            deltas,
            va_orders,
        };
        let tiles = st.plan.tiles();
        st.pool.run(Job { ctx: &ctx as *const JobCtx as *const (), run: run_tile, tiles });
    }
    let t0 = core.phase_nanos.is_some().then(std::time::Instant::now);
    apply_deltas(core, &mut st.deltas, &mut st.cursors);
    if let (Some(t0), Some(pn)) = (t0, core.phase_nanos.as_deref_mut()) {
        pn.exchange += t0.elapsed().as_nanos() as u64;
    }
}

/// Phase 2, parallel: FLOV latch forwarding over the latch set.
pub(super) fn latch_phase(core: &mut NetworkCore, tiles: usize, grid: Option<(u16, u16)>) {
    let mut st = take_state(core, tiles, grid);
    core.sched.latch.collect_into(&mut st.tasks);
    if !st.tasks.is_empty() {
        snapshot_powers(core, &mut st.powers);
        run_phase(core, None, &mut st, PhaseKind::Latch);
    }
    core.par = Some(st);
}

/// Phase 3, parallel: link delivery. Channels partition by *receiver*;
/// ejection channels by node.
pub(super) fn delivery_phase(core: &mut NetworkCore, tiles: usize, grid: Option<(u16, u16)>) {
    let mut st = take_state(core, tiles, grid);
    core.sched.chan.collect_into(&mut st.chan_tasks);
    core.sched.eject.collect_into(&mut st.tasks);
    if !st.tasks.is_empty() || !st.chan_tasks.is_empty() {
        snapshot_powers(core, &mut st.powers);
        run_phase(core, None, &mut st, PhaseKind::Deliver);
    }
    core.par = Some(st);
}

/// Phase 5, parallel: NIC injection over the inject set.
pub(super) fn injection_phase(
    core: &mut NetworkCore,
    mech: &dyn PowerMechanism,
    tiles: usize,
    grid: Option<(u16, u16)>,
) {
    let mut st = take_state(core, tiles, grid);
    core.sched.inject.collect_into(&mut st.tasks);
    if !st.tasks.is_empty() {
        snapshot_powers(core, &mut st.powers);
        run_phase(core, Some(mech), &mut st, PhaseKind::Inject);
    }
    core.par = Some(st);
}

/// Phase 6, parallel: router pipelines over the work set.
pub(super) fn pipeline_phase(
    core: &mut NetworkCore,
    mech: &dyn PowerMechanism,
    tiles: usize,
    grid: Option<(u16, u16)>,
) {
    let mut st = take_state(core, tiles, grid);
    core.sched.work.collect_into(&mut st.tasks);
    if !st.tasks.is_empty() {
        snapshot_powers(core, &mut st.powers);
        run_phase(core, Some(mech), &mut st, PhaseKind::Pipeline);
    }
    core.par = Some(st);
}

// --- Sharded mechanism control (phase 4) ------------------------------------

/// Job context for the control verdict pass: shared read-only core and
/// mechanism, plus the per-node not-quiet flags (each tile writes only
/// its own nodes' flag bytes).
struct ControlCtx<'a> {
    core: &'a NetworkCore,
    mech: &'a dyn PowerMechanism,
    plan: &'a TilePlan,
    nodes: usize,
    flags: *mut u8,
}

// The verdict pass is read-only on `core`/`mech`; `flags` is written
// single-writer per node (the owning tile).
unsafe impl Send for ControlCtx<'_> {}
unsafe impl Sync for ControlCtx<'_> {}

unsafe fn run_control_tile(ctx: *const (), tile: usize) {
    let j = &*(ctx as *const ControlCtx);
    for n in 0..j.nodes {
        if j.plan.tile_of(n as u32) == tile {
            *j.flags.add(n) = u8::from(!j.mech.control_quiet(j.core, n as NodeId));
        }
    }
}

/// Phase 4, sharded: the mechanism control step for mechanisms that opt
/// in via [`PowerMechanism::sharded_control`]. Serial prologue → parallel
/// read-only verdict pass → serial ascending replay of the exact
/// sequential per-node body over the flagged nodes → serial epilogue.
/// Verdicts are computed against pre-phase state, so the first body that
/// mutates the core escalates the scan to every remaining node; see the
/// module docs for why this is bit-identical to the sequential step.
pub(super) fn control_phase(
    core: &mut NetworkCore,
    mech: &mut dyn PowerMechanism,
    tiles: usize,
    grid: Option<(u16, u16)>,
) {
    let mut st = take_state(core, tiles, grid);
    mech.control_prologue(core);
    let nodes = core.routers.len();
    st.ctl_flags.clear();
    st.ctl_flags.resize(nodes, 0);
    {
        let ctx = ControlCtx {
            core,
            mech: &*mech,
            plan: &st.plan,
            nodes,
            flags: st.ctl_flags.as_mut_ptr(),
        };
        let t = st.plan.tiles();
        st.pool.run(Job {
            ctx: &ctx as *const ControlCtx as *const (),
            run: run_control_tile,
            tiles: t,
        });
    }
    let mut escalated = false;
    for n in 0..nodes {
        if (escalated || st.ctl_flags[n] != 0) && mech.control_node(core, n as NodeId) {
            escalated = true;
        }
    }
    mech.control_epilogue(core);
    core.par = Some(st);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_plan_covers_grid() {
        for (kx, ky, tiles, grid) in [
            (8u16, 8u16, 4usize, None),
            (8, 8, 8, None),
            (4, 4, 2, None),
            (4, 4, 16, None),
            (16, 3, 4, None),
            (5, 1, 3, None),
            (8, 8, 8, Some((4u16, 2u16))),
            (9, 7, 9, Some((3, 3))),
            (4, 4, 4, Some((16, 16))), // clamps to 4x4
        ] {
            let plan = TilePlan::new(kx, ky, tiles, grid);
            let n = kx as usize * ky as usize;
            let t = plan.tiles();
            assert!(t >= 1);
            if grid.is_none() {
                assert!(t <= tiles.max(1));
            }
            assert!(plan.row_starts.windows(2).all(|w| w[0] < w[1]), "empty row band: {plan:?}");
            assert!(plan.col_starts.windows(2).all(|w| w[0] < w[1]), "empty col band: {plan:?}");
            let mut owned = vec![0usize; t];
            for node in 0..n as u32 {
                owned[plan.tile_of(node)] += 1;
            }
            assert!(owned.iter().all(|&c| c > 0), "empty tile in {plan:?}");
            assert_eq!(owned.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn planner_minimizes_seams() {
        // 8 tiles on a square mesh: 2x4 and 4x2 tie on seam length and the
        // tie breaks toward more rows.
        assert_eq!(plan_grid(8, 8, 8), (4, 2));
        assert_eq!(plan_grid(8, 8, 4), (2, 2));
        // 2 tiles stay a row-stripe pair (ties break toward rows).
        assert_eq!(plan_grid(8, 8, 2), (2, 1));
        assert_eq!(plan_grid(8, 8, 1), (1, 1));
        // The plan never exceeds the grid.
        assert_eq!(plan_grid(2, 2, 64), (2, 2));
        // Degenerate grids lean into the long axis.
        assert_eq!(plan_grid(1, 16, 4), (4, 1));
        assert_eq!(plan_grid(16, 1, 4), (1, 4));
    }

    #[test]
    fn explicit_geometry_clamps_to_grid() {
        assert_eq!(planned_geometry(8, 8, 8, Some((4, 2))), (4, 2));
        assert_eq!(planned_geometry(8, 8, 64, Some((16, 16))), (8, 8));
        assert_eq!(planned_geometry(8, 8, 1, Some((0, 0))), (1, 1));
        assert_eq!(planned_geometry(5, 3, 6, Some((2, 3))), (2, 3));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]
        #[test]
        fn tile_plan_ownership_and_seam_symmetry(
            kx in 1u16..13,
            ky in 1u16..13,
            tiles in 1usize..11,
            rows in 1u16..6,
            cols in 1u16..6,
            explicit in 0u32..2,
        ) {
            use proptest::prelude::*;
            let grid = (explicit == 1).then_some((rows, cols));
            let plan = TilePlan::new(kx, ky, tiles, grid);
            let n = kx as usize * ky as usize;
            let t = plan.tiles();
            // Every node is owned by exactly one in-range tile, and no
            // tile is empty.
            let mut owned = vec![0usize; t];
            for node in 0..n as u32 {
                let tile = plan.tile_of(node);
                prop_assert!(tile < t);
                owned[tile] += 1;
            }
            prop_assert_eq!(owned.iter().sum::<usize>(), n);
            prop_assert!(owned.iter().all(|&c| c > 0));
            // Seam enumeration is symmetric and matches a brute-force
            // grid-adjacency scan.
            let seams = plan.seams();
            let seam_set: std::collections::HashSet<_> = seams.iter().copied().collect();
            prop_assert_eq!(seam_set.len(), seams.len());
            for &(a, b) in &seams {
                prop_assert!(seam_set.contains(&(b, a)), "asymmetric seam ({a}, {b})");
            }
            let mut adj = std::collections::HashSet::new();
            for y in 0..ky as u32 {
                for x in 0..kx as u32 {
                    let node = y * kx as u32 + x;
                    let a = plan.tile_of(node);
                    if x + 1 < kx as u32 {
                        let b = plan.tile_of(node + 1);
                        if a != b {
                            adj.insert((a, b));
                            adj.insert((b, a));
                        }
                    }
                    if y + 1 < ky as u32 {
                        let b = plan.tile_of(node + kx as u32);
                        if a != b {
                            adj.insert((a, b));
                            adj.insert((b, a));
                        }
                    }
                }
            }
            prop_assert_eq!(seam_set, adj);
        }
    }

    #[test]
    fn pool_runs_all_tiles_and_propagates_panics() {
        let pool = Pool::new(3);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        struct Ctx<'a> {
            hits: &'a [AtomicU64],
        }
        unsafe fn bump(ctx: *const (), tile: usize) {
            let c = &*(ctx as *const Ctx);
            c.hits[tile].fetch_add(1, Ordering::Relaxed);
        }
        let ctx = Ctx { hits: &hits };
        for _ in 0..100 {
            pool.run(Job { ctx: &ctx as *const Ctx as *const (), run: bump, tiles: 4 });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 100));

        unsafe fn boom(_ctx: *const (), tile: usize) {
            if tile == 2 {
                panic!("tile 2 exploded");
            }
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(Job { ctx: std::ptr::null(), run: boom, tiles: 4 });
        }));
        let payload = r.expect_err("worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        assert!(msg.contains("tile 2 exploded"), "panic message lost: {msg}");
        // The pool survives a panicked job.
        pool.run(Job { ctx: &ctx as *const Ctx as *const (), run: bump, tiles: 4 });
        assert_eq!(hits[0].load(Ordering::Relaxed), 101);
    }

    #[test]
    fn pool_strides_tiles_over_fewer_executors() {
        let hits: Vec<AtomicU64> = (0..7).map(|_| AtomicU64::new(0)).collect();
        struct Ctx<'a> {
            hits: &'a [AtomicU64],
        }
        unsafe fn bump(ctx: *const (), tile: usize) {
            let c = &*(ctx as *const Ctx);
            c.hits[tile].fetch_add(1, Ordering::Relaxed);
        }
        let ctx = Ctx { hits: &hits };
        // 7 tiles over 2 executors (1 worker) and over 1 executor (inline).
        for workers in [1usize, 0] {
            let pool = Pool::new(workers);
            pool.run(Job { ctx: &ctx as *const Ctx as *const (), run: bump, tiles: 7 });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
    }
}
