//! The simulation kernel: owns routers, the arrival wheel of in-flight
//! traffic and NICs, and advances the network one cycle at a time with a
//! fixed, deterministic phase order:
//!
//! 1. workload update (core activity + packet generation),
//! 2. FLOV latch forwarding in power-gated routers,
//! 3. link delivery (this cycle's slot of the wheel: flits, credits,
//!    ejections),
//! 4. mechanism control step (handshakes, power transitions),
//! 5. NIC injection,
//! 6. router pipelines (VA, then SA/ST) for powered routers,
//! 7. accounting (watchdog; residency accumulates lazily at transitions).
//!
//! Three interchangeable scheduling strategies drive phases 2, 5 and 6
//! (see [`KernelMode`]): the *reference* kernel scans every router and NIC
//! each cycle, the default *active-set* kernel visits only resources with
//! work, tracked incrementally, and the *parallel* kernel partitions the
//! active sets over tiles. Phase 3 needs no schedule: every kernel
//! delivers exactly the wheel slot of the current cycle (the parallel
//! kernel splits its entries by receiving router). All three run the same
//! phase bodies (the `delivery` and `pipeline` modules), written once
//! against the `Fabric` seam, and produce bit-identical results; the
//! invariant that makes skipping safe is that every state change which can
//! give a resource work re-marks it (see the marking notes below and
//! `DESIGN.md` § "Kernel scheduling").

pub mod audit;
mod chain;
mod delivery;
mod par;
mod pipeline;
#[cfg(test)]
mod tests;
mod transitions;

pub use audit::{AuditKind, AuditViolation, Auditor};
pub use chain::ChainTarget;

use crate::active::ActiveSet;
use crate::activity::{ActivityCounters, Residency};
use crate::config::{ConfigError, NocConfig};
use crate::flit::Flit;
use crate::link::{CreditMsg, Wheel};
use crate::nic::Nic;
use crate::packet::{DeliveredPacket, Packet};
use crate::ring::{BypassRing, RingDelivery};
use crate::router::Router;
use crate::stats::NetStats;
use crate::topology::TopologySpec;
use crate::traits::{PacketRequest, PowerMechanism, PowerView, Workload};
use crate::types::{Coord, Cycle, Dir, NodeId, PacketId, PowerState};

/// Scheduling strategy for the per-cycle kernel loops.
///
/// Not part of [`NocConfig`]: all kernel modes are proven bit-identical by
/// the equivalence suite, so the choice never affects results (or result
/// cache keys) — only wall-clock speed. Switching modes mid-run is safe:
/// the active sets are maintained unconditionally and cleaned lazily.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// Visit only routers and NICs with work, tracked incrementally;
    /// per-cycle cost scales with activity. Additionally jumps the clock
    /// over fully quiescent windows (the time-domain skip; see
    /// [`NetworkCore::quiescent`] and the next-event horizons on
    /// [`crate::traits::PowerMechanism`] / [`crate::traits::Workload`]),
    /// so total run cost scales with how many cycles are *busy*.
    #[default]
    ActiveSet,
    /// Full scan of every router and NIC each cycle, never skipping — the
    /// original kernel, kept as the equivalence oracle for the router,
    /// NIC and latch scans and for the time-domain skip.
    Reference,
    /// The sharded in-run parallel kernel: [`KernelMode::ActiveSet`]
    /// scheduling (including the time-domain skip), with phases 2, 3, 5
    /// and 6 fanned out over a 2-D grid of tiles on persistent worker
    /// threads and a deterministic boundary exchange merging cross-tile
    /// effects back into sequential order (see the `par` module). Phase 4
    /// (the mechanism control step) runs the mechanism's own
    /// [`crate::traits::PowerMechanism::step`] on the driving thread.
    /// Bit-identical to the sequential kernels at every geometry;
    /// `Parallel { tiles: 1, grid: None }` degenerates to single-threaded
    /// execution on the driving thread.
    Parallel {
        /// Requested tile (worker) count; the planner factorizes it into
        /// a seam-minimizing rows × columns grid (clamped to the mesh
        /// dimensions, so an oversized request quietly caps out — see
        /// [`KernelMode::planned_grid`] for the effective geometry).
        tiles: usize,
        /// Explicit `rows × cols` tile geometry, overriding the planner
        /// (each axis clamps to the grid dimensions).
        grid: Option<(u16, u16)>,
    },
}

impl KernelMode {
    /// The effective tile geometry (`rows, cols`) this mode runs with on a
    /// `kx × ky` router grid; `None` for the sequential kernels. This is
    /// what the engine reports so oversized `--threads` requests clamp
    /// loudly instead of silently.
    pub fn planned_grid(&self, kx: u16, ky: u16) -> Option<(u16, u16)> {
        match *self {
            KernelMode::Parallel { tiles, grid } => {
                Some(par::planned_geometry(kx, ky, tiles, grid))
            }
            _ => None,
        }
    }
}

/// Active-set scheduling state: which resources may have work this cycle.
/// Entries are inserted eagerly by producers and removed lazily by the
/// consuming phase when it finds them idle.
struct SchedSets {
    /// Routers with occupied FLOV latches (`latch_phase` candidates).
    latch: ActiveSet,
    /// Routers with buffered flits (`pipeline_phase` candidates).
    work: ActiveSet,
    /// Nodes whose NIC has queued or mid-serialization traffic.
    inject: ActiveSet,
    /// Scratch index buffer reused by phase iterations.
    scratch: Vec<u32>,
}

/// Names one of the [`SchedSets`] in a mark or lazy removal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetId {
    Latch,
    Work,
    Inject,
}

impl SchedSets {
    fn new(nodes: usize) -> SchedSets {
        SchedSets {
            latch: ActiveSet::new(nodes),
            work: ActiveSet::new(nodes),
            inject: ActiveSet::new(nodes),
            scratch: Vec::new(),
        }
    }

    fn set(&mut self, id: SetId) -> &mut ActiveSet {
        match id {
            SetId::Latch => &mut self.latch,
            SetId::Work => &mut self.work,
            SetId::Inject => &mut self.inject,
        }
    }
}

/// Per-node adjacency and coordinates, tabulated once from the topology
/// so that hot-path lookups are loads instead of divisions by `kx`.
/// `NodeId::MAX` marks "no neighbor" (`NocConfig::validate` keeps it out
/// of the id range).
struct NodeTables {
    /// Physical (wrap-aware) neighbor per node and direction.
    phys: Vec<[NodeId; 4]>,
    /// Mesh-semantic (never wrapping) neighbor per node and direction.
    grid: Vec<[NodeId; 4]>,
    coords: Vec<Coord>,
}

impl NodeTables {
    fn new(topo: &TopologySpec) -> NodeTables {
        let ids = 0..topo.routers() as NodeId;
        let table = |f: fn(&TopologySpec, NodeId, Dir) -> Option<NodeId>| {
            ids.clone().map(|i| Dir::ALL.map(|d| f(topo, i, d).unwrap_or(NodeId::MAX))).collect()
        };
        NodeTables {
            phys: table(|t, i, d| t.neighbor_dir(i, d)),
            grid: table(|t, i, d| t.grid_neighbor(i, d)),
            coords: ids.clone().map(|i| topo.coord(i)).collect(),
        }
    }

    #[inline]
    fn neighbor(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        let m = self.phys[node as usize][d.index()];
        (m != NodeId::MAX).then_some(m)
    }

    #[inline]
    fn grid_neighbor(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        let m = self.grid[node as usize][d.index()];
        (m != NodeId::MAX).then_some(m)
    }

    #[inline]
    fn coord(&self, node: NodeId) -> Coord {
        self.coords[node as usize]
    }
}

/// The network state, without the mechanism/workload policies.
pub struct NetworkCore {
    pub cfg: NocConfig,
    /// The fabric topology (`cfg.topology_spec()`), the source of every
    /// adjacency query (tabulated in `tables`).
    pub topo: TopologySpec,
    tables: NodeTables,
    pub cycle: Cycle,
    pub routers: Vec<Router>,
    /// Every flit and credit on a wire and every flit on its way to a NIC,
    /// by arrival cycle. Links are indexed `node * 4 + dir`: the link
    /// leads *out of* `node` in direction `dir` (edge links are never sent
    /// on).
    wheel: Wheel,
    pub nics: Vec<Nic>,
    /// OS-visible core power state, driven by the workload. Indexed by
    /// *core* id (`cfg.cores()` entries): on a concentrated mesh several
    /// cores share a router (core `c` attaches to router
    /// `c / concentration`); everywhere else core ids equal router ids.
    pub core_active: Vec<bool>,
    wake_flag: Vec<bool>,
    wake_list: Vec<NodeId>,
    pub activity: ActivityCounters,
    /// Per-router powered/gated cycle tallies, accumulated lazily: each
    /// entry is settled up to `res_since` and folded forward when the
    /// router crosses the powered/gated boundary (or on read, via
    /// [`NetworkCore::residency`]).
    residency: Vec<Residency>,
    /// Cycle up to which `residency[i]` has been accumulated.
    res_since: Vec<Cycle>,
    pub stats: NetStats,
    next_packet: PacketId,
    /// Packets injected (head entered the network or NIC queue) minus
    /// packets delivered.
    pub in_flight_packets: u64,
    last_progress: Cycle,
    /// Node-cycles in which a node wanted to inject but was stalled by the
    /// mechanism's injection gate: each stalled node counts once per cycle
    /// (Router Parking reconfiguration accounting).
    pub stalled_injection_node_cycles: u64,
    /// Packets diverted into the escape sub-network by the timeout.
    pub escape_diversions: u64,
    /// Cycles the clock jumped over while the fabric was quiescent (the
    /// time-domain skip; only ever non-zero under [`KernelMode::ActiveSet`]
    /// or [`KernelMode::Parallel`], and never part of results — skipped
    /// cycles are provable no-ops).
    pub cycles_skipped: u64,
    /// Flit count per directed link (`node * 4 + dir`), for hotspot
    /// analysis (the paper attributes RP's contention to routing hotspots).
    pub link_util: Vec<u64>,
    /// NoRD bypass ring, when `cfg.enable_ring` is set.
    pub ring: Option<BypassRing>,
    /// Ring-to-mesh transfer queues, one per node (flits that exited the
    /// ring at a powered node and await mesh injection).
    ring_transfer: Vec<std::collections::VecDeque<Flit>>,
    /// Per-node wormhole state of the transfer injector: packet id of the
    /// in-flight transfer (the reserved transfer VC keeps it contiguous).
    transfer_open: Vec<Option<crate::types::PacketId>>,
    /// Per-packet staging of mesh-to-ring transfers: flits of different
    /// packets interleave on the ejection path, but the ring station
    /// must receive whole packets contiguously (its wormhole lock would
    /// otherwise deadlock). Flits collect here until the tail arrives.
    ring_stage: Vec<Vec<(crate::types::PacketId, Vec<Flit>)>>,
    ring_out: Vec<RingDelivery>,
    gen_buf: Vec<PacketRequest>,
    /// Scheduling strategy for the hot phase loops; see [`KernelMode`].
    pub kernel: KernelMode,
    sched: SchedSets,
    /// Parallel-kernel state (tile plan, worker pool, per-tile buffers),
    /// created lazily on the first [`KernelMode::Parallel`] phase.
    par: Option<Box<par::ParState>>,
    /// Flag-gated per-phase wall-time accumulators; see [`PhaseNanos`].
    /// `None` (the default) costs one branch per phase.
    pub phase_nanos: Option<Box<PhaseNanos>>,
}

/// Per-phase wall-time accumulators in nanoseconds, for the kernel
/// bench's serial-fraction breakdown ([`Simulation::step`] fills them
/// when `NetworkCore::phase_nanos` is enabled). Timing never feeds back
/// into simulation state, so enabling it cannot affect results or the
/// equivalence digests.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct PhaseNanos {
    /// Phase 2: FLOV latch forwarding.
    pub latch: u64,
    /// Phase 3: link delivery (plus the 2b ring hop).
    pub delivery: u64,
    /// Phase 5: NIC injection (plus ring transfers).
    pub inject: u64,
    /// Phase 6: router pipelines.
    pub pipeline: u64,
    /// Phase 4: the mechanism control step.
    pub mechanism: u64,
    /// Boundary-exchange replay inside the parallel kernel's sharded
    /// phases. Already *included* in the four sharded-phase buckets
    /// above — this isolates their serial replay fraction.
    pub exchange: u64,
}

impl NetworkCore {
    /// Construct the network, panicking on misconfiguration (the original
    /// entry point; library callers wanting diagnostics use
    /// [`NetworkCore::try_new`]).
    pub fn new(cfg: NocConfig) -> NetworkCore {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid NoC configuration: {e}"))
    }

    /// Construct the network, returning a structured [`ConfigError`] on
    /// misconfiguration (including NoRD on a ring-less topology).
    pub fn try_new(cfg: NocConfig) -> Result<NetworkCore, ConfigError> {
        cfg.validate()?;
        let topo = cfg.topology_spec();
        let n = topo.routers();
        let cores = topo.cores();
        let measure_from = 0;
        Ok(NetworkCore {
            routers: (0..n).map(|i| Router::new(&cfg, i as NodeId)).collect(),
            wheel: Wheel::new(n * 4, n, cfg.link_latency),
            nics: (0..n).map(|_| Nic::new(cfg.vnets)).collect(),
            core_active: vec![true; cores],
            wake_flag: vec![false; n],
            wake_list: Vec::new(),
            activity: ActivityCounters::default(),
            residency: vec![Residency::default(); n],
            res_since: vec![0; n],
            stats: NetStats::new(measure_from, cfg.pipeline_stages, cfg.link_latency),
            next_packet: 0,
            in_flight_packets: 0,
            last_progress: 0,
            stalled_injection_node_cycles: 0,
            escape_diversions: 0,
            cycles_skipped: 0,
            link_util: vec![0; n * 4],
            ring: if cfg.enable_ring {
                // `validate` established that the topology admits a
                // Hamiltonian cycle, n <= 256, and regular_vcs >= 2.
                let succ = topo.ring_successors().expect("validated ring topology");
                Some(BypassRing::from_successors(succ))
            } else {
                None
            },
            ring_transfer: vec![std::collections::VecDeque::new(); n],
            transfer_open: vec![None; n],
            ring_stage: vec![Vec::new(); n],
            ring_out: Vec::new(),
            gen_buf: Vec::new(),
            kernel: KernelMode::default(),
            sched: SchedSets::new(n),
            par: None,
            phase_nanos: None,
            cycle: 0,
            tables: NodeTables::new(&topo),
            topo,
            cfg,
        })
    }

    // --- Active-set marking -------------------------------------------------
    //
    // The invariant behind the active-set kernel: any state change that can
    // make a resource schedulable must re-mark it. Marks are idempotent bit
    // ORs, maintained in *both* kernel modes (so modes can be switched
    // mid-run); the consuming phases remove entries lazily when they find
    // them idle. The producers:
    //
    // * `work` (router has buffered flits): flit delivery into a buffer,
    //   NIC injection, ring-to-mesh transfer, credit refunds (defensive; a
    //   router waiting on credits already has occupancy > 0), and wakeup
    //   completion (defensive).
    // * `latch` (router has occupied FLOV latches): flit delivery into a
    //   latch of a gated router.
    // * `inject` (NIC backlog): packet submission; entries persist across
    //   gated periods until the backlog drains.
    //
    // In-flight traffic needs no mark: the wheel delivers each cycle's
    // arrivals in that cycle.
    //
    // The phase bodies mark through `Fabric::mark`; the helpers below serve
    // packet submission, ring transfers and power transitions.

    #[inline]
    pub(crate) fn mark_work(&mut self, node: NodeId) {
        self.sched.work.insert(node as usize);
    }

    #[inline]
    fn mark_inject(&mut self, node: NodeId) {
        self.sched.inject.insert(node as usize);
    }

    /// Router-grid width (`kx`; the historical square radix).
    #[inline]
    pub fn k(&self) -> u16 {
        self.topo.kx()
    }

    /// Router-grid height.
    #[inline]
    pub fn ky(&self) -> u16 {
        self.topo.ky()
    }

    /// Number of routers.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.routers.len()
    }

    /// Number of cores (`core_active` entries): routers x concentration.
    #[inline]
    pub fn cores(&self) -> usize {
        self.core_active.len()
    }

    /// Attachment router of core `core`.
    #[inline]
    pub fn core_router(&self, core: NodeId) -> NodeId {
        core / self.topo.concentration()
    }

    /// True if any core attached to router `node` is OS-active. With
    /// concentration 1 this is exactly `core_active[node]`; mechanisms key
    /// their gating decisions off this view.
    #[inline]
    pub fn router_core_active(&self, node: NodeId) -> bool {
        let c = self.topo.concentration() as usize;
        if c == 1 {
            self.core_active[node as usize]
        } else {
            self.core_active[node as usize * c..(node as usize + 1) * c].iter().any(|&a| a)
        }
    }

    /// Coordinate of `node`.
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        self.tables.coord(node)
    }

    /// Physical (link-level, wrap-aware on a torus) neighbor of `node` in
    /// `d`, if any. The datapath — delivery, latch chains, credit relays —
    /// follows this view; routing policy uses [`NetworkCore::grid_neighbor`].
    #[inline]
    pub fn neighbor(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        self.tables.neighbor(node, d)
    }

    /// Mesh-semantic (never wrapping) neighbor of `node` in `d`, if any.
    #[inline]
    pub fn grid_neighbor(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        self.tables.grid_neighbor(node, d)
    }

    /// Index of the outgoing link of `node` in direction `d`.
    #[inline]
    fn edge(&self, node: NodeId, d: Dir) -> usize {
        node as usize * 4 + d.index()
    }

    /// Power state of `node`.
    #[inline]
    pub fn power(&self, node: NodeId) -> PowerState {
        self.routers[node as usize].power
    }

    /// Grid-neighbor power states as seen from `node` (the PSR view).
    /// Deliberately the *grid* view: routing policy and the mechanisms'
    /// edge logic stay mesh-semantic on a torus (wrap links carry only the
    /// baseline's wrap-minimal traffic and physical transit).
    pub fn psr(&self, node: NodeId) -> [Option<PowerState>; 4] {
        chain::psr(&self.tables, self, node)
    }

    /// True if the NIC of `node` has traffic queued or mid-serialization.
    #[inline]
    pub fn nic_pending(&self, node: NodeId) -> bool {
        self.nics[node as usize].pending()
    }

    /// Register a wakeup request for a sleeping router holding up traffic
    /// (paper: "its neighbor has a packet destined for its core").
    pub(crate) fn request_wakeup(&mut self, node: NodeId) {
        if !self.wake_flag[node as usize] {
            self.wake_flag[node as usize] = true;
            self.wake_list.push(node);
        }
    }

    /// Drain pending wakeup requests; called by the mechanism each step.
    pub fn take_wakeup_requests(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.wake_list);
        for &n in &self.wake_list {
            self.wake_flag[n as usize] = false;
        }
        self.wake_list.clear();
    }

    /// Peek at pending wakeup requests without clearing them.
    pub fn wakeup_requests(&self) -> &[NodeId] {
        &self.wake_list
    }

    /// Enqueue a generated packet at its source NIC. Request endpoints are
    /// *core* ids; on a concentrated mesh they are mapped down to the
    /// attachment routers (each router's NIC is shared by its cores).
    ///
    /// Requests whose endpoints share a router (`src == dst` after the
    /// mapping — including self-addressed requests) are rejected and
    /// counted in `stats.self_addressed_dropped` rather than admitted: the
    /// model has no local loopback path, so such a packet would inflate
    /// `in_flight_packets` forever (a silent stats corruption in release
    /// builds when this was only a `debug_assert`). Returns the assigned
    /// packet id, or `None` for a rejected request.
    pub fn submit(&mut self, req: PacketRequest) -> Option<PacketId> {
        debug_assert!((req.src as usize) < self.cores() && (req.dst as usize) < self.cores());
        debug_assert!((req.vnet as usize) < self.cfg.vnets);
        let src = self.core_router(req.src);
        let dst = self.core_router(req.dst);
        if src == dst {
            self.stats.self_addressed_dropped += 1;
            return None;
        }
        let id = self.next_packet;
        self.next_packet += 1;
        let pkt = Packet { id, src, dst, vnet: req.vnet, len: req.len, birth: self.cycle };
        self.nics[src as usize].enqueue(pkt);
        self.routers[src as usize].touch_local(self.cycle);
        self.in_flight_packets += 1;
        self.mark_inject(src);
        Some(id)
    }

    /// Total flits buffered in routers, latches, wires, ejection paths and
    /// the ring — zero means the network fabric is empty.
    pub fn flits_in_network(&self) -> u64 {
        let buffered: u64 = self.routers.iter().map(|r| r.buffered_flits() as u64).sum();
        let latched: u64 = self
            .routers
            .iter()
            .map(|r| r.latches.iter().filter(|l| l.is_some()).count() as u64)
            .sum();
        let in_flight = self.wheel.flits() as u64;
        let ringed: u64 = self.ring.as_ref().map_or(0, |r| r.flits_in_ring());
        let transfers: u64 = self.ring_transfer.iter().map(|q| q.len() as u64).sum();
        let staged: u64 =
            self.ring_stage.iter().flat_map(|v| v.iter()).map(|(_, fs)| fs.len() as u64).sum();
        buffered + latched + in_flight + ringed + transfers + staged
    }

    /// True if no packet is anywhere between generation and delivery.
    pub fn is_empty(&self) -> bool {
        self.in_flight_packets == 0
    }

    /// True when ring-exit flits are queued at `node` awaiting mesh
    /// injection. The transfer injector only runs while the router is
    /// powered, and the ring picks a flit's mesh-entry node at ingress
    /// time — so a node that gates after ingress but before arrival
    /// strands this queue unless its mechanism reacts (NoRD wakes the
    /// router and refuses to complete a drain while transfers pend).
    pub fn ring_transfer_pending(&self, node: NodeId) -> bool {
        !self.ring_transfer[node as usize].is_empty()
    }

    /// True when a cycle step would move no flit anywhere: every scheduling
    /// set is empty (no latched, buffered or NIC-pending traffic), nothing
    /// is in flight on the wheel, no wakeup requests are queued, and the
    /// bypass ring (when present) holds no flits. The sets are maintained
    /// eagerly and cleaned lazily, so right after activity ends this may
    /// stay false for one cleaning step — which only delays a jump, never
    /// corrupts one. In-flight ring credits are deliberately *not* checked: their
    /// delivery is `arrival <= now`, so a jump past the arrival lands the
    /// same credits at the next real step with identical state.
    pub fn quiescent(&self) -> bool {
        self.sched.latch.is_empty()
            && self.sched.work.is_empty()
            && self.sched.inject.is_empty()
            && self.wheel.is_empty()
            && self.wake_list.is_empty()
            && self.ring.as_ref().is_none_or(|r| r.flits_in_ring() == 0)
            && self.ring_transfer.iter().all(|q| q.is_empty())
            && self.ring_stage.iter().all(|v| v.is_empty())
    }

    /// Flits generated so far: injected plus still queued at the NICs
    /// (including the remainder of partial serializations). This is the
    /// *offered* load — visible even while injection is stalled, which is
    /// what a Fabric Manager's congestion estimate needs.
    pub fn generated_flits(&self) -> u64 {
        let queued: u64 = self
            .nics
            .iter()
            .map(|nic| {
                let q: u64 = nic.queues.iter().flat_map(|q| q.iter()).map(|p| p.len as u64).sum();
                let partial: u64 =
                    nic.in_progress.iter().flatten().map(|st| (st.pkt.len - st.next) as u64).sum();
                q + partial
            })
            .sum();
        self.activity.flits_injected + queued
    }

    fn note_progress(&mut self) {
        self.last_progress = self.cycle;
    }

    /// Ring exit node for a packet entering the ring at `from` with
    /// destination `dst`: the first node after `from` (ring order) whose
    /// router is powered — where the packet re-enters the mesh — or `dst`
    /// itself if it comes first or nothing is powered (full ring ride).
    pub fn ring_exit_for(&self, from: NodeId, dst: NodeId) -> NodeId {
        let ring = self.ring.as_ref().expect("ring not enabled");
        let mut cur = ring.successor(from);
        while cur != from {
            if cur == dst || self.routers[cur as usize].power.is_powered() {
                return cur;
            }
            cur = ring.successor(cur);
        }
        dst
    }

    /// Ring phase: advance the bypass ring one cycle; ejections complete
    /// packets at NICs, mesh entries queue for transfer injection.
    fn ring_phase(&mut self) {
        if self.ring.is_none() {
            return;
        }
        let now = self.cycle;
        let mut out = std::mem::take(&mut self.ring_out);
        out.clear();
        {
            let ring = self.ring.as_mut().unwrap();
            ring.step(now, |node, flit| flit.vc as NodeId == node, &mut out);
            self.activity.ring_flits = ring.flits_forwarded;
        }
        for d in out.drain(..) {
            match d {
                RingDelivery::Eject(node, flit) => {
                    delivery::eject_local(&mut Seq(self), node, flit)
                }
                RingDelivery::MeshEntry(node, flit) => {
                    self.ring_transfer[node as usize].push_back(flit);
                    self.note_progress();
                }
            }
        }
        self.ring_out = out;
    }

    /// Transfer + bypass injection (one flit per node per cycle each way):
    /// ring-to-mesh transfers enter the reserved transfer VC of the local
    /// port; gated nodes serialize NIC packets straight onto the ring.
    fn ring_injection_phase(&mut self) {
        if self.ring.is_none() {
            return;
        }
        let now = self.cycle;
        for node in 0..self.nodes() as NodeId {
            // (a) Ring-to-mesh transfer at powered routers.
            if self.routers[node as usize].power.is_powered()
                && !self.ring_transfer[node as usize].is_empty()
            {
                let front = *self.ring_transfer[node as usize].front().unwrap();
                let open = self.transfer_open[node as usize];
                let ok_packet = match open {
                    Some(p) => p == front.packet,
                    None => front.kind.is_head(),
                };
                if ok_packet {
                    let vc = (self.cfg.regular_vcs - 1) as u8; // reserved transfer VC
                    let flat = self.cfg.vc_index(front.vnet as usize, vc as usize);
                    let r = &mut self.routers[node as usize];
                    let slot = r.slot(crate::types::Port::Local.index(), flat);
                    if r.free_slots(slot) > 0 {
                        let mut f = self.ring_transfer[node as usize].pop_front().unwrap();
                        f.vc = vc;
                        r.push_flit(crate::types::Port::Local.index(), slot, f, now);
                        self.activity.buffer_writes += 1;
                        self.transfer_open[node as usize] =
                            if f.kind.is_tail() { None } else { Some(f.packet) };
                        self.mark_work(node);
                        self.note_progress();
                    }
                }
            }
            // (b) Bypass injection at gated nodes: one NIC packet per cycle
            // rides the ring (the station is NIC-side memory; the ring
            // itself still serializes at one flit per cycle).
            if !self.routers[node as usize].power.is_powered() {
                let vnets = self.cfg.vnets;
                let rr0 = self.nics[node as usize].vnet_rr;
                for i in 0..vnets {
                    let vn = (rr0 + i) % vnets;
                    let Some(pkt) = self.nics[node as usize].queues[vn].pop_front() else {
                        continue;
                    };
                    self.nics[node as usize].vnet_rr = (vn + 1) % vnets;
                    let exit = self.ring_exit_for(node, pkt.dst);
                    for idx in 0..pkt.len {
                        delivery::ring_ingress(&mut Seq(self), node, pkt.flit(idx, now), exit);
                        self.activity.flits_injected += 1;
                    }
                    self.activity.packets_injected += 1;
                    self.routers[node as usize].touch_local(now);
                    break;
                }
            }
        }
    }

    /// Fold the open residency interval of router `i` — `[res_since,
    /// cycle)` — into the tally under the router's *current* powered/gated
    /// condition.
    ///
    /// Called before a transition flips the router across the
    /// powered/gated boundary (`enter_sleep`, `complete_wakeup`): those
    /// happen in phase 4 of cycle `c`, and the per-cycle accounting this
    /// replaces tallied cycle `c` in phase 7, i.e. under the
    /// *post*-transition condition — so the pre-flip settle covers cycles
    /// up to but excluding `c`. The condition is constant over the open
    /// interval exactly because these two transitions are the only
    /// boundary crossings.
    pub(crate) fn settle_residency(&mut self, i: usize) {
        let dt = self.cycle - self.res_since[i];
        if dt > 0 {
            if self.routers[i].power.is_powered() {
                self.residency[i].powered += dt;
            } else {
                self.residency[i].gated += dt;
            }
            self.res_since[i] = self.cycle;
        }
    }

    /// Per-router powered/gated cycle tallies, settled up to the last
    /// completed cycle. Each router's total equals the cycles stepped so
    /// far. (Intended to be read between steps, as the harness does; the
    /// open interval is attributed to each router's current condition.)
    pub fn residency(&mut self) -> &[Residency] {
        for i in 0..self.routers.len() {
            self.settle_residency(i);
        }
        &self.residency
    }

    /// Phase 7 bookkeeping: the deadlock watchdog (residency accumulates
    /// lazily at power transitions; see [`NetworkCore::settle_residency`]).
    /// With `panic_on_stall` false (an [`Auditor`] is attached) the panic
    /// is suppressed — the auditor reports the stall as a structured
    /// [`AuditViolation`] instead.
    fn accounting_phase(&mut self, panic_on_stall: bool) {
        if panic_on_stall
            && self.cfg.watchdog_cycles > 0
            && self.in_flight_packets > 0
            && self.cycle - self.last_progress > self.cfg.watchdog_cycles
        {
            panic!(
                "watchdog: no progress for {} cycles at cycle {} with {} packets in flight \
                 ({} flits in network); power states: {:?}",
                self.cfg.watchdog_cycles,
                self.cycle,
                self.in_flight_packets,
                self.flits_in_network(),
                self.routers.iter().map(|r| r.power).collect::<Vec<_>>()
            );
        }
    }
}

impl NetworkCore {
    /// The active-set loop: run `task` on every member of `set`, in
    /// ascending index order, through [`Seq`]. Tasks remove idle members
    /// themselves (the lazy removal); marks they add defer to the next
    /// cycle, since the loop walks a snapshot.
    fn for_each_marked(&mut self, set: SetId, mut task: impl FnMut(&mut Seq<'_>, u32)) {
        let mut scratch = std::mem::take(&mut self.sched.scratch);
        self.sched.set(set).collect_into(&mut scratch);
        let mut fab = Seq(self);
        for &i in &scratch {
            task(&mut fab, i);
        }
        self.sched.scratch = scratch;
    }
}

/// The seam every phase body is written against: FLOV latch forwarding,
/// link delivery and credit relays, ejection and ring ingress (the
/// `delivery` module), NIC injection and the VA/SA/ST pipeline (the
/// `pipeline` module). The reference scan and the active-set loop run the
/// bodies through [`Seq`], which applies every effect to the core at once;
/// the parallel kernel runs them through `par::Lane`, which writes only the
/// elements its tile owns and buffers every other effect, sends onto the
/// wheel included, into its `Delta` for ordered replay after the phase
/// join (DESIGN.md §7b).
trait Fabric {
    /// Power reads: the live core, or a tile's phase-start snapshot.
    type View: PowerView;

    fn now(&self) -> Cycle;
    fn cfg(&self) -> &NocConfig;
    fn topo(&self) -> &TopologySpec;
    fn tables(&self) -> &NodeTables;
    fn has_ring(&self) -> bool;
    fn view(&self) -> &Self::View;

    // Elements. A body touches only the ones its phase lets it own: its
    // router, NIC, outgoing link counters and ring stage, or (in delivery)
    // the router a wheel entry arrives at.
    fn router(&mut self, i: usize) -> &mut Router;
    fn nic(&mut self, n: usize) -> &mut Nic;
    fn link_util(&mut self, e: usize) -> &mut u64;
    fn ring_stage(&mut self, n: usize) -> &mut Vec<(PacketId, Vec<Flit>)>;

    // Effects on state shared across the fabric.
    fn act(&mut self) -> &mut ActivityCounters;
    fn mark(&mut self, set: SetId, idx: usize);
    fn unmark(&mut self, set: SetId, idx: usize);
    fn progress(&mut self);
    /// A packet at `origin` waits for the sleeping router `sleeper`.
    fn wakeup(&mut self, origin: NodeId, sleeper: NodeId);
    fn ring_enqueue(&mut self, node: NodeId, flit: Flit);
    /// Sends onto the wheel: a flit or a credit onto link `e`, or a flit
    /// toward the NIC of `node`, arriving at `arrival`.
    fn send_flit(&mut self, e: usize, arrival: Cycle, f: Flit);
    fn send_credit(&mut self, e: usize, arrival: Cycle, c: CreditMsg);
    fn send_eject(&mut self, node: NodeId, arrival: Cycle, f: Flit);
    fn delivered(&mut self, done: DeliveredPacket);
    fn escape_diversion(&mut self);
    fn stalled_injection(&mut self);
}

/// The whole core as a [`Fabric`]: every effect applies at once.
struct Seq<'a>(&'a mut NetworkCore);

impl Fabric for Seq<'_> {
    type View = NetworkCore;

    #[inline]
    fn now(&self) -> Cycle {
        self.0.cycle
    }

    #[inline]
    fn cfg(&self) -> &NocConfig {
        &self.0.cfg
    }

    #[inline]
    fn topo(&self) -> &TopologySpec {
        &self.0.topo
    }

    #[inline]
    fn tables(&self) -> &NodeTables {
        &self.0.tables
    }

    #[inline]
    fn has_ring(&self) -> bool {
        self.0.ring.is_some()
    }

    #[inline]
    fn view(&self) -> &NetworkCore {
        self.0
    }

    #[inline]
    fn router(&mut self, i: usize) -> &mut Router {
        &mut self.0.routers[i]
    }

    #[inline]
    fn nic(&mut self, n: usize) -> &mut Nic {
        &mut self.0.nics[n]
    }

    #[inline]
    fn link_util(&mut self, e: usize) -> &mut u64 {
        &mut self.0.link_util[e]
    }

    #[inline]
    fn ring_stage(&mut self, n: usize) -> &mut Vec<(PacketId, Vec<Flit>)> {
        &mut self.0.ring_stage[n]
    }

    #[inline]
    fn act(&mut self) -> &mut ActivityCounters {
        &mut self.0.activity
    }

    #[inline]
    fn mark(&mut self, set: SetId, idx: usize) {
        self.0.sched.set(set).insert(idx);
    }

    #[inline]
    fn unmark(&mut self, set: SetId, idx: usize) {
        self.0.sched.set(set).remove(idx);
    }

    #[inline]
    fn progress(&mut self) {
        self.0.note_progress();
    }

    #[inline]
    fn wakeup(&mut self, _origin: NodeId, sleeper: NodeId) {
        self.0.request_wakeup(sleeper);
    }

    #[inline]
    fn ring_enqueue(&mut self, node: NodeId, flit: Flit) {
        self.0.ring.as_mut().expect("ring enqueue without a ring").enqueue(node, flit);
    }

    #[inline]
    fn send_flit(&mut self, e: usize, arrival: Cycle, f: Flit) {
        self.0.wheel.send_flit(e, arrival, f);
    }

    #[inline]
    fn send_credit(&mut self, e: usize, arrival: Cycle, c: CreditMsg) {
        self.0.wheel.send_credit(e, arrival, c);
    }

    #[inline]
    fn send_eject(&mut self, node: NodeId, arrival: Cycle, f: Flit) {
        self.0.wheel.send_eject(node, arrival, f);
    }

    #[inline]
    fn delivered(&mut self, done: DeliveredPacket) {
        self.0.in_flight_packets -= 1;
        self.0.stats.record(&done);
    }

    #[inline]
    fn escape_diversion(&mut self) {
        self.0.escape_diversions += 1;
    }

    #[inline]
    fn stalled_injection(&mut self) {
        self.0.stalled_injection_node_cycles += 1;
    }
}

/// A complete simulation: the network core plus a mechanism and a workload.
pub struct Simulation {
    pub core: NetworkCore,
    pub mech: Box<dyn PowerMechanism>,
    pub workload: Box<dyn Workload>,
    /// Optional invariant auditor, checked at step boundaries every
    /// `auditor.interval` cycles. `None` (the default) costs one branch
    /// per step. When attached, the core's panicking deadlock watchdog is
    /// replaced by the auditor's structured no-progress check.
    pub auditor: Option<Box<Auditor>>,
}

impl Simulation {
    pub fn new(
        cfg: NocConfig,
        mech: Box<dyn PowerMechanism>,
        workload: Box<dyn Workload>,
    ) -> Simulation {
        Simulation { core: NetworkCore::new(cfg), mech, workload, auditor: None }
    }

    /// Attach an [`Auditor`] configured from the core's watchdog setting.
    pub fn attach_auditor(&mut self, interval: Cycle) {
        self.auditor =
            Some(Box::new(Auditor::with_interval(interval, self.core.cfg.watchdog_cycles)));
    }

    /// Set the measurement window start (warmup end).
    pub fn measure_from(&mut self, cycle: Cycle) {
        self.core.stats.measure_from = cycle;
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let core = &mut self.core;
        let cycle = core.cycle;
        // Phase 1: workload.
        self.workload.set_feedback(core.activity.packets_delivered, core.in_flight_packets);
        self.workload.update_cores(cycle, &mut core.core_active);
        let mut buf = std::mem::take(&mut core.gen_buf);
        buf.clear();
        self.workload.generate(cycle, &core.core_active, &mut buf);
        for req in buf.drain(..) {
            core.submit(req);
        }
        core.gen_buf = buf;
        // Optional per-phase wall-time accounting; see [`PhaseNanos`].
        let mut t0 = core.phase_nanos.as_deref().map(|_| std::time::Instant::now());
        // Phase 2: FLOV latches.
        delivery::latch_phase(core);
        lap(core, &mut t0, |p| &mut p.latch);
        // Phase 2b: the NoRD bypass ring (if enabled).
        core.ring_phase();
        // Phase 3: link delivery.
        delivery::delivery_phase(core);
        lap(core, &mut t0, |p| &mut p.delivery);
        // Phase 4: mechanism control, on the driving thread under every
        // kernel.
        self.mech.step(core);
        lap(core, &mut t0, |p| &mut p.mechanism);
        // Phase 5: NIC injection (plus ring transfers / bypass injection).
        pipeline::injection_phase(core, self.mech.as_ref());
        core.ring_injection_phase();
        lap(core, &mut t0, |p| &mut p.inject);
        // Phase 6: router pipelines.
        pipeline::pipeline_phase(core, self.mech.as_ref());
        lap(core, &mut t0, |p| &mut p.pipeline);
        // Phase 7: accounting, then (optionally) the invariant audit over
        // the settled end-of-cycle state.
        core.accounting_phase(self.auditor.is_none());
        if let Some(aud) = self.auditor.as_deref_mut() {
            if aud.due(core.cycle) {
                aud.check(core, self.mech.as_ref());
            }
        }
        core.cycle += 1;
    }

    /// Time-domain skip: under [`KernelMode::ActiveSet`], when the fabric
    /// is quiescent, jump the clock straight to the earliest cycle at
    /// which anything can happen — the workload's next injection or gating
    /// boundary, or the mechanism's next timer expiry — bounded by
    /// `deadline` (the enclosing run's edge). Every skipped cycle is a
    /// provable no-op for every subsystem (the horizon contract; see
    /// DESIGN.md), so counters and statistics come out bit-identical to
    /// stepping cycle-by-cycle: residency accumulates lazily from
    /// `res_since`, delivery stats are per-packet events, and the stall /
    /// watchdog counters need in-flight traffic that quiescence excludes.
    /// The [`KernelMode::Reference`] oracle never jumps, so the kernel
    /// equivalence suite proves exactly this property.
    ///
    /// Returns true if the clock moved.
    fn try_jump(&mut self, deadline: Cycle) -> bool {
        if !matches!(self.core.kernel, KernelMode::ActiveSet | KernelMode::Parallel { .. })
            || !self.core.quiescent()
        {
            return false;
        }
        let now = self.core.cycle;
        let mut horizon = deadline;
        if let Some(w) = self.workload.next_event(now) {
            horizon = horizon.min(w.max(now));
        }
        if let Some(m) = self.mech.next_event(&self.core) {
            horizon = horizon.min(m.max(now));
        }
        if horizon <= now {
            return false;
        }
        self.core.cycles_skipped += horizon - now;
        self.core.cycle = horizon;
        true
    }

    /// Run for `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        let deadline = self.core.cycle + cycles;
        while self.core.cycle < deadline {
            if !self.try_jump(deadline) {
                self.step();
            }
        }
    }

    /// Run until the workload reports done and the network is empty, or
    /// `max_cycles` elapses. Returns the cycle count reached.
    pub fn run_until_done(&mut self, max_cycles: u64) -> Cycle {
        while self.core.cycle < max_cycles {
            if self.workload.done(self.core.activity.packets_delivered) && self.core.is_empty() {
                break;
            }
            if !self.try_jump(max_cycles) {
                self.step();
            }
        }
        self.core.cycle
    }

    /// Keep cycling (the workload keeps running) until every in-flight
    /// packet is delivered or `max_extra` cycles pass. Used at the end of
    /// measured runs so late packets count.
    pub fn drain(&mut self, max_extra: u64) {
        let deadline = self.core.cycle + max_extra;
        while !self.core.is_empty() && self.core.cycle < deadline {
            self.step();
        }
    }
}

/// Phase-timing lap: attribute the interval since `*t0` to the
/// [`PhaseNanos`] bucket selected by `f`, then restart the lap. A no-op
/// when timing is disabled (`t0` stays `None`).
#[inline]
fn lap(
    core: &mut NetworkCore,
    t0: &mut Option<std::time::Instant>,
    f: impl FnOnce(&mut PhaseNanos) -> &mut u64,
) {
    if let Some(prev) = *t0 {
        let now = std::time::Instant::now();
        if let Some(p) = core.phase_nanos.as_deref_mut() {
            *f(p) += now.duration_since(prev).as_nanos() as u64;
        }
        *t0 = Some(now);
    }
}
