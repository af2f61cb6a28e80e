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
//!   — a body touches only its router, its NIC and its outgoing link
//!   counters, and buffers its sends onto the wheel;
//! * the delivery phase takes the cycle's wheel slot once, and every tile
//!   walks it, delivering the entries whose *receiving* router (or
//!   ejecting node) it owns — a directed link has exactly one receiver, so
//!   each entry is delivered by one tile, in the slot's send order.
//!
//! # One body per phase
//!
//! A tile runs the very functions the sequential kernels run — the
//! `latch_task` and `deliver_slot` of the `delivery` module and the
//! `inject_task` and `pipeline_task` of the `pipeline` module — through
//! the [`Fabric`] seam. Where the sequential `Seq` applies every effect to
//! the core at once, a tile's [`Lane`] reaches only the elements its tile
//! owns (router, NIC, link counter, ring stage), reads power from the
//! phase-start snapshot, and buffers every other effect, wheel sends
//! included, into its [`Delta`]. This module therefore holds no datapath
//! code of its own: only the partition, the pool and the replay.
//!
//! # Boundary exchange
//!
//! Everything a tile would write outside its own elements is buffered in a
//! per-tile [`Delta`] and applied by the driver *after* the join. With 2-D
//! tiles, tile order no longer equals ascending node order, so replay
//! distinguishes two classes. The order-sensitive streams — wakeup
//! requests, NoRD ring enqueues and ejections sent onto the wheel, each
//! tagged with its originating node — are k-way merged across tiles back
//! into ascending origin order, which is exactly the sequential order:
//! per-tile lists are already ascending by origin (tiles walk the snapshot
//! or the slot in ascending order) and origins are disjoint across tiles.
//! Everything else — global counters and statistics, delivered-packet
//! records, flit and credit sends onto the wheel, and every scheduling-set
//! mark — commutes across tiles or is single-writer: wheel entries on
//! different links commute at delivery, and each link is sent on by one
//! tile per phase (its sender's, or for a relayed credit the tile that
//! owns the relaying router), which appends in its own send order. Every
//! set mark and removal names a node the tile owns. Buffered sends are
//! invisible intra-phase: every send lands at least one cycle ahead.
//!
//! # Power snapshot
//!
//! Power states change only in phase 4 (the mechanism step, which runs on
//! the driving thread between the delivery and injection fork-joins) and
//! are *read* across tile boundaries by routing (`psr`, FLOV chain walks,
//! credit relay checks). Each parallel phase therefore snapshots the power
//! vector up front and evaluates all cross-tile power reads — including the
//! mechanism's [`PowerMechanism::route`] / `injection_allowed` hooks, via
//! [`SnapView`] — against the immutable snapshot, while a tile reads its
//! *own* routers' states directly (identical by construction).
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

use super::delivery::{deliver_slot, latch_task};
use super::pipeline::{inject_task, pipeline_task};
use super::{Fabric, NetworkCore, NodeTables, SetId};
use crate::activity::ActivityCounters;
use crate::config::NocConfig;
use crate::flit::Flit;
use crate::link::{CreditMsg, Slot};
use crate::nic::Nic;
use crate::packet::DeliveredPacket;
use crate::router::Router;
use crate::traits::{PowerMechanism, PowerView};
use crate::types::{Cycle, NodeId, PacketId, PowerState};
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
    /// Wheel sends, in send order: flits and credits as `(link, arrival,
    /// payload)`, ejections as `(node, (arrival, flit))`, merged like
    /// `wakes`.
    flit_sends: Vec<(u32, Cycle, Flit)>,
    credit_sends: Vec<(u32, Cycle, CreditMsg)>,
    eject_sends: Vec<(NodeId, (Cycle, Flit))>,
    removes: Vec<(SetId, u32)>,
    inserts: Vec<(SetId, u32)>,
}

impl Delta {
    /// A delta sized for a tile owning at most `owned` nodes. Deltas are
    /// drained after every phase, so the needed capacity is one phase's
    /// worst burst, which is bandwidth-bounded (per owned node and cycle:
    /// ~1 ejected packet, one flit and one credit per outgoing link, one
    /// ejection, a handful of set transitions) — not resident-state-bounded.
    /// Reserving past any realistic single-cycle burst keeps the
    /// steady-state loop allocation-free (enforced by the
    /// `alloc_regression` test); an extreme burst beyond the reserve still
    /// works, it just grows the arena once and keeps the new high-water
    /// mark.
    fn for_tile(owned: usize) -> Delta {
        let mut d = Delta::default();
        d.delivered.reserve(owned * 4);
        d.wakes.reserve(owned * 4);
        d.ring_enq.reserve(owned * 2);
        d.flit_sends.reserve(owned * 4);
        d.credit_sends.reserve(owned * 4);
        d.eject_sends.reserve(owned);
        d.removes.reserve(owned * 10);
        d.inserts.reserve(owned * 10);
        d
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

/// Replay the per-tile deltas into the core. Counters, statistics, set
/// marks and delivered records commute across tiles; flit and credit sends
/// are single-tile per link; the three order-sensitive streams — wakeup
/// requests, ring enqueues and ejections — are merged back into ascending
/// origin order, which is the sequential kernel's order.
fn apply_deltas(core: &mut NetworkCore, deltas: &mut [Delta], cursors: &mut Vec<usize>) {
    for t in deltas.iter() {
        for &(s, idx) in &t.removes {
            core.sched.set(s).remove(idx as usize);
        }
    }
    for t in deltas.iter() {
        for &(s, idx) in &t.inserts {
            core.sched.set(s).insert(idx as usize);
        }
    }
    for d in deltas.iter_mut() {
        d.removes.clear();
        d.inserts.clear();
        core.activity.accumulate(&d.act);
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
        for (e, t, f) in d.flit_sends.drain(..) {
            core.wheel.send_flit(e as usize, t, f);
        }
        for (e, t, c) in d.credit_sends.drain(..) {
            core.wheel.send_credit(e as usize, t, c);
        }
    }
    merge_ordered(
        deltas,
        cursors,
        |d| &mut d.eject_sends,
        |node, (t, f)| core.wheel.send_eject(node, t, f),
    );
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
    tables: &'a NodeTables,
    view: SnapView<'a>,
    /// The mechanism, for the injection-gate and routing hooks; `None` in
    /// the latch/delivery phases, which never consult it.
    mech: Option<&'a dyn PowerMechanism>,
    has_ring: bool,
    nodes: usize,
    routers: *mut Router,
    nics: *mut Nic,
    link_util: *mut u64,
    ring_stage: *mut Vec<(PacketId, Vec<Flit>)>,
}

unsafe impl Send for Shared<'_> {}
unsafe impl Sync for Shared<'_> {}

/// One tile's execution context for one phase: the phase bodies run on it
/// as a [`Fabric`] that reaches only this tile's elements and buffers
/// every other effect into the tile-private delta.
struct Lane<'a> {
    sh: &'a Shared<'a>,
    d: &'a mut Delta,
}

// The element accessors below share one safety argument: each asserts its
// index lies inside the array `make_shared` took the pointer of; the phase
// bodies pass only indices of elements the running tile owns in this
// phase (module docs); and the returned borrow is tied to `&mut self`, so
// one lane never holds two borrows of one element.
impl<'a> Fabric for Lane<'a> {
    type View = SnapView<'a>;

    #[inline]
    fn now(&self) -> Cycle {
        self.sh.now
    }

    #[inline]
    fn cfg(&self) -> &NocConfig {
        self.sh.cfg
    }

    #[inline]
    fn tables(&self) -> &NodeTables {
        self.sh.tables
    }

    #[inline]
    fn has_ring(&self) -> bool {
        self.sh.has_ring
    }

    #[inline]
    fn view(&self) -> &SnapView<'a> {
        &self.sh.view
    }

    #[inline]
    fn router(&mut self, i: usize) -> &mut Router {
        assert!(i < self.sh.nodes);
        // SAFETY: an in-bounds, tile-owned element (see above).
        unsafe { &mut *self.sh.routers.add(i) }
    }

    #[inline]
    fn nic(&mut self, n: usize) -> &mut Nic {
        assert!(n < self.sh.nodes);
        // SAFETY: an in-bounds, tile-owned element (see above).
        unsafe { &mut *self.sh.nics.add(n) }
    }

    #[inline]
    fn link_util(&mut self, e: usize) -> &mut u64 {
        assert!(e < self.sh.nodes * 4);
        // SAFETY: an in-bounds, tile-owned element (see above).
        unsafe { &mut *self.sh.link_util.add(e) }
    }

    #[inline]
    fn ring_stage(&mut self, n: usize) -> &mut Vec<(PacketId, Vec<Flit>)> {
        assert!(n < self.sh.nodes);
        // SAFETY: an in-bounds, tile-owned element (see above).
        unsafe { &mut *self.sh.ring_stage.add(n) }
    }

    #[inline]
    fn act(&mut self) -> &mut ActivityCounters {
        &mut self.d.act
    }

    #[inline]
    fn mark(&mut self, set: SetId, idx: usize) {
        self.d.inserts.push((set, idx as u32));
    }

    #[inline]
    fn unmark(&mut self, set: SetId, idx: usize) {
        self.d.removes.push((set, idx as u32));
    }

    #[inline]
    fn progress(&mut self) {
        self.d.progressed = true;
    }

    #[inline]
    fn wakeup(&mut self, origin: NodeId, sleeper: NodeId) {
        self.d.wakes.push((origin, sleeper));
    }

    #[inline]
    fn ring_enqueue(&mut self, node: NodeId, flit: Flit) {
        self.d.ring_enq.push((node, flit));
    }

    #[inline]
    fn send_flit(&mut self, e: usize, arrival: Cycle, f: Flit) {
        self.d.flit_sends.push((e as u32, arrival, f));
    }

    #[inline]
    fn send_credit(&mut self, e: usize, arrival: Cycle, c: CreditMsg) {
        self.d.credit_sends.push((e as u32, arrival, c));
    }

    #[inline]
    fn send_eject(&mut self, node: NodeId, arrival: Cycle, f: Flit) {
        self.d.eject_sends.push((node, (arrival, f)));
    }

    #[inline]
    fn delivered(&mut self, done: DeliveredPacket) {
        self.d.in_flight_dec += 1;
        self.d.delivered.push(done);
    }

    #[inline]
    fn escape_diversion(&mut self) {
        self.d.escape_diversions += 1;
    }

    #[inline]
    fn stalled_injection(&mut self) {
        self.d.stalled += 1;
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

#[derive(Clone, Copy, Debug)]
enum PhaseKind<'a> {
    /// Latch forwarding, NIC injection or the router pipelines, over the
    /// tasks marked in the set.
    Marked(SetId),
    /// Delivery of the cycle's wheel slot, taken out of the wheel.
    Deliver(&'a Slot),
}

/// The driver-side job context one phase hands to all tiles.
struct JobCtx<'a> {
    sh: Shared<'a>,
    kind: PhaseKind<'a>,
    plan: &'a TilePlan,
    /// Node-indexed tasks (ascending; empty for `Deliver`). Every tile
    /// walks the whole snapshot and runs the entries it owns, preserving
    /// ascending order per tile.
    tasks: &'a [u32],
    deltas: *mut Delta,
}

unsafe fn run_tile(ctx: *const (), tile: usize) {
    let j = &*(ctx as *const JobCtx);
    let d = &mut *j.deltas.add(tile);
    let lane = &mut Lane { sh: &j.sh, d };
    let owned = |n: u32| j.plan.tile_of(n) == tile;
    match j.kind {
        PhaseKind::Marked(SetId::Latch) => {
            for &i in j.tasks.iter().filter(|&&i| owned(i)) {
                latch_task(lane, i as usize);
            }
        }
        PhaseKind::Deliver(slot) => deliver_slot(lane, slot, |n| owned(n as u32)),
        PhaseKind::Marked(SetId::Inject) => {
            let mech = j.sh.mech.expect("injection phase requires the mechanism");
            for &n in j.tasks.iter().filter(|&&n| owned(n)) {
                inject_task(lane, mech, n as NodeId);
            }
        }
        PhaseKind::Marked(SetId::Work) => {
            let mech = j.sh.mech.expect("pipeline phase requires the mechanism");
            for &n in j.tasks.iter().filter(|&&n| owned(n)) {
                pipeline_task(lane, mech, n as NodeId);
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
    /// Persistent scratch for the ordered replay merges.
    cursors: Vec<usize>,
}

impl ParState {
    fn new(core: &NetworkCore, tiles: usize, grid: Option<(u16, u16)>) -> ParState {
        let plan = TilePlan::new(core.cfg.kx(), core.cfg.ky(), tiles, grid);
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
        tables: &core.tables,
        view: SnapView { powers },
        mech,
        has_ring: core.ring.is_some(),
        nodes: core.routers.len(),
        routers: core.routers.as_mut_ptr(),
        nics: core.nics.as_mut_ptr(),
        link_util: core.link_util.as_mut_ptr(),
        ring_stage: core.ring_stage.as_mut_ptr(),
    }
}

/// Phases 2, 5 and 6, parallel: latch forwarding (no mechanism), NIC
/// injection or the router pipelines, over the tasks marked in `set`.
pub(super) fn marked_phase(
    core: &mut NetworkCore,
    mech: Option<&dyn PowerMechanism>,
    set: SetId,
    tiles: usize,
    grid: Option<(u16, u16)>,
) {
    let mut st = take_state(core, tiles, grid);
    core.sched.set(set).collect_into(&mut st.tasks);
    run_phase(core, mech, st, PhaseKind::Marked(set));
}

/// Phase 3, parallel: delivery of the cycle's wheel slot. Link entries
/// partition by *receiver*, ejections by node.
pub(super) fn delivery_phase(core: &mut NetworkCore, tiles: usize, grid: Option<(u16, u16)>) {
    let mut st = take_state(core, tiles, grid);
    st.tasks.clear();
    let now = core.cycle;
    let slot = core.wheel.take(now);
    run_phase(core, None, st, PhaseKind::Deliver(&slot));
    core.wheel.retire(now, slot);
}

/// Fork-join one phase over its prepared task snapshot (`st.tasks`, or
/// the slot for `Deliver`) unless it has nothing to do, replay the deltas,
/// and put the state back into the core. The replay is timed into the
/// `exchange` bucket when phase timing is enabled.
fn run_phase(
    core: &mut NetworkCore,
    mech: Option<&dyn PowerMechanism>,
    mut st: Box<ParState>,
    kind: PhaseKind,
) {
    let idle = match kind {
        PhaseKind::Marked(_) => st.tasks.is_empty(),
        PhaseKind::Deliver(slot) => slot.is_empty(),
    };
    if !idle {
        snapshot_powers(core, &mut st.powers);
        {
            let deltas = st.deltas.as_mut_ptr();
            let ctx = JobCtx {
                sh: make_shared(core, mech, &st.powers),
                kind,
                plan: &st.plan,
                tasks: &st.tasks,
                deltas,
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
