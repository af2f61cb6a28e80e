//! Steady-state allocation regression test for the simulation hot loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator behind an
//! armed flag. Each scenario warms a simulation up (letting every
//! persistent arena — tile delta buffers, NIC queues, active sets, wake
//! scratch, each router's input-VC ring pool — reach its high-water mark),
//! arms the counter, runs 1,000 further cycles, and asserts the count
//! stayed at zero. Any `Vec::new`, boxed closure, or format string that
//! sneaks back into `Simulation::step` or the parallel kernel's per-cycle
//! path fails this test immediately.
//!
//! Scope: mesh topologies with the timeline disabled (`interval_width = 0`)
//! and no auditor. The NoRD ring is excluded — ring staging intentionally
//! allocates per multi-flit ring packet (`stage.push((pkt, vec![flit]))`),
//! which is a per-transfer cost, not a hot-loop regression. The counter is
//! global, so every scenario runs inside ONE `#[test]` — concurrent tests
//! in this binary would bleed counts into each other.

use flov_bench::KernelMode;
use flov_core::mechanism;
use flov_noc::network::Simulation;
use flov_noc::NocConfig;
use flov_workloads::{GatingSchedule, Pattern, PatternSpace, SyntheticWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// One-shot: the first armed allocation prints its backtrace, so a
/// regression report names the offender instead of just a count.
static TRACE: AtomicBool = AtomicBool::new(false);

fn count_armed() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRACE.swap(false, Ordering::Relaxed) {
            // Disarm while capturing: the backtrace itself allocates.
            ARMED.store(false, Ordering::Relaxed);
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("first steady-state allocation at:\n{bt}");
            ARMED.store(true, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_armed();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_armed();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_armed();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 3_000;
const ARMED_CYCLES: u64 = 1_000;

fn make_sim(mech_name: &str, kernel: KernelMode) -> Simulation {
    let cfg = NocConfig::default(); // 8x8 mesh, no ring
    let space = PatternSpace { kx: cfg.kx(), ky: cfg.ky(), c: cfg.concentration() };
    let gating = GatingSchedule::static_fraction(cfg.cores(), 0.3, 42, &[]);
    let workload = SyntheticWorkload::with_space(
        space,
        Pattern::UniformRandom,
        0.05,
        cfg.synth_packet_len,
        WARMUP + ARMED_CYCLES,
        gating,
        42 ^ 0xABCD,
    );
    let mech = mechanism::by_name(mech_name, &cfg)
        .unwrap_or_else(|| panic!("unknown mechanism {mech_name:?}"));
    let mut sim = Simulation::new(cfg, mech, Box::new(workload));
    sim.core.kernel = kernel;
    sim.core.stats.interval_width = 0; // timeline off: interval buckets grow forever
    sim
}

fn steady_state_allocs(mech_name: &str, kernel: KernelMode) -> u64 {
    let mut sim = make_sim(mech_name, kernel);
    sim.run(WARMUP);
    ALLOCS.store(0, Ordering::SeqCst);
    TRACE.store(true, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    sim.run(ARMED_CYCLES);
    ARMED.store(false, Ordering::SeqCst);
    TRACE.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn hot_loop_is_allocation_free_after_warmup() {
    // One test fn, scenarios in sequence: the counter is process-global.
    let kernels: [(&str, KernelMode); 4] = [
        ("active", KernelMode::ActiveSet),
        ("parallel1", KernelMode::Parallel { tiles: 1, grid: None }),
        ("parallel2x2", KernelMode::Parallel { tiles: 4, grid: Some((2, 2)) }),
        ("parallel3x2", KernelMode::Parallel { tiles: 6, grid: Some((3, 2)) }),
    ];
    // Baseline bounds the raw datapath; rFLOV/gFLOV exercise the FLOV
    // latch/chain machinery plus the handshake FSMs and their wakeup
    // buffer; RP adds Router Parking's Fabric Manager step and up*/down*
    // table routing.
    let mechanisms = ["Baseline", "rFLOV", "gFLOV", "RP"];
    let mut failures = Vec::new();
    for (kname, kernel) in kernels {
        for mech in mechanisms {
            let n = steady_state_allocs(mech, kernel);
            eprintln!("alloc check {kname:>11}/{mech:>8}: {n} steady-state allocations");
            if n != 0 {
                failures.push(format!(
                    "{kname}/{mech}: {n} allocations in {ARMED_CYCLES} steady-state cycles"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "hot loop allocated after warm-up:\n{}", failures.join("\n"));
}
