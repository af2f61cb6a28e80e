//! Kernel-throughput measurement behind `flov bench-kernel`.
//!
//! Times raw `Simulation::run` throughput (cycles/sec and flit-events/sec)
//! for idle, mid-load and saturated 8×8 configurations, per mechanism, for
//! both the active-set and the reference kernel, and verifies along the way
//! that the two kernels stay bit-identical on every measured pair. A second
//! matrix times the sharded parallel kernel on larger meshes (16×16, 32×32,
//! 64×64) at 2 and 4 tiles (planner-chosen 2-D geometries) against the
//! sequential active-set baseline, asserting bit-identity and recording
//! per-lane speedup and scaling efficiency. Every row also carries a
//! per-phase wall-time breakdown (latch / delivery / inject / pipeline /
//! mechanism / exchange-replay), also divided by the row's flit-hops, so
//! serial-fraction regressions show up in the perf trajectory in the unit
//! perfbench reports. The report is written to `BENCH_kernel.json`.
//!
//! Every lane is a [`RunSpec`] built into its simulation by
//! [`crate::try_simulation`], as every `flov` run is.

use crate::{KernelMode, RunSpec, RunSpecBuilder};
use flov_noc::network::{PhaseNanos, Simulation};
use flov_noc::TopologySpec;
use serde::Serialize;
use std::time::Instant;

/// Mechanisms measured (the paper's main matrix; PowerPunch shares the
/// rFLOV datapath and adds nothing kernel-wise).
pub const MECHANISMS: [&str; 5] = ["Baseline", "RP", "rFLOV", "gFLOV", "NoRD"];

/// Topology lanes: the seed 8×8 mesh matrix plus a concentrated-mesh lane
/// (64 cores on 16 routers) exercising the kernels on a fabric where core
/// space and router space differ.
pub const LANES: [(&str, TopologySpec); 2] =
    [("mesh8x8", TopologySpec::Mesh { k: 8 }), ("cmesh64", TopologySpec::CMesh { k: 4, c: 4 })];

/// Parallel-scaling lanes: larger meshes where per-cycle work dwarfs the
/// barrier cost, timed with the sharded kernel at each tile count.
pub const PARALLEL_LANES: [(&str, TopologySpec); 3] = [
    ("mesh16x16", TopologySpec::Mesh { k: 16 }),
    ("mesh32x32", TopologySpec::Mesh { k: 32 }),
    ("mesh64x64", TopologySpec::Mesh { k: 64 }),
];

/// Mechanisms timed in the parallel matrix (a subset: Baseline bounds the
/// raw datapath, rFLOV adds the FLOV latch/chain machinery).
pub const PARALLEL_MECHANISMS: [&str; 2] = ["Baseline", "rFLOV"];

/// Tile counts timed in the parallel matrix.
pub const PARALLEL_TILES: [usize; 2] = [2, 4];

/// `(name, injection rate flits/cycle/node, gated core fraction)`.
///
/// `lowload` is the time-skip showcase: only ~5% of cores inject, so the
/// fabric drains between packets and the active kernel jumps the clock
/// across the quiescent gaps (`cycles_skipped` in the report).
pub const LOADS: [(&str, f64, f64); 4] =
    [("idle", 0.0, 0.5), ("lowload", 0.02, 0.95), ("midload", 0.02, 0.3), ("saturated", 0.30, 0.0)];

/// Bursty lane: a two-phase MMPP alternating silence with a mid-load
/// burst (random geometric dwells, mean [`BURSTY_MEAN_DWELL`]). The quiet
/// phases are where the active kernel's time-skip must keep paying off
/// even though the *workload horizon* — the sampled phase-switch cycle —
/// now bounds each jump, not just the injector gaps.
pub const BURSTY_RATES: [f64; 2] = [0.0, 0.10];
pub const BURSTY_MEAN_DWELL: u64 = 3_000;
/// Mechanisms timed in the bursty matrix (Baseline bounds the datapath;
/// gFLOV adds handshake traffic that must not break quiet-phase skips).
pub const BURSTY_MECHANISMS: [&str; 2] = ["Baseline", "gFLOV"];

/// One timed measurement.
#[derive(Clone, Debug, Serialize)]
pub struct BenchRow {
    pub lane: String,
    pub mechanism: String,
    pub load: String,
    pub kernel: String,
    /// Worker-thread count (tile count for the parallel kernel; 1 for the
    /// sequential kernels).
    pub threads: usize,
    /// Effective tile geometry `RxC` the planner chose for this lane's
    /// grid (parallel rows only) — may cover fewer tiles than `threads`
    /// requested when the grid cannot host them.
    pub tile_geometry: Option<String>,
    pub cycles: u64,
    /// Cycles the kernel jumped over without stepping (always 0 for the
    /// reference kernel, which never jumps).
    pub cycles_skipped: u64,
    pub seconds: f64,
    pub cycles_per_sec: f64,
    pub flit_events_per_sec: f64,
    /// Per-phase wall time (nanoseconds) over the timed window: latch /
    /// delivery / inject / pipeline / mechanism, plus the boundary-exchange
    /// replay sub-bucket on parallel rows. Timing is observational only —
    /// it never enters the equivalence digests.
    pub phases: PhaseNanos,
    /// Flit-hops over the timed window (`activity.link_flits`).
    pub flit_hops: u64,
    /// Wall time and `phases` per flit-hop: the unit of the ROADMAP's
    /// stage breakdown and of perfbench's `network.*_ns_per_flit_hop`.
    pub ns_per_flit_hop: NsPerFlitHop,
}

/// A row's wall time and per-phase times divided by its flit-hops, in
/// nanoseconds (over one flit-hop when no flit moved).
#[derive(Clone, Debug, Serialize)]
pub struct NsPerFlitHop {
    pub total: f64,
    pub latch: f64,
    pub delivery: f64,
    pub inject: f64,
    pub pipeline: f64,
    pub mechanism: f64,
    pub exchange: f64,
}

impl NsPerFlitHop {
    fn new(seconds: f64, p: &PhaseNanos, flit_hops: u64) -> NsPerFlitHop {
        let per = |ns: f64| ns / flit_hops.max(1) as f64;
        NsPerFlitHop {
            total: per(seconds * 1e9),
            latch: per(p.latch as f64),
            delivery: per(p.delivery as f64),
            inject: per(p.inject as f64),
            pipeline: per(p.pipeline as f64),
            mechanism: per(p.mechanism as f64),
            exchange: per(p.exchange as f64),
        }
    }
}

/// Active-vs-reference summary for one `(mechanism, load)` cell.
#[derive(Clone, Debug, Serialize)]
pub struct SpeedupRow {
    pub lane: String,
    pub mechanism: String,
    pub load: String,
    pub active_cps: f64,
    pub reference_cps: f64,
    pub speedup: f64,
}

/// Parallel-vs-sequential summary for one `(lane, mechanism, load, tiles)`
/// cell. `efficiency` is `speedup / threads` (1.0 = perfect scaling).
#[derive(Clone, Debug, Serialize)]
pub struct ParallelRow {
    pub lane: String,
    pub mechanism: String,
    pub load: String,
    pub threads: usize,
    /// Effective `RxC` geometry the seam-minimizing planner chose for
    /// `threads` tiles on this lane's grid.
    pub tile_geometry: String,
    pub base_cps: f64,
    pub parallel_cps: f64,
    pub speedup: f64,
    pub efficiency: f64,
}

/// The full `BENCH_kernel.json` payload.
#[derive(Clone, Debug, Serialize)]
pub struct BenchReport {
    pub mesh: String,
    pub quick: bool,
    /// Host hardware parallelism at measurement time. Parallel speedups in
    /// this report are only meaningful when this is >= the row's `threads`
    /// (the kernel stays bit-identical regardless; it just runs surplus
    /// tiles inline).
    pub host_threads: usize,
    pub rows: Vec<BenchRow>,
    pub speedups: Vec<SpeedupRow>,
    pub parallel: Vec<ParallelRow>,
}

/// The run a lane times: uniform random traffic at seed 42 on `topology`,
/// `warmup + cycles` cycles long. The spec's warmup only has to leave a measurement window:
/// [`measure_sim`] runs the warmup itself.
fn lane_spec(
    topology: TopologySpec,
    mech_name: &str,
    rate: f64,
    gated_fraction: f64,
    warmup: u64,
    cycles: u64,
) -> RunSpecBuilder {
    RunSpec::builder()
        .mechanism(mech_name)
        .topology(topology)
        .rate(rate)
        .gated_fraction(gated_fraction)
        .seed(42)
        .warmup(warmup)
        .cycles(warmup + cycles)
}

/// Time `cycles` simulated cycles after `warmup`; returns the row plus a
/// digest of the end state (activity + stats) for equivalence checking.
fn measure_one(
    lane: &str,
    topology: TopologySpec,
    mech_name: &str,
    load: (&str, f64, f64),
    kernel: KernelMode,
    warmup: u64,
    cycles: u64,
) -> (BenchRow, String) {
    let (load, rate, gated_fraction) = load;
    let spec = lane_spec(topology, mech_name, rate, gated_fraction, warmup, cycles).build();
    let sim = crate::try_simulation(&spec).expect("bench-kernel lanes are valid specs");
    measure_sim(lane, mech_name, load, kernel, warmup, cycles, sim)
}

fn measure_sim(
    lane: &str,
    mech_name: &str,
    load: &str,
    kernel: KernelMode,
    warmup: u64,
    cycles: u64,
    mut sim: Simulation,
) -> (BenchRow, String) {
    sim.core.kernel = kernel;
    sim.run(warmup);
    let act0 = sim.core.activity.clone();
    let skipped0 = sim.core.cycles_skipped;
    // Phase accumulators cover exactly the timed window.
    sim.core.phase_nanos = Some(Box::default());
    let t0 = Instant::now();
    sim.run(cycles);
    let seconds = t0.elapsed().as_secs_f64();
    let phases = *sim.core.phase_nanos.take().expect("phase timing enabled above");
    let cycles_skipped = sim.core.cycles_skipped - skipped0;
    let d = sim.core.activity.delta_since(&act0);
    let flit_events = d.buffer_writes
        + d.buffer_reads
        + d.link_flits
        + d.flov_latch_flits
        + d.ring_flits
        + d.flits_injected
        + d.flits_delivered;
    let residency = sim.core.residency().to_vec();
    let digest = serde_json::to_string(&(&sim.core.activity, &sim.core.stats, &residency))
        .expect("digest serialization");
    let row = BenchRow {
        lane: lane.to_string(),
        mechanism: mech_name.to_string(),
        load: load.to_string(),
        kernel: match kernel {
            KernelMode::ActiveSet => "active".to_string(),
            KernelMode::Reference => "reference".to_string(),
            KernelMode::Parallel { tiles, .. } => format!("parallel{tiles}"),
        },
        threads: match kernel {
            KernelMode::Parallel { tiles, .. } => tiles,
            _ => 1,
        },
        tile_geometry: kernel
            .planned_grid(sim.core.cfg.kx(), sim.core.cfg.ky())
            .map(|(r, c)| format!("{r}x{c}")),
        cycles,
        cycles_skipped,
        seconds,
        cycles_per_sec: cycles as f64 / seconds.max(1e-9),
        flit_events_per_sec: flit_events as f64 / seconds.max(1e-9),
        ns_per_flit_hop: NsPerFlitHop::new(seconds, &phases, d.link_flits),
        flit_hops: d.link_flits,
        phases,
    };
    (row, digest)
}

/// Run the full measurement matrix. Panics if any active/reference pair
/// diverges (the cheap always-on equivalence check), or, when `min_cps` is
/// set, if any active-kernel row falls below the cycles/sec floor, or,
/// when `min_skip` is set, if any `lowload` active-kernel row skips less
/// than that fraction of its timed cycles, or, when
/// `min_parallel_speedup` is set, if the saturated 2-tile mesh32x32 lane
/// falls below that speedup over the sequential active-set kernel. Every
/// parallel row is also checked bit-identical against its sequential
/// baseline.
pub fn run_bench(
    quick: bool,
    min_cps: Option<f64>,
    min_skip: Option<f64>,
    min_parallel_speedup: Option<f64>,
) -> BenchReport {
    let warmup = 2_000u64;
    let base = if quick { 20_000u64 } else { 200_000u64 };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (lane, topology) in LANES {
        for mech in MECHANISMS {
            for (load, rate, gated) in LOADS {
                // Idle runs are cheap; stretch them so the timer has signal.
                let cycles = if rate == 0.0 { base * 5 } else { base };
                let cell = (load, rate, gated);
                let (act, act_digest) =
                    measure_one(lane, topology, mech, cell, KernelMode::ActiveSet, warmup, cycles);
                let (reference, ref_digest) =
                    measure_one(lane, topology, mech, cell, KernelMode::Reference, warmup, cycles);
                assert_eq!(
                    act_digest, ref_digest,
                    "kernel divergence: {lane}/{mech}/{load} active vs reference end states differ"
                );
                eprintln!(
                    "[flov] bench-kernel {lane:>7} {mech:>8} {load:>9}: active {:>12.0} cyc/s, \
                     reference {:>12.0} cyc/s ({:.2}x), {:.0}% skipped",
                    act.cycles_per_sec,
                    reference.cycles_per_sec,
                    act.cycles_per_sec / reference.cycles_per_sec,
                    100.0 * act.cycles_skipped as f64 / act.cycles as f64,
                );
                speedups.push(SpeedupRow {
                    lane: lane.to_string(),
                    mechanism: mech.to_string(),
                    load: load.to_string(),
                    active_cps: act.cycles_per_sec,
                    reference_cps: reference.cycles_per_sec,
                    speedup: act.cycles_per_sec / reference.cycles_per_sec,
                });
                rows.push(act);
                rows.push(reference);
            }
        }
    }
    // Bursty matrix: the MMPP schedule on the seed 8×8 mesh, all three
    // kernels digest-checked against each other. The active kernel must
    // still skip cycles inside the quiet phases (asserted below) — the
    // phase-switch horizon bounds each jump but must not kill skipping.
    for mech in BURSTY_MECHANISMS {
        let cycles = base;
        // The MMPP schedule replaces the uniform rate.
        let spec = lane_spec(TopologySpec::Mesh { k: 8 }, mech, 0.0, 0.5, warmup, cycles)
            .mmpp(BURSTY_RATES.to_vec(), BURSTY_MEAN_DWELL)
            .build();
        let bursty = |kernel| {
            let sim = crate::try_simulation(&spec).expect("bench-kernel lanes are valid specs");
            measure_sim("mesh8x8", mech, "bursty", kernel, warmup, cycles, sim)
        };
        let (act, act_digest) = bursty(KernelMode::ActiveSet);
        let (reference, ref_digest) = bursty(KernelMode::Reference);
        let (par, par_digest) = bursty(KernelMode::Parallel { tiles: 2, grid: None });
        assert_eq!(
            act_digest, ref_digest,
            "kernel divergence: mesh8x8/{mech}/bursty active vs reference end states differ"
        );
        assert_eq!(
            act_digest, par_digest,
            "kernel divergence: mesh8x8/{mech}/bursty active vs parallel(2) end states differ"
        );
        assert!(
            act.cycles_skipped > 0,
            "time-skip regression: {mech}/bursty active kernel skipped no cycles at all \
             (MMPP quiet phases should be skippable)"
        );
        eprintln!(
            "[flov] bench-kernel mesh8x8 {mech:>8}    bursty: active {:>12.0} cyc/s, \
             reference {:>12.0} cyc/s ({:.2}x), {:.0}% skipped",
            act.cycles_per_sec,
            reference.cycles_per_sec,
            act.cycles_per_sec / reference.cycles_per_sec,
            100.0 * act.cycles_skipped as f64 / act.cycles as f64,
        );
        speedups.push(SpeedupRow {
            lane: "mesh8x8".to_string(),
            mechanism: mech.to_string(),
            load: "bursty".to_string(),
            active_cps: act.cycles_per_sec,
            reference_cps: reference.cycles_per_sec,
            speedup: act.cycles_per_sec / reference.cycles_per_sec,
        });
        rows.push(act);
        rows.push(reference);
        rows.push(par);
    }
    // Parallel-scaling matrix: larger meshes, saturated load, 2 and 4
    // tiles against the sequential active-set baseline.
    let mut parallel = Vec::new();
    for (lane, topology) in PARALLEL_LANES {
        let cycles = match (lane, quick) {
            ("mesh64x64", true) => 500u64,
            ("mesh64x64", false) => 2_000,
            ("mesh32x32", true) => 2_000,
            ("mesh32x32", false) => 8_000,
            (_, true) => 5_000,
            (_, false) => 20_000,
        };
        let par_warmup = 500u64;
        for mech in PARALLEL_MECHANISMS {
            let cell = ("saturated", 0.30, 0.0);
            let (base, base_digest) =
                measure_one(lane, topology, mech, cell, KernelMode::ActiveSet, par_warmup, cycles);
            for tiles in PARALLEL_TILES {
                let (par, par_digest) = measure_one(
                    lane,
                    topology,
                    mech,
                    cell,
                    KernelMode::Parallel { tiles, grid: None },
                    par_warmup,
                    cycles,
                );
                assert_eq!(
                    base_digest, par_digest,
                    "kernel divergence: {lane}/{mech} parallel({tiles}) vs active \
                     end states differ"
                );
                let geometry = par.tile_geometry.clone().unwrap_or_default();
                let speedup = par.cycles_per_sec / base.cycles_per_sec;
                eprintln!(
                    "[flov] bench-kernel {lane:>9} {mech:>8} saturated: active {:>12.0} cyc/s, \
                     parallel x{tiles} ({geometry}) {:>12.0} cyc/s ({speedup:.2}x, \
                     {:.0}% efficiency)",
                    base.cycles_per_sec,
                    par.cycles_per_sec,
                    100.0 * speedup / tiles as f64,
                );
                parallel.push(ParallelRow {
                    lane: lane.to_string(),
                    mechanism: mech.to_string(),
                    load: "saturated".to_string(),
                    threads: tiles,
                    tile_geometry: geometry,
                    base_cps: base.cycles_per_sec,
                    parallel_cps: par.cycles_per_sec,
                    speedup,
                    efficiency: speedup / tiles as f64,
                });
                rows.push(par);
            }
            rows.push(base);
        }
    }
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if let Some(floor) = min_parallel_speedup {
        if host_threads < 2 {
            eprintln!(
                "[flov] bench-kernel: host has {host_threads} hardware thread(s); \
                 skipping the --min-parallel-speedup {floor} gate (scaling is \
                 unmeasurable without spare cores)"
            );
        } else {
            for r in parallel.iter().filter(|r| r.lane == "mesh32x32" && r.threads == 2) {
                assert!(
                    r.speedup >= floor,
                    "parallel-scaling regression: {}/{} at {} tiles reached only {:.2}x \
                     over sequential < floor {floor:.2}x",
                    r.lane,
                    r.mechanism,
                    r.threads,
                    r.speedup
                );
            }
        }
    }
    // The cps/skip floors are calibrated for the seed-scale lanes; the
    // large parallel-scaling lanes are gated by relative speedup instead.
    let seq_lane = |r: &&BenchRow| LANES.iter().any(|(l, _)| r.lane == *l);
    if let Some(floor) = min_cps {
        for r in rows.iter().filter(seq_lane).filter(|r| r.kernel == "active") {
            assert!(
                r.cycles_per_sec >= floor,
                "perf floor regression: {}/{} active kernel at {:.0} cycles/sec < floor {floor:.0}",
                r.mechanism,
                r.load,
                r.cycles_per_sec
            );
        }
    }
    if let Some(floor) = min_skip {
        for r in rows
            .iter()
            .filter(seq_lane)
            .filter(|r| r.kernel == "active" && (r.load == "lowload" || r.load == "bursty"))
        {
            // The bursty lane only spends ~half its cycles in quiet MMPP
            // phases (symmetric two-phase schedule), and burst drain tails
            // eat into those; a quarter of the lowload floor is the honest
            // quiet-phase expectation.
            let lane_floor = if r.load == "bursty" { floor * 0.25 } else { floor };
            let frac = r.cycles_skipped as f64 / r.cycles as f64;
            assert!(
                frac >= lane_floor,
                "time-skip regression: {}/{} active kernel skipped {:.1}% of cycles \
                 < floor {:.1}%",
                r.mechanism,
                r.load,
                100.0 * frac,
                100.0 * lane_floor
            );
        }
    }
    BenchReport {
        mesh: "mesh8x8+cmesh64+mesh16x16+mesh32x32+mesh64x64".to_string(),
        quick,
        host_threads,
        rows,
        speedups,
        parallel,
    }
}
