//! The active-set kernel is an *optimization*, not a model change: for
//! every mechanism × traffic pattern in this matrix, running the same spec
//! under [`KernelMode::ActiveSet`] and [`KernelMode::Reference`] must yield
//! bit-identical `RunResult`s (latency, power, residency, stall counters,
//! timeline — everything). That includes the time-domain skip: when the
//! fabric is quiescent the active kernel jumps the clock to the next
//! event horizon instead of stepping, and the low-rate rows below prove
//! the jumps are invisible in the results even when they cover most of
//! the run.
//!
//! The sharded parallel kernel ([`KernelMode::Parallel`]) joins the same
//! contract: tile-partitioned execution with deterministic boundary
//! exchange must be bit-identical to the sequential active-set kernel at
//! every tile count, on every topology, including across clock jumps.
//!
//! The kernel *mode* never enters the result cache key (both modes agree
//! bit-for-bit), but `KERNEL_VERSION` is at 4: v2 made the synthetic
//! workload draw geometric inter-arrival gaps instead of per-cycle
//! Bernoulli trials (a different RNG stream, so every v1 injection
//! timeline differs), v3 switched latency percentiles to bucket lower
//! edges and extended the `RunSpec` schema, and v4 encodes `NocConfig`
//! with one field per fabric knob and prices switched runs per interval.

use flov_bench::scheduler::{run_work_stealing, workers_for};
use flov_bench::{
    record_trace, run_kernel, tracefmt, KernelMode, RunSpec, WorkloadSpec, KERNEL_VERSION,
};
use flov_core::mechanism;
use flov_noc::network::Simulation;
use flov_noc::{NocConfig, TopologySpec};
use flov_workloads::{
    Dwell, GatingSchedule, ModulatedWorkload, Pattern, PatternSpace, SyntheticWorkload,
};

const MECHANISMS: [&str; 5] = ["Baseline", "rFLOV", "gFLOV", "RP", "NoRD"];

/// The failures `check` reports over `cells`, in cell order. The cells run
/// on the batch scheduler, within the core budget of an engine batch.
fn check_cells<T: Sync>(cells: &[T], check: impl Fn(&T) -> Option<String> + Sync) -> Vec<String> {
    let (found, _) =
        run_work_stealing(cells.len(), workers_for(cells.len()), |i, _| check(&cells[i]));
    found.into_iter().flatten().collect()
}

fn patterns() -> [(&'static str, Pattern); 3] {
    [
        ("uniform", Pattern::UniformRandom),
        ("transpose", Pattern::Transpose),
        ("hotspot", Pattern::Hotspot { hotspot: 27, p_hot_pct: 20 }),
    ]
}

fn spec(mech: &str, pattern: Pattern) -> RunSpec {
    RunSpec::builder()
        .mechanism(mech)
        .pattern(pattern)
        .rate(0.05)
        .gated_fraction(0.3)
        .seed(0xF10F)
        .warmup(1_500)
        .cycles(6_000)
        .drain(25_000)
        .build()
}

#[test]
fn active_set_kernel_matches_reference_on_the_full_matrix() {
    let cells: Vec<(&str, &str, Pattern)> = MECHANISMS
        .iter()
        .flat_map(|&m| patterns().into_iter().map(move |(pn, p)| (m, pn, p)))
        .collect();
    let failures = check_cells(&cells, |&(mech, pat_name, pattern)| {
        eprintln!("cell start: {mech}/{pat_name}");
        let s = spec(mech, pattern);
        let active = run_kernel(&s, KernelMode::ActiveSet);
        let reference = run_kernel(&s, KernelMode::Reference);
        let aj = serde_json::to_string(&active).expect("serialize active result");
        let rj = serde_json::to_string(&reference).expect("serialize reference result");
        if active.packets <= 100 {
            return Some(format!(
                "{mech}/{pat_name}: too little traffic ({} packets) for a meaningful \
                     comparison",
                active.packets
            ));
        }
        if aj != rj {
            return Some(format!("{mech}/{pat_name}: active-set and reference kernels diverged"));
        }
        None
    });
    assert!(failures.is_empty(), "kernel equivalence failures:\n{}", failures.join("\n"));
}

/// The equivalence contract extends to every topology the selector can
/// produce: torus (wraparound datapath + wrap-minimal routing on regular
/// VCs) and concentrated mesh (core space ≠ router space) must also be
/// bit-identical between kernels for every mechanism that supports them.
/// PowerPunch is structurally excluded on the torus (it requires
/// `escape_vcs == 0`, the torus requires an escape VC), which `validate()`
/// rejects — so the matrix below covers the other five.
#[test]
fn topology_rows_stay_bit_identical_between_kernels() {
    let topologies =
        [("torus8", TopologySpec::Torus { k: 8 }), ("cmesh64", TopologySpec::CMesh { k: 4, c: 4 })];
    let cells: Vec<(&str, TopologySpec, &str, &str, Pattern)> = topologies
        .iter()
        .flat_map(|&(tn, t)| {
            MECHANISMS.iter().flat_map(move |&m| {
                [("uniform", Pattern::UniformRandom), ("transpose", Pattern::Transpose)]
                    .into_iter()
                    .map(move |(pn, p)| (tn, t, m, pn, p))
            })
        })
        .collect();
    let failures = check_cells(&cells, |&(topo_name, topology, mech, pat_name, pattern)| {
        eprintln!("cell start: {topo_name}/{mech}/{pat_name}");
        let s = RunSpec::builder()
            .mechanism(mech)
            .topology(topology)
            .pattern(pattern)
            .rate(0.05)
            .gated_fraction(0.3)
            .seed(0xF10F)
            .warmup(1_500)
            .cycles(6_000)
            .drain(25_000)
            .build();
        let active = run_kernel(&s, KernelMode::ActiveSet);
        let reference = run_kernel(&s, KernelMode::Reference);
        let aj = serde_json::to_string(&active).expect("serialize active result");
        let rj = serde_json::to_string(&reference).expect("serialize reference result");
        if active.packets <= 100 {
            return Some(format!(
                "{topo_name}/{mech}/{pat_name}: too little traffic ({} packets)",
                active.packets
            ));
        }
        if aj != rj {
            return Some(format!(
                "{topo_name}/{mech}/{pat_name}: active-set and reference kernels diverged"
            ));
        }
        None
    });
    assert!(failures.is_empty(), "topology equivalence failures:\n{}", failures.join("\n"));
}

/// The sharded parallel kernel is held to the same contract as the
/// active-set kernel: for every mechanism × pattern × tile count, the
/// tile-partitioned simulation with boundary exchange must produce a
/// `RunResult` bit-identical to the sequential active-set kernel. Tile
/// counts 2 and 4 exercise both the single-boundary and multi-boundary
/// partitions of the 8×8 grid.
#[test]
fn parallel_kernel_matches_active_set_on_the_full_matrix() {
    let cells: Vec<(&str, &str, Pattern, usize)> = MECHANISMS
        .iter()
        .flat_map(|&m| {
            patterns()
                .into_iter()
                .flat_map(move |(pn, p)| [2usize, 4].into_iter().map(move |t| (m, pn, p, t)))
        })
        .collect();
    let failures = check_cells(&cells, |&(mech, pat_name, pattern, tiles)| {
        eprintln!("cell start: {mech}/{pat_name}/tiles={tiles}");
        let s = spec(mech, pattern);
        let active = run_kernel(&s, KernelMode::ActiveSet);
        let parallel = run_kernel(&s, KernelMode::Parallel { tiles, grid: None });
        let aj = serde_json::to_string(&active).expect("serialize active result");
        let pj = serde_json::to_string(&parallel).expect("serialize parallel result");
        if active.packets <= 100 {
            return Some(format!(
                "{mech}/{pat_name}/tiles={tiles}: too little traffic ({} packets)",
                active.packets
            ));
        }
        if aj != pj {
            return Some(format!(
                "{mech}/{pat_name}/tiles={tiles}: parallel and active-set kernels diverged"
            ));
        }
        None
    });
    assert!(failures.is_empty(), "parallel equivalence failures:\n{}", failures.join("\n"));
}

/// Parallel bit-identity on the non-mesh fabrics: the torus wraparound
/// datapath and the concentrated mesh must shard cleanly too (cross-tile
/// wrap links are just more boundary links).
#[test]
fn parallel_kernel_matches_active_set_on_other_topologies() {
    let topologies =
        [("torus8", TopologySpec::Torus { k: 8 }), ("cmesh64", TopologySpec::CMesh { k: 4, c: 4 })];
    let cells: Vec<(&str, TopologySpec, &str, usize)> = topologies
        .iter()
        .flat_map(|&(tn, t)| {
            MECHANISMS
                .iter()
                .flat_map(move |&m| [2usize, 4].into_iter().map(move |k| (tn, t, m, k)))
        })
        .collect();
    let failures = check_cells(&cells, |&(topo_name, topology, mech, tiles)| {
        eprintln!("cell start: {topo_name}/{mech}/tiles={tiles}");
        let s = RunSpec::builder()
            .mechanism(mech)
            .topology(topology)
            .pattern(Pattern::UniformRandom)
            .rate(0.05)
            .gated_fraction(0.3)
            .seed(0xF10F)
            .warmup(1_500)
            .cycles(6_000)
            .drain(25_000)
            .build();
        let active = run_kernel(&s, KernelMode::ActiveSet);
        let parallel = run_kernel(&s, KernelMode::Parallel { tiles, grid: None });
        let aj = serde_json::to_string(&active).expect("serialize active result");
        let pj = serde_json::to_string(&parallel).expect("serialize parallel result");
        if active.packets <= 100 {
            return Some(format!(
                "{topo_name}/{mech}/tiles={tiles}: too little traffic ({} packets)",
                active.packets
            ));
        }
        if aj != pj {
            return Some(format!(
                "{topo_name}/{mech}/tiles={tiles}: parallel and active-set diverged"
            ));
        }
        None
    });
    assert!(failures.is_empty(), "parallel topology failures:\n{}", failures.join("\n"));
}

/// Explicit 2-D tile geometries: row stripes (1×4), a square plan (2×2),
/// a tall plan (4×2), and a 3×3 plan that divides nothing evenly — all on
/// the 8×8 mesh, plus the 3×3 plan on an odd-radix rectangular mesh
/// (kx=5, ky=7) where every seam is ragged. Every plan must stay
/// bit-identical to the sequential active-set kernel (NoRD skips the rect
/// lane: an odd×odd mesh has no Hamiltonian ring).
#[test]
fn parallel_kernel_matches_active_set_on_2d_tile_geometries() {
    let geometries: [(u16, u16); 4] = [(1, 4), (2, 2), (4, 2), (3, 3)];
    let rect = TopologySpec::RectMesh { kx: 5, ky: 7 };
    let mut cells: Vec<(&str, Option<TopologySpec>, (u16, u16))> = Vec::new();
    for &m in MECHANISMS.iter() {
        for &g in geometries.iter() {
            cells.push((m, None, g));
        }
        if m != "NoRD" {
            cells.push((m, Some(rect), (3, 3)));
        }
    }
    let failures = check_cells(&cells, |&(mech, topology, (rows, cols))| {
        let lane = if topology.is_some() { "rect5x7" } else { "mesh8x8" };
        eprintln!("cell start: {lane}/{mech}/grid={rows}x{cols}");
        let mut b = RunSpec::builder()
            .mechanism(mech)
            .pattern(Pattern::UniformRandom)
            .rate(0.05)
            .gated_fraction(0.3)
            .seed(0xF10F)
            .warmup(1_500)
            .cycles(6_000)
            .drain(25_000);
        if let Some(t) = topology {
            b = b.topology(t);
        }
        let s = b.build();
        let kernel =
            KernelMode::Parallel { tiles: rows as usize * cols as usize, grid: Some((rows, cols)) };
        let active = run_kernel(&s, KernelMode::ActiveSet);
        let parallel = run_kernel(&s, kernel);
        let aj = serde_json::to_string(&active).expect("serialize active result");
        let pj = serde_json::to_string(&parallel).expect("serialize parallel result");
        if active.packets <= 100 {
            return Some(format!(
                "{lane}/{mech}/grid={rows}x{cols}: too little traffic ({} packets)",
                active.packets
            ));
        }
        if aj != pj {
            return Some(format!(
                "{lane}/{mech}/grid={rows}x{cols}: parallel and active-set diverged"
            ));
        }
        None
    });
    assert!(failures.is_empty(), "2-D geometry failures:\n{}", failures.join("\n"));
}

/// One end-state digest plus the skip counter for the low-rate rows, which
/// need `cycles_skipped` — deliberately *not* part of `RunResult` (it
/// would break the bit-identity the matrix above asserts).
fn run_low_rate(mech_name: &str, kernel: KernelMode) -> (String, u64, u64) {
    let mut cfg = NocConfig::default();
    if mech_name == "NoRD" {
        cfg.enable_ring = true;
    }
    let cycles = 60_000u64;
    let gating = GatingSchedule::static_fraction(cfg.nodes(), 0.3, 0xF10F, &[]);
    let workload = SyntheticWorkload::new(
        cfg.kx(),
        Pattern::UniformRandom,
        0.001,
        cfg.synth_packet_len,
        cycles,
        gating,
        0xF10F ^ 0xABCD,
    );
    let mech = mechanism::by_name(mech_name, &cfg).expect("known mechanism");
    let mut sim = Simulation::new(cfg, mech, Box::new(workload));
    sim.core.kernel = kernel;
    sim.run(cycles);
    sim.drain(25_000);
    let residency = sim.core.residency().to_vec();
    let digest = serde_json::to_string(&(&sim.core.activity, &sim.core.stats, &residency))
        .expect("digest serialization");
    (digest, sim.core.cycles_skipped, cycles)
}

/// At 0.001 flits/cycle/node the 8×8 fabric drains between packets, so
/// the active kernel should spend most of the run jumping — and still
/// land on a bit-identical end state.
#[test]
fn low_rate_rows_skip_most_cycles_and_stay_bit_identical() {
    let failures = check_cells(&MECHANISMS, |&mech| {
        let (active, skipped, cycles) = run_low_rate(mech, KernelMode::ActiveSet);
        let (reference, ref_skipped, _) = run_low_rate(mech, KernelMode::Reference);
        let (parallel, par_skipped, _) =
            run_low_rate(mech, KernelMode::Parallel { tiles: 4, grid: None });
        if active != reference {
            return Some(format!("{mech}: low-rate active vs reference end states differ"));
        }
        if ref_skipped != 0 {
            return Some(format!("{mech}: reference kernel skipped {ref_skipped} cycles"));
        }
        if parallel != active {
            return Some(format!("{mech}: low-rate parallel vs active end states differ"));
        }
        if par_skipped != skipped {
            return Some(format!(
                "{mech}: parallel kernel skipped {par_skipped} cycles, active {skipped} \
                     (jump horizons must agree)"
            ));
        }
        let frac = skipped as f64 / cycles as f64;
        if frac <= 0.5 {
            return Some(format!(
                "{mech}: only {:.1}% of cycles skipped at rate 0.001 (want >50%)",
                100.0 * frac
            ));
        }
        None
    });
    assert!(failures.is_empty(), "low-rate skip failures:\n{}", failures.join("\n"));
}

/// MMPP and diurnal modulated workloads join the bit-identity matrix:
/// phase switches re-seed the injection rate mid-run through
/// `SyntheticWorkload::set_rate`, and the modulator's own RNG draws the
/// next dwell *at the switch cycle* — so the contract only holds if every
/// kernel lands `update_cores` on exactly the same cycles. Any horizon
/// bug (a kernel skipping past a phase switch) desynchronizes the dwell
/// RNG stream and shows up here as a divergence.
#[test]
fn modulated_rows_stay_bit_identical_across_all_kernels() {
    let cells: Vec<(&str, &str)> =
        MECHANISMS.iter().flat_map(|&m| [("mmpp", m), ("diurnal", m)]).collect();
    let failures = check_cells(&cells, |&(kind, mech)| {
        eprintln!("cell start: {kind}/{mech}");
        let b = RunSpec::builder()
            .mechanism(mech)
            .pattern(Pattern::UniformRandom)
            .gated_fraction(0.3)
            .seed(0xF10F)
            .warmup(1_500)
            .cycles(9_000)
            .drain(25_000);
        let s = match kind {
            "mmpp" => b.mmpp(vec![0.002, 0.15], 1_500),
            _ => b.diurnal(vec![0.002, 0.15], 1_500),
        }
        .build();
        let active = run_kernel(&s, KernelMode::ActiveSet);
        let reference = run_kernel(&s, KernelMode::Reference);
        let parallel = run_kernel(&s, KernelMode::Parallel { tiles: 4, grid: None });
        let aj = serde_json::to_string(&active).expect("serialize active result");
        let rj = serde_json::to_string(&reference).expect("serialize reference result");
        let pj = serde_json::to_string(&parallel).expect("serialize parallel result");
        if active.packets <= 100 {
            return Some(format!("{kind}/{mech}: too little traffic ({} packets)", active.packets));
        }
        if aj != rj {
            return Some(format!("{kind}/{mech}: active-set and reference diverged"));
        }
        if aj != pj {
            return Some(format!("{kind}/{mech}: parallel and active-set diverged"));
        }
        None
    });
    assert!(failures.is_empty(), "modulated equivalence failures:\n{}", failures.join("\n"));
}

/// Like [`run_low_rate`], but under a bursty MMPP schedule whose quiet
/// phases are totally silent. The active kernel must still skip cycles
/// inside those phases — the workload horizon (the next sampled phase
/// switch) bounds each jump without forbidding it.
fn run_bursty(mech_name: &str, kernel: KernelMode) -> (String, u64) {
    let mut cfg = NocConfig::default();
    if mech_name == "NoRD" {
        cfg.enable_ring = true;
    }
    let cycles = 60_000u64;
    let gating = GatingSchedule::static_fraction(cfg.nodes(), 0.3, 0xF10F, &[]);
    let workload = ModulatedWorkload::new(
        PatternSpace { kx: cfg.kx(), ky: cfg.ky(), c: cfg.concentration() },
        Pattern::UniformRandom,
        vec![0.0, 0.10],
        Dwell::Geometric { mean: 3_000 },
        cfg.synth_packet_len,
        cycles,
        gating,
        0xF10F ^ 0xABCD,
    );
    let mech = mechanism::by_name(mech_name, &cfg).expect("known mechanism");
    let mut sim = Simulation::new(cfg, mech, Box::new(workload));
    sim.core.kernel = kernel;
    sim.run(cycles);
    sim.drain(25_000);
    let residency = sim.core.residency().to_vec();
    let digest = serde_json::to_string(&(&sim.core.activity, &sim.core.stats, &residency))
        .expect("digest serialization");
    (digest, sim.core.cycles_skipped)
}

#[test]
fn mmpp_quiet_phases_skip_cycles_and_stay_bit_identical() {
    let failures = check_cells(&MECHANISMS, |&mech| {
        let (active, skipped) = run_bursty(mech, KernelMode::ActiveSet);
        let (reference, ref_skipped) = run_bursty(mech, KernelMode::Reference);
        let (parallel, par_skipped) =
            run_bursty(mech, KernelMode::Parallel { tiles: 4, grid: None });
        if active != reference {
            return Some(format!("{mech}: bursty active vs reference end states differ"));
        }
        if parallel != active {
            return Some(format!("{mech}: bursty parallel vs active end states differ"));
        }
        if ref_skipped != 0 {
            return Some(format!("{mech}: reference kernel skipped {ref_skipped} cycles"));
        }
        if skipped == 0 {
            return Some(format!(
                "{mech}: active kernel skipped no cycles under the bursty schedule \
                     (silent MMPP phases should be skippable)"
            ));
        }
        if par_skipped != skipped {
            return Some(format!(
                "{mech}: parallel kernel skipped {par_skipped} cycles, active {skipped} \
                     (jump horizons must agree)"
            ));
        }
        None
    });
    assert!(failures.is_empty(), "bursty skip failures:\n{}", failures.join("\n"));
}

/// Record→replay closes the loop on the trace container: capturing a
/// run's injection stream and core schedule, then replaying it through a
/// `ScriptedWorkload`, must reproduce the source `RunResult` byte for byte —
/// on every kernel. (The trace horizon differs from the source
/// workload's, so this also proves results are invariant to *where* the
/// clock jumps land, as long as they are sound.)
#[test]
fn recorded_traces_replay_bit_identical_on_every_kernel() {
    let sources: Vec<(&str, bool)> = vec![("gFLOV", false), ("NoRD", false), ("rFLOV", true)];
    let failures = check_cells(&sources, |&(mech, bursty)| {
        eprintln!("cell start: replay/{mech}{}", if bursty { "/mmpp" } else { "" });
        let b = RunSpec::builder()
            .mechanism(mech)
            .pattern(Pattern::UniformRandom)
            .gated_fraction(0.3)
            .seed(0xF10F)
            .warmup(1_500)
            .cycles(6_000)
            .drain(25_000);
        let source =
            if bursty { b.mmpp(vec![0.0, 0.10], 1_000) } else { b.rate(0.05) }.build().resolved();
        let (audited, data) =
            record_trace(&source, KernelMode::ActiveSet).expect("source spec is valid");
        let source_json = serde_json::to_string(&audited.result).expect("serialize source result");
        let spec_json = serde_json::to_string(&source).expect("spec serializes");
        let bytes = tracefmt::encode_trace(KERNEL_VERSION, &spec_json, &data);
        let path = std::env::temp_dir()
            .join(format!("flov-equiv-trace-{mech}-{bursty}-{}.flovtrace", std::process::id()));
        std::fs::write(&path, &bytes).expect("trace file writes");
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("crc"));
        let mut replay = source.clone();
        replay.workload = WorkloadSpec::Trace {
            path: path.to_string_lossy().into_owned(),
            crc,
            closed_loop: false,
        };
        let kernels = [
            ("active", KernelMode::ActiveSet),
            ("reference", KernelMode::Reference),
            ("parallel", KernelMode::Parallel { tiles: 4, grid: None }),
        ];
        let mut failure = None;
        for (kname, kernel) in kernels {
            let r = run_kernel(&replay, kernel);
            let rj = serde_json::to_string(&r).expect("serialize replay result");
            if rj != source_json {
                failure = Some(format!(
                    "replay/{mech} (bursty={bursty}): {kname}-kernel replay diverged \
                         from the recorded source result"
                ));
                break;
            }
        }
        let _ = std::fs::remove_file(&path);
        if failure.is_none() && audited.result.packets <= 100 {
            failure = Some(format!(
                "replay/{mech} (bursty={bursty}): too little traffic ({} packets)",
                audited.result.packets
            ));
        }
        failure
    });
    assert!(failures.is_empty(), "record→replay failures:\n{}", failures.join("\n"));
}

/// Regression: NoRD at the paper's base load (0.05) with seed 0xF10F used
/// to trip the non-escape U-turn `debug_assert` in the VA stage — a power
/// reconfiguration moves the NoRD proxy/routing table under in-flight
/// packets, and the refreshed table could point a flit straight back out
/// its input port. `NordRouting::route` now diverts that case onto the
/// escape ring (like NO_ROUTE). This pins the exact rate/seed combination
/// that exposed it; debug assertions are active in test builds.
#[test]
fn nord_survives_base_load_without_uturn() {
    let r = run_kernel(&spec("NoRD", Pattern::UniformRandom), KernelMode::ActiveSet);
    assert!(r.packets > 100, "NoRD base-load run delivered only {} packets", r.packets);
    assert!(r.delivered_all, "NoRD base-load run left packets in flight");
}

#[test]
fn kernel_version_reflects_result_schema() {
    // The kernel *mode* still never enters the cache key — both modes are
    // bit-identical (and so is auditing, which is read-only). The salt
    // moved to 4 because `NocConfig` now says each thing once (`topology`
    // in place of `k`, and the four fields that changed no simulated cycle
    // gone), so every spec serializes differently, and a run with
    // mechanism switches prices each interval by its own mechanism: v3
    // entries carry spec serializations (and switched-run static power)
    // the harness no longer produces.
    assert_eq!(KERNEL_VERSION, 4);
}
