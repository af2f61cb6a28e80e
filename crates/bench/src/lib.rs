//! # flov-bench — the experiment harness
//!
//! [`run`] executes one fully specified simulation and returns every
//! number the paper's figures need (latency + breakdown,
//! static/dynamic/total power, runtime, timeline). Batches go through the
//! [`Engine`], which deduplicates specs, runs them in parallel, and
//! persists results in a content-addressed cache so repeated sweeps are
//! served from disk. The `flov` CLI (`src/bin/flov.rs`) exposes one
//! subcommand per paper table/figure plus the studies; each prints an
//! aligned table and CSV. Every individual simulation is deterministic.

pub mod ablations;
pub mod binfmt;
pub mod cache;
pub mod engine;
pub mod engine_bench;
pub mod figures;
pub mod fuzz;
pub mod kernel_bench;
pub mod progress;
pub mod report;
pub mod scheduler;
pub mod spec;
pub mod studies;
pub mod tracefmt;

pub use cache::{
    CacheEntry, CacheStats, GcOptions, GcReport, MigrateReport, ResultCache, VerifyReport,
};
pub use engine::{Engine, EngineStats, KERNEL_VERSION};
pub use flov_noc::audit::{AuditViolation, DEFAULT_AUDIT_INTERVAL};
pub use flov_noc::network::KernelMode;
pub use fuzz::{FuzzOptions, FuzzReport};
pub use report::{csv_escape, Table};
pub use scheduler::SchedStats;
pub use spec::{RunResult, RunSpec, RunSpecBuilder, WorkloadSpec};

use flov_core::mechanism;
use flov_noc::network::Simulation;
use flov_noc::traits::{ScriptedWorkload, Workload};
use flov_noc::types::Cycle;
use flov_noc::ConfigError;
use flov_power::GatedResidual;
use flov_workloads::trace::TraceData;
use flov_workloads::{
    Dwell, GatingSchedule, ModulatedWorkload, ParsecWorkload, PatternSpace, RecordingWorkload,
    SyntheticWorkload,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Kernel selected by the `FLOV_KERNEL` environment variable (`active` |
/// `reference` | `parallel`); defaults to the active-set kernel. For
/// `parallel`, `FLOV_TILES=RxC` pins an explicit 2-D tile geometry
/// (clamped to the grid per network); otherwise `FLOV_THREADS` sets the
/// tile budget (default 4) and the seam-minimizing planner picks the
/// grid. All kernels produce bit-identical results (enforced by the
/// equivalence suite), so this is a debugging/benchmarking switch, not an
/// experiment parameter — it never enters the result cache key. A bad
/// value is an `Err` naming the variable.
pub fn kernel_from_env() -> Result<KernelMode, String> {
    match std::env::var("FLOV_KERNEL").ok().as_deref() {
        None | Some("") | Some("active") | Some("active-set") => Ok(KernelMode::ActiveSet),
        Some("reference") | Some("ref") => Ok(KernelMode::Reference),
        Some("parallel") | Some("par") => {
            if let Some((r, c)) = tiles_from_env()? {
                let tiles = r as usize * c as usize;
                return Ok(KernelMode::Parallel { tiles, grid: Some((r, c)) });
            }
            Ok(KernelMode::Parallel { tiles: threads_from_env()?.unwrap_or(4), grid: None })
        }
        Some(other) => {
            Err(format!("unknown FLOV_KERNEL value {other:?} (use active|reference|parallel)"))
        }
    }
}

/// The `FLOV_THREADS` core budget: `Ok(None)` when unset or empty, else a
/// positive integer. A bad value is an `Err` naming the variable.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var("FLOV_THREADS").ok().as_deref() {
        None | Some("") => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(t) if t >= 1 => Ok(Some(t)),
            _ => Err(format!("bad FLOV_THREADS value {v:?} (positive integer)")),
        },
    }
}

/// The `FLOV_TILES` geometry: `Ok(None)` when unset or empty, else `RxC`
/// (see [`parse_tile_geometry`]). A bad value is an `Err` naming the
/// variable.
pub fn tiles_from_env() -> Result<Option<(u16, u16)>, String> {
    match std::env::var("FLOV_TILES").ok().filter(|v| !v.is_empty()) {
        None => Ok(None),
        Some(v) => parse_tile_geometry(&v)
            .map(Some)
            .ok_or_else(|| format!("bad FLOV_TILES value {v:?} (use RxC, e.g. 4x2)")),
    }
}

/// Parse an explicit `RxC` tile geometry (e.g. `4x2`); both axes must be
/// positive. Shared by `FLOV_TILES` and the `--tiles` CLI flag.
pub fn parse_tile_geometry(v: &str) -> Option<(u16, u16)> {
    let (r, c) = v.split_once(['x', 'X'])?;
    let r = r.trim().parse::<u16>().ok().filter(|&r| r >= 1)?;
    let c = c.trim().parse::<u16>().ok().filter(|&c| c >= 1)?;
    Some((r, c))
}

/// Auditor override from the `FLOV_AUDIT` environment variable:
/// * unset / empty — `None` (defer to [`RunSpec::audit`]);
/// * `0` / `off` — `Some(None)` (force auditing off);
/// * `1` / `on` — `Some(Some(DEFAULT_AUDIT_INTERVAL))`;
/// * any other integer `n >= 2` — `Some(Some(n))` (audit every `n` cycles).
///
/// Like `FLOV_KERNEL` this never enters the result cache key: auditing is
/// read-only, so results are bit-identical with or without it. A bad value
/// is an `Err` naming the variable.
pub fn audit_override() -> Result<Option<Option<Cycle>>, String> {
    match std::env::var("FLOV_AUDIT").ok().as_deref() {
        None | Some("") => Ok(None),
        Some("0") | Some("off") => Ok(Some(None)),
        Some("1") | Some("on") => Ok(Some(Some(DEFAULT_AUDIT_INTERVAL))),
        Some(other) => match other.parse::<Cycle>() {
            Ok(n) if n >= 2 => Ok(Some(Some(n))),
            _ => Err(format!("unknown FLOV_AUDIT value {other:?} (use 0|1|off|on|<interval>)")),
        },
    }
}

/// One run plus everything its invariant auditor observed. When auditing
/// was disabled, `violations` is empty and `audit_checks` is 0.
#[derive(Clone, Debug)]
pub struct AuditedRun {
    pub result: RunResult,
    /// Violations in detection order (capped inside the [`flov_noc::audit::Auditor`];
    /// `suppressed` counts the overflow).
    pub violations: Vec<AuditViolation>,
    pub suppressed: u64,
    /// Full audit sweeps performed.
    pub audit_checks: u64,
}

/// Execute one simulation per `spec`, resolving the mechanism by name.
pub fn run(spec: &RunSpec) -> RunResult {
    run_kernel(spec, kernel_from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// [`run`] with an explicit kernel mode (the equivalence suite and
/// `bench-kernel` compare the two modes directly).
pub fn run_kernel(spec: &RunSpec, kernel: KernelMode) -> RunResult {
    run_kernel_audited(spec, kernel).result
}

/// [`run_kernel`], keeping the auditor's findings instead of just warning
/// about them. The differential fuzzer ([`fuzz`]) is the main consumer.
pub fn run_kernel_audited(spec: &RunSpec, kernel: KernelMode) -> AuditedRun {
    try_run_kernel_audited(spec, kernel)
        .unwrap_or_else(|e| panic!("invalid run spec ({}): {e}", spec.mechanism))
}

/// [`run_kernel_audited`] with config validation up front: a misconfigured
/// spec (e.g. NoRD on a topology with no Hamiltonian ring) comes back as a
/// structured [`ConfigError`] instead of a panic. The CLI surfaces these as
/// diagnostics.
pub fn try_run_kernel_audited(
    spec: &RunSpec,
    kernel: KernelMode,
) -> Result<AuditedRun, ConfigError> {
    let (spec, mech) = resolve_mechanism(spec)?;
    Ok(run_with_kernel_audited(&spec, mech, kernel))
}

/// Validate `spec` and build the simulation it describes — its mechanism
/// and workload on its resolved config — before the first cycle. `flov
/// sim --map` snapshots this, so the map shows the run the report
/// describes.
pub fn try_simulation(spec: &RunSpec) -> Result<Simulation, ConfigError> {
    let (spec, mech) = resolve_mechanism(spec)?;
    Ok(new_simulation(&spec, mech, None))
}

/// `spec` resolved and validated, with the mechanism it names.
fn resolve_mechanism(
    spec: &RunSpec,
) -> Result<(RunSpec, Box<dyn flov_noc::PowerMechanism>), ConfigError> {
    let spec = spec.resolved();
    spec.validate()?;
    let mech = mechanism::by_name(&spec.mechanism, &spec.cfg).expect("validated mechanism");
    Ok((spec, mech))
}

/// Run `spec` while capturing its workload's full observable behaviour —
/// the injection stream, the active-core flips, and the change pulses —
/// as a [`TraceData`] (serialize it with [`tracefmt::encode_trace`]).
/// The recording wrapper is transparent, so the returned result is
/// bit-identical to an unrecorded run of the same spec.
pub fn record_trace(
    spec: &RunSpec,
    kernel: KernelMode,
) -> Result<(AuditedRun, TraceData), ConfigError> {
    let (spec, mech) = resolve_mechanism(spec)?;
    let log = Rc::new(RefCell::new(TraceData::default()));
    let audited = run_audited_inner(&spec, mech, kernel, Some(Rc::clone(&log)));
    let data = Rc::try_unwrap(log).expect("recording log still shared after the run").into_inner();
    Ok((audited, data))
}

/// Execute one simulation with an explicitly constructed mechanism (used by
/// the ablation studies, which tweak mechanism-internal parameters).
pub fn run_with(spec: &RunSpec, mech: Box<dyn flov_noc::PowerMechanism>) -> RunResult {
    run_with_kernel(spec, mech, kernel_from_env().unwrap_or_else(|e| panic!("{e}")))
}

/// [`run_with`] with an explicit kernel mode. Auditor violations (if
/// auditing is enabled) are reported on stderr; use
/// [`run_with_kernel_audited`] to consume them programmatically.
pub fn run_with_kernel(
    spec: &RunSpec,
    mech: Box<dyn flov_noc::PowerMechanism>,
    kernel: KernelMode,
) -> RunResult {
    let audited = run_with_kernel_audited(spec, mech, kernel);
    for v in &audited.violations {
        eprintln!("[flov] audit violation ({}): {v}", spec.mechanism);
    }
    audited.result
}

/// [`run_with_kernel`], returning the auditor's findings alongside the
/// result.
pub fn run_with_kernel_audited(
    spec: &RunSpec,
    mech: Box<dyn flov_noc::PowerMechanism>,
    kernel: KernelMode,
) -> AuditedRun {
    run_audited_inner(spec, mech, kernel, None)
}

/// Construct the workload a spec describes (the single source of truth for
/// spec→workload semantics; every run and recording goes through it).
fn build_workload(spec: &RunSpec) -> Box<dyn Workload> {
    let cfg = &spec.cfg;
    let space = PatternSpace { kx: cfg.kx(), ky: cfg.ky(), c: cfg.concentration() };
    let static_gating = |gated_fraction: &f64, seed: &u64| {
        GatingSchedule::static_fraction(cfg.cores(), *gated_fraction, *seed, &[])
    };
    match &spec.workload {
        WorkloadSpec::Synthetic { pattern, rate, gated_fraction, seed, changes } => {
            let gating = if changes.is_empty() {
                static_gating(gated_fraction, seed)
            } else {
                GatingSchedule::rerandomized_at(cfg.cores(), *gated_fraction, *seed, changes, &[])
            };
            Box::new(SyntheticWorkload::with_space(
                space,
                *pattern,
                *rate,
                cfg.synth_packet_len,
                spec.cycles,
                gating,
                *seed ^ 0xABCD,
            ))
        }
        WorkloadSpec::Mmpp { pattern, rates, mean_dwell, gated_fraction, seed } => {
            Box::new(ModulatedWorkload::new(
                space,
                *pattern,
                rates.clone(),
                Dwell::Geometric { mean: *mean_dwell },
                cfg.synth_packet_len,
                spec.cycles,
                static_gating(gated_fraction, seed),
                *seed ^ 0xABCD,
            ))
        }
        WorkloadSpec::Diurnal { pattern, rates, dwell, gated_fraction, seed } => {
            Box::new(ModulatedWorkload::new(
                space,
                *pattern,
                rates.clone(),
                Dwell::Fixed { cycles: *dwell },
                cfg.synth_packet_len,
                spec.cycles,
                static_gating(gated_fraction, seed),
                *seed ^ 0xABCD,
            ))
        }
        WorkloadSpec::Parsec { name, seed } => {
            // The PARSEC proxy places memory controllers at the corners of
            // a square k x k grid with one core per router; other fabrics
            // have no defined MC placement.
            assert!(
                cfg.kx() == cfg.ky() && cfg.concentration() == 1,
                "PARSEC workload requires a square non-concentrated mesh, got {}",
                cfg.topology_spec().label(),
            );
            let profile = flov_workloads::benchmark(name)
                .unwrap_or_else(|| panic!("unknown PARSEC benchmark {name:?}"));
            Box::new(ParsecWorkload::new(cfg.kx(), profile, *seed))
        }
        WorkloadSpec::Trace { path, crc, .. } => {
            // `RunSpec::validate` reports these failures as a ConfigError;
            // only callers that skip validation can reach the panic.
            let file =
                tracefmt::load_trace(path, *crc, cfg.cores()).unwrap_or_else(|e| panic!("{e}"));
            if file.kernel_version != KERNEL_VERSION {
                eprintln!(
                    "[flov] note: trace {path:?} was recorded under kernel version {} \
                     (this build is {KERNEL_VERSION}); replay is well-defined but \
                     cross-version bit-identity is not guaranteed",
                    file.kernel_version,
                );
            }
            Box::new(ScriptedWorkload::from(file.data))
        }
    }
}

/// The simulation `spec` describes with `mech`, before the first cycle;
/// `record` captures the workload's behaviour. Every spec-driven
/// simulation is built here.
fn new_simulation(
    spec: &RunSpec,
    mech: Box<dyn flov_noc::PowerMechanism>,
    record: Option<Rc<RefCell<TraceData>>>,
) -> Simulation {
    let mut workload = build_workload(spec);
    if let Some(log) = record {
        workload = Box::new(RecordingWorkload::new(workload, log));
    }
    Simulation::new(spec.cfg.clone(), mech, workload)
}

fn run_audited_inner(
    spec: &RunSpec,
    mech: Box<dyn flov_noc::PowerMechanism>,
    kernel: KernelMode,
    record: Option<Rc<RefCell<TraceData>>>,
) -> AuditedRun {
    let mut sim = new_simulation(spec, mech, record);
    sim.core.kernel = kernel;
    sim.measure_from(spec.warmup);
    sim.core.stats.interval_width = spec.timeline_width;
    let audit_interval = match audit_override().unwrap_or_else(|e| panic!("{e}")) {
        Some(forced) => forced,
        None => spec.audit.then_some(DEFAULT_AUDIT_INTERVAL),
    };
    if let Some(interval) = audit_interval {
        sim.attach_auditor(interval);
    }
    if !spec.mech_switches.is_empty() {
        assert!(
            !matches!(spec.workload, WorkloadSpec::Parsec { .. }),
            "mech_switches do not apply to closed-loop PARSEC runs"
        );
    }
    // Closed-loop runs (PARSEC; trace replays of such runs) execute to
    // workload completion under a cycle cap; open-loop runs execute the
    // fixed warmup/measure/drain window.
    let closed_loop = match &spec.workload {
        WorkloadSpec::Parsec { .. } => true,
        WorkloadSpec::Trace { closed_loop, .. } => *closed_loop,
        _ => false,
    };
    // Warmup.
    run_switched(&mut sim, spec, spec.warmup);
    let act0 = sim.core.activity.clone();
    let res0 = sim.core.residency().to_vec();
    // Measured portion.
    let measured_end;
    if closed_loop {
        let end = sim.run_until_done(spec.cycles);
        assert!(
            sim.core.is_empty(),
            "closed-loop run hit the cycle cap ({end} cycles) before completing"
        );
        measured_end = end;
    } else {
        run_switched(&mut sim, spec, spec.cycles);
        measured_end = sim.core.cycle;
        sim.core.stats.measure_until = spec.cycles;
        sim.drain(spec.drain);
    }
    // A final sweep so short runs (or a deadlocked drain) are audited even
    // when the run length never crossed an interval boundary.
    if let Some(aud) = sim.auditor.as_deref_mut() {
        aud.check(&sim.core, sim.mech.as_ref());
    }
    let window = measured_end - spec.warmup;
    let activity = sim.core.activity.delta_since(&act0);
    let residency = flov_power::residency_delta(sim.core.residency(), &res0);
    let power = flov_power::compute_links(
        &spec.power_params,
        sim.core.topo.links().len() as u64,
        &activity,
        &residency,
        window.max(1),
        GatedResidual::for_mechanism(&spec.mechanism),
    );
    let (violations, suppressed, audit_checks) = match sim.auditor.as_deref_mut() {
        Some(aud) => (aud.take_violations(), aud.suppressed(), aud.checks()),
        None => (Vec::new(), 0, 0),
    };
    let s = &sim.core.stats;
    let result = RunResult {
        mechanism: spec.mechanism.clone(),
        packets: s.packets,
        avg_latency: s.avg_latency(),
        max_latency: s.latency_max,
        latency_percentiles: s.histogram.percentiles(),
        breakdown: s.breakdown.averages(s.packets),
        avg_hops: s.avg_hops(),
        avg_flov_hops: s.avg_flov_hops(),
        escape_packets: s.escape_packets,
        escape_diversions: sim.core.escape_diversions,
        throughput: s.throughput(window.max(1)),
        power,
        runtime_cycles: measured_end,
        stalled_injection_cycles: sim.core.stalled_injection_node_cycles,
        gating_events: activity.gating_events,
        flov_latch_flits: activity.flov_latch_flits,
        ring_flits: activity.ring_flits,
        vnet_latency: [
            (s.per_vnet[0].0, s.vnet_avg_latency(0)),
            (s.per_vnet[1].0, s.vnet_avg_latency(1)),
            (s.per_vnet[2].0, s.vnet_avg_latency(2)),
        ],
        timeline: sim.core.stats.timeline.clone(),
        delivered_all: sim.core.is_empty(),
    };
    AuditedRun { result, violations, suppressed, audit_checks }
}

/// Advance `sim` to absolute cycle `until`, applying any
/// [`RunSpec::mech_switches`] that fall in `[sim.core.cycle, until)` at
/// their exact cycle. Illegal switches (anything but Baseline→rFLOV,
/// Baseline→gFLOV, rFLOV→gFLOV) panic: a stricter protocol's invariants
/// do not hold over the looser fabric it would inherit.
fn run_switched(sim: &mut Simulation, spec: &RunSpec, until: Cycle) {
    for (at, name) in &spec.mech_switches {
        if *at < sim.core.cycle || *at >= until {
            continue;
        }
        sim.run(*at - sim.core.cycle);
        let from = sim.mech.name();
        assert!(
            spec::loosens(from, name),
            "illegal mechanism switch {from} -> {name} at cycle {at}"
        );
        sim.mech = mechanism::by_name(name, &sim.core.cfg)
            .unwrap_or_else(|| panic!("unknown mechanism {name:?} in mech_switches"));
    }
    sim.run(until.saturating_sub(sim.core.cycle));
}

/// Run many specs in parallel, preserving order. Equivalent to a batch on
/// an [`Engine::without_cache`]: deduplicated, but never cached — use an
/// [`Engine`] when results should persist across invocations.
pub fn run_all(specs: &[RunSpec]) -> Vec<RunResult> {
    Engine::without_cache().run_batch(specs)
}

/// Convenience: the paper's synthetic sweep axes.
pub mod axes {
    /// Gated-core fractions of Figs. 6–9 (0%..80%).
    pub const GATED_FRACTIONS: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    /// Injection rates of Figs. 6–7 (flits/cycle/node).
    pub const INJECTION_RATES: [f64; 2] = [0.02, 0.08];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(mech: &str, fraction: f64) -> RunSpec {
        RunSpec::builder()
            .mechanism(mech)
            .gated_fraction(fraction)
            .seed(42)
            .warmup(2_000)
            .cycles(10_000)
            .drain(30_000)
            .build()
    }

    #[test]
    fn all_mechanisms_complete_a_quick_run() {
        for mech in mechanism::ALL {
            let r = run(&quick_spec(mech, 0.3));
            assert!(r.packets > 50, "{mech}: only {} packets measured", r.packets);
            assert!(r.delivered_all, "{mech}: packets left in flight");
            assert!(r.avg_latency > 8.0, "{mech}: implausible latency {}", r.avg_latency);
            assert!(r.power.total_w > 0.0);
        }
    }

    #[test]
    fn gflov_saves_static_power_vs_baseline() {
        let base = run(&quick_spec("Baseline", 0.5));
        let g = run(&quick_spec("gFLOV", 0.5));
        assert!(
            g.power.static_w < base.power.static_w * 0.8,
            "gFLOV static {} vs baseline {}",
            g.power.static_w,
            base.power.static_w
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&quick_spec("gFLOV", 0.4));
        let b = run(&quick_spec("gFLOV", 0.4));
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.power.static_w, b.power.static_w);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let specs: Vec<RunSpec> = [0.0, 0.4].iter().map(|&f| quick_spec("rFLOV", f)).collect();
        let par = run_all(&specs);
        let ser: Vec<RunResult> = specs.iter().map(run).collect();
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.avg_latency, s.avg_latency);
            assert_eq!(p.packets, s.packets);
        }
    }
}
