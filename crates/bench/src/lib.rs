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

pub use cache::{CacheEntry, CacheStats, GcOptions, GcReport, ResultCache, VerifyReport};
pub use engine::{Engine, EngineStats, KERNEL_VERSION};
pub use flov_noc::audit::{AuditViolation, DEFAULT_AUDIT_INTERVAL};
pub use flov_noc::network::KernelMode;
pub use fuzz::{FuzzOptions, FuzzReport};
pub use report::{csv_escape, Table};
pub use scheduler::SchedStats;
pub use spec::{RunResult, RunSpec, RunSpecBuilder, WorkloadSpec};

use flov_core::mechanism;
use flov_noc::activity::Residency;
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The run switches: how this process runs each simulation, as opposed
/// to what it simulates (the [`RunSpec`]). Every kernel is bit-identical
/// and auditing is read-only, so they never enter a cache key. Each comes
/// from a `FLOV_*` variable; an unset or empty one takes its default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Switches {
    /// `FLOV_KERNEL`: `active` (the default), `reference` or `parallel`.
    /// `parallel` pins the tile grid to `FLOV_TILES=RxC`, which needs it;
    /// else it asks for `FLOV_THREADS` tiles, else 4, on a planned grid.
    pub kernel: KernelMode,
    /// `FLOV_THREADS`: the core budget of the batch scheduler and the
    /// engine's tile arbitration; `None` means the available parallelism.
    pub threads: Option<usize>,
    /// `FLOV_AUDIT`, overriding [`RunSpec::audit`]: `0`/`off` forces the
    /// auditor off, `1`/`on` audits every [`DEFAULT_AUDIT_INTERVAL`]
    /// cycles, `n >= 2` every `n` cycles.
    pub audit: Option<Option<Cycle>>,
    /// `FLOV_QUIET`: anything but `0` silences engine progress.
    pub quiet: bool,
}

/// Set by [`Switches::install`] or by the first [`Switches::get`].
static SWITCHES: OnceLock<Switches> = OnceLock::new();

impl Switches {
    /// Parse the switches from `flags`, a lookup that answers for the
    /// variables it names, and from the environment for the rest. A bad
    /// value is an `Err` naming the variable.
    pub fn parse(flags: impl Fn(&str) -> Option<String>) -> Result<Switches, String> {
        let var =
            |name: &str| flags(name).or_else(|| std::env::var(name).ok()).filter(|v| !v.is_empty());
        let threads = read(var, "FLOV_THREADS", "a positive integer", |v| {
            v.parse().ok().filter(|&t: &usize| t >= 1)
        })?;
        let grid = read(var, "FLOV_TILES", "RxC, e.g. 4x2", |v| {
            let axis = |n: &str| n.trim().parse().ok().filter(|&n: &u16| n >= 1);
            let (r, c) = v.split_once(['x', 'X'])?;
            Some((axis(r)?, axis(c)?))
        })?;
        let tiles = grid.map_or(threads.unwrap_or(4), |(r, c)| r as usize * c as usize);
        let kernel = read(var, "FLOV_KERNEL", "active|reference|parallel", |v| match v {
            "active" => Some(KernelMode::ActiveSet),
            "reference" => Some(KernelMode::Reference),
            "parallel" => Some(KernelMode::Parallel { tiles, grid }),
            _ => None,
        })?
        .unwrap_or_default();
        if grid.is_some() && !matches!(kernel, KernelMode::Parallel { .. }) {
            return Err("FLOV_TILES needs FLOV_KERNEL=parallel".to_string());
        }
        let audit = read(var, "FLOV_AUDIT", "0|1|off|on|<interval>", |v| match v {
            "0" | "off" => Some(None),
            "1" | "on" => Some(Some(DEFAULT_AUDIT_INTERVAL)),
            n => n.parse().ok().filter(|&n: &Cycle| n >= 2).map(Some),
        })?;
        let quiet = var("FLOV_QUIET").is_some_and(|v| v != "0");
        Ok(Switches { kernel, threads, audit, quiet })
    }

    /// Make these the switches [`Switches::get`] returns; an `Err` once
    /// they were read, so a late install is never silently ignored.
    pub fn install(self) -> Result<(), String> {
        SWITCHES.set(self).map_err(|_| "the run switches were already read".to_string())
    }

    /// The installed switches. Without an install, the first call parses
    /// the environment, and a bad value panics naming the variable.
    pub fn get() -> &'static Switches {
        SWITCHES.get_or_init(|| Switches::parse(|_| None).unwrap_or_else(|e| panic!("{e}")))
    }
}

/// Variable `name` from `var` through `parse`: `Ok(None)` when it is
/// unset, an `Err` naming it and what it wants when `parse` rejects it.
fn read<T>(
    var: impl Fn(&str) -> Option<String>,
    name: &str,
    wants: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    var(name)
        .map(|v| parse(&v).ok_or_else(|| format!("bad {name} value {v:?} (use {wants})")))
        .transpose()
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

/// Execute one simulation per `spec`, resolving the mechanism by name, on
/// the kernel the [`Switches`] ask for.
pub fn run(spec: &RunSpec) -> RunResult {
    run_kernel(spec, Switches::get().kernel)
}

/// [`run`] with an explicit kernel mode (the equivalence suite and
/// `bench-kernel` compare the two modes directly). Auditor violations (if
/// auditing is enabled) are reported through [`report_violations`].
pub fn run_kernel(spec: &RunSpec, kernel: KernelMode) -> RunResult {
    report_violations(&spec.mechanism, run_kernel_audited(spec, kernel))
}

/// Runs whose auditor reported a violation through [`report_violations`],
/// process-wide.
static RUNS_WITH_VIOLATIONS: AtomicUsize = AtomicUsize::new(0);

/// Print `audited`'s violations on stderr, count the run if it had any
/// (see [`runs_with_violations`]), and return its result.
pub fn report_violations(mechanism: &str, audited: AuditedRun) -> RunResult {
    for v in &audited.violations {
        eprintln!("[flov] audit violation ({mechanism}): {v}");
    }
    if !audited.violations.is_empty() {
        RUNS_WITH_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    }
    audited.result
}

/// How many runs in this process reported an auditor violation. `flov`
/// exits 1 after its output when this is nonzero.
pub fn runs_with_violations() -> usize {
    RUNS_WITH_VIOLATIONS.load(Ordering::Relaxed)
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
    Ok(run_audited_inner(&spec, mech, kernel, None))
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
/// the ablation studies, which tweak mechanism-internal parameters), on
/// the kernel the [`Switches`] ask for. Auditor violations (if auditing
/// is enabled) are reported through [`report_violations`].
pub fn run_with(spec: &RunSpec, mech: Box<dyn flov_noc::PowerMechanism>) -> RunResult {
    report_violations(&spec.mechanism, run_audited_inner(spec, mech, Switches::get().kernel, None))
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
                cfg.topology.label(),
            );
            let profile = flov_workloads::benchmark(name)
                .unwrap_or_else(|| panic!("unknown PARSEC benchmark {name:?}"));
            Box::new(ParsecWorkload::new(cfg.kx(), profile, *seed))
        }
        WorkloadSpec::Trace { path, crc, .. } => {
            // `RunSpec::validate` reports these failures as a ConfigError;
            // only callers that skip validation can reach the panic.
            let file = tracefmt::load_trace(path, *crc, cfg).unwrap_or_else(|e| panic!("{e}"));
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
    let audit_interval = match Switches::get().audit {
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
    // Residency settled where the window opens and at each switch after
    // that, each with the residual of the mechanism that runs from there,
    // so that every interval is priced by its own mechanism.
    let mut marks = vec![(GatedResidual::for_mechanism(&spec.mechanism), Vec::new())];
    // Warmup.
    run_switched(&mut sim, spec, spec.warmup, &mut marks);
    let act0 = sim.core.activity.clone();
    let opening = marks.last().expect("the spec's mechanism opens the run").0;
    marks = vec![(opening, sim.core.residency().to_vec())];
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
        run_switched(&mut sim, spec, spec.cycles, &mut marks);
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
    let end = sim.core.residency().to_vec();
    let stops = marks.iter().skip(1).map(|(_, r)| r).chain([&end]);
    let intervals: Vec<(GatedResidual, Vec<Residency>)> = marks
        .iter()
        .zip(stops)
        .map(|((residual, start), stop)| (*residual, flov_power::residency_delta(stop, start)))
        .collect();
    let power = flov_power::compute_links(
        &spec.power_params,
        spec.cfg.topology.links().len() as u64,
        &activity,
        &intervals,
        window.max(1),
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
/// their exact cycle, and pushing onto `marks` the residency settled at
/// each switch with the residual of the mechanism it switches to. Illegal
/// switches (anything but Baseline→rFLOV, Baseline→gFLOV, rFLOV→gFLOV)
/// panic: a stricter protocol's invariants do not hold over the looser
/// fabric it would inherit.
fn run_switched(
    sim: &mut Simulation,
    spec: &RunSpec,
    until: Cycle,
    marks: &mut Vec<(GatedResidual, Vec<Residency>)>,
) {
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
        marks.push((GatedResidual::for_mechanism(name), sim.core.residency().to_vec()));
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
    fn a_switched_run_is_priced_by_the_mechanism_that_ran_it() {
        // Baseline runs one cycle, then gFLOV runs the whole measured
        // window, so the static power is plain gFLOV's (Baseline's gated
        // routers would be priced as fully off).
        let spec = |mech: &str| {
            RunSpec::builder()
                .mechanism(mech)
                .k(4)
                .gated_fraction(0.5)
                .seed(7)
                .warmup(1_000)
                .cycles(6_000)
                .drain(6_000)
        };
        let plain = run(&spec("gFLOV").build());
        let switched = run(&spec("Baseline").mech_switches(vec![(1, "gFLOV".into())]).build());
        assert_eq!(switched.mechanism, "Baseline");
        assert_eq!(switched.packets, plain.packets);
        let ratio = switched.power.static_w / plain.power.static_w;
        assert!(
            (ratio - 1.0).abs() < 0.005,
            "switched static {} W vs plain gFLOV {} W",
            switched.power.static_w,
            plain.power.static_w
        );
    }

    #[test]
    fn switches_parse_each_variable_and_name_a_bad_one() {
        // The lookup answers for every variable, so a test job's own
        // `FLOV_*` environment is never read.
        let parse = |vars: &[(&str, &str)]| {
            Switches::parse(|name| {
                Some(vars.iter().find(|(n, _)| *n == name).map_or("", |(_, v)| *v).to_string())
            })
        };
        let defaults =
            Switches { kernel: KernelMode::ActiveSet, threads: None, audit: None, quiet: false };
        assert_eq!(parse(&[]), Ok(defaults));
        let parallel = |tiles, grid| KernelMode::Parallel { tiles, grid };
        for (vars, want) in [
            (
                &[("FLOV_KERNEL", "reference")][..],
                Switches { kernel: KernelMode::Reference, ..defaults },
            ),
            (&[("FLOV_KERNEL", "parallel")], Switches { kernel: parallel(4, None), ..defaults }),
            (
                &[("FLOV_KERNEL", "parallel"), ("FLOV_THREADS", "3")],
                Switches { kernel: parallel(3, None), threads: Some(3), ..defaults },
            ),
            (
                &[("FLOV_KERNEL", "parallel"), ("FLOV_THREADS", "8"), ("FLOV_TILES", "2X3")],
                Switches { kernel: parallel(6, Some((2, 3))), threads: Some(8), ..defaults },
            ),
            (&[("FLOV_THREADS", "2")], Switches { threads: Some(2), ..defaults }),
            (&[("FLOV_AUDIT", "off")], Switches { audit: Some(None), ..defaults }),
            (
                &[("FLOV_AUDIT", "on")],
                Switches { audit: Some(Some(DEFAULT_AUDIT_INTERVAL)), ..defaults },
            ),
            (&[("FLOV_AUDIT", "64")], Switches { audit: Some(Some(64)), ..defaults }),
            (&[("FLOV_QUIET", "1")], Switches { quiet: true, ..defaults }),
            (&[("FLOV_QUIET", "0")], defaults),
        ] {
            assert_eq!(parse(vars), Ok(want), "{vars:?}");
        }
        for (vars, named) in [
            (&[("FLOV_KERNEL", "par")][..], "FLOV_KERNEL"),
            (&[("FLOV_THREADS", "0")], "FLOV_THREADS"),
            (&[("FLOV_KERNEL", "parallel"), ("FLOV_TILES", "2x")], "FLOV_TILES"),
            (&[("FLOV_TILES", "2x2")], "FLOV_TILES needs FLOV_KERNEL=parallel"),
            (&[("FLOV_AUDIT", "2s")], "FLOV_AUDIT"),
        ] {
            let err = parse(vars).expect_err("a bad value");
            assert!(err.contains(named), "{vars:?}: {err}");
        }
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
