//! Per-layer probes of the traced run. Each takes a workload's specs (and
//! results) and times the calls into one layer's public functions, with a
//! span around each call or round of calls:
//!
//! * `engine` — cache-key derivation and `run_kernel` per spec;
//! * `cache` / `binfmt` — put, index scan, get, stats, verify, and the
//!   entry codec on bytes already in memory;
//! * `network` / `par` — `Simulation::run` driven directly, as
//!   `kernel_bench` does, with the `PhaseNanos` accumulators on;
//! * `fuzz` / `audit` — `check_spec` and each kernel it runs.

use crate::{guarded, stats, time, Ctx, Metrics};
use flov_bench::fuzz::check_spec;
use flov_bench::scheduler::{run_work_stealing, workers_for};
use flov_bench::{
    binfmt, run_kernel, run_kernel_audited, CacheEntry, Engine, KernelMode, ResultCache, RunResult,
    RunSpec, SchedStats, WorkloadSpec, KERNEL_VERSION,
};
use flov_core::mechanism;
use flov_noc::network::{PhaseNanos, Simulation};
use flov_workloads::{GatingSchedule, PatternSpace, SyntheticWorkload};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// A quiet caching engine over `dir`, as a new `flov` invocation builds.
pub fn engine_at(dir: &Path) -> Engine {
    Engine::with_cache(ResultCache::new(dir)).quiet()
}

/// The cache key the engine derives for `spec`: resolve, serialize
/// canonically, hash with the kernel-version salt.
pub fn cache_key(spec: &RunSpec) -> String {
    let json = serde_json::to_string(&spec.resolved()).expect("spec serializes");
    ResultCache::key(&json, KERNEL_VERSION)
}

/// Canonical bytes of a result: what "bit-identical" compares.
pub fn result_json(r: &RunResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

/// Every binary entry under a cache directory, in key order.
pub fn read_entries(ctx: &Ctx, dir: &Path) -> Vec<(RunSpec, RunResult)> {
    let mut files: Vec<PathBuf> = Vec::new();
    for shard in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = shard.file_name();
        if name.len() == 2 && shard.path().is_dir() {
            for f in std::fs::read_dir(shard.path()).into_iter().flatten().flatten() {
                if f.path().extension().is_some_and(|e| e == "bin") {
                    files.push(f.path());
                }
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for f in files {
        let decoded = std::fs::read(&f)
            .map_err(|e| e.to_string())
            .and_then(|b| binfmt::decode_entry(&b).map_err(|e| e.0))
            .and_then(|e| {
                serde_json::from_str::<RunSpec>(&e.spec_json)
                    .map(|s| (s, e.result))
                    .map_err(|e| e.to_string())
            });
        match decoded {
            Ok(pair) => out.push(pair),
            Err(e) => ctx.tally.fail(1, 1, &format!("cache entry {} unreadable: {e}", f.display())),
        }
    }
    out
}

/// Scheduler counters summed over batches.
#[derive(Default)]
pub struct SchedSum {
    busy_nanos: u64,
    capacity_nanos: u64,
    steals: u64,
}

impl SchedSum {
    pub fn add(&mut self, s: Option<SchedStats>) {
        if let Some(s) = s {
            self.busy_nanos += s.busy_nanos;
            self.capacity_nanos += s.wall_nanos * s.workers as u64;
            self.steals += s.steals;
        }
    }

    pub fn record(&self, m: &mut Metrics) {
        m.insert("scheduler.occupancy", self.busy_nanos as f64 / self.capacity_nanos.max(1) as f64);
        m.insert("scheduler.steals", self.steals as f64);
    }
}

/// Rounds so that `per_round` calls per round reach about `target` calls.
fn rounds(target: usize, per_round: usize) -> usize {
    target.div_ceil(per_round.max(1)).max(1)
}

/// `engine.key_us`, `cache.*` and `binfmt.*` over `samples`. Puts go to
/// fresh scratch directories; `cold_dir` is the workload's own cache,
/// whose stats and verify report give entry size and quarantines.
pub fn cache_layers(
    ctx: &Ctx,
    parent: u32,
    samples: &[(RunSpec, RunResult)],
    cold_dir: &Path,
    m: &mut Metrics,
) {
    let rec = &ctx.rec;
    let n = samples.len();
    let entries: Vec<(String, String, CacheEntry, String)> = samples
        .iter()
        .map(|(spec, result)| {
            let spec = spec.resolved();
            let json = serde_json::to_string(&spec).expect("spec serializes");
            let key = ResultCache::key(&json, KERNEL_VERSION);
            let expect = result_json(result);
            (
                key,
                json,
                CacheEntry { kernel_version: KERNEL_VERSION, spec, result: result.clone() },
                expect,
            )
        })
        .collect();

    let mut key_us = Vec::new();
    rec.span(parent, "engine.key", |_| {
        for _ in 0..rounds(2_000, n) {
            for (spec, _) in samples {
                key_us.push(time(|| black_box(cache_key(spec))).1 * 1e6);
            }
        }
    });
    m.insert("engine.key_us", stats::median(&key_us));

    let mut put_us = Vec::new();
    let mut put_dir = PathBuf::new();
    for _ in 0..rounds(200, n) {
        put_dir = ctx.fresh_dir("put");
        let cache = ResultCache::new(&put_dir);
        for (key, _, entry, _) in &entries {
            let (r, s) = rec.span(parent, "cache.put", |_| time(|| cache.put(key, entry)));
            match r {
                Ok(()) => put_us.push(s * 1e6),
                Err(e) => ctx.tally.fail(1, 1, &format!("cache put failed: {e}")),
            }
        }
    }
    m.insert("cache.put_us_p50", stats::median(&put_us));
    m.insert("cache.put_us_p90", stats::quantile(&put_us, 0.9));

    // Each round probes through a fresh handle, as a new process would;
    // the first rounds also time the index scan that handle pays.
    let mut scan_ms = Vec::new();
    let mut get_us = Vec::new();
    for round in 0..rounds(2_000, n) {
        let cache = ResultCache::new(&put_dir);
        if round < 50 {
            let (indexed, secs) = rec.span(parent, "cache.index_scan", |_| cache.prime_index());
            scan_ms.push(secs * 1e3);
            ctx.tally.check(indexed == n, || format!("index scan found {indexed} of {n} entries"));
        }
        rec.span(parent, "cache.get_round", |_| {
            for (key, _, _, expect) in &entries {
                let (hit, s) = time(|| cache.get(key, KERNEL_VERSION));
                get_us.push(s * 1e6);
                ctx.tally.check(hit.is_some_and(|r| result_json(&r) == *expect), || {
                    format!("probe of {key} missed or differs from the stored result")
                });
            }
        });
    }
    m.insert("cache.index_scan_ms", stats::median(&scan_ms));
    m.insert("cache.get_us_p50", stats::median(&get_us));
    m.insert("cache.get_us_p99", stats::quantile(&get_us, 0.99));

    let cold = ResultCache::new(cold_dir);
    let st = rec.span(parent, "cache.stats", |_| cold.stats());
    m.insert("cache.entry_bytes", st.total_bytes as f64 / st.entries.max(1) as f64);
    let vr = rec.span(parent, "cache.verify", |_| cold.verify());
    m.insert("cache.quarantined", vr.quarantined as f64);
    if vr.quarantined > 0 {
        ctx.tally.fail(
            vr.checked as u64,
            vr.quarantined as u64,
            "cache verify quarantined entries",
        );
    }

    let (mut enc_us, mut dec_us, mut full_us) = (Vec::new(), Vec::new(), Vec::new());
    rec.span(parent, "binfmt.codec", |_| {
        for _ in 0..rounds(2_000, n) {
            for (key, json, entry, expect) in &entries {
                let (bytes, s) =
                    time(|| binfmt::encode_entry(key, KERNEL_VERSION, json, &entry.result));
                enc_us.push(s * 1e6);
                let (fast, s) = time(|| binfmt::decode_result(&bytes, key, KERNEL_VERSION));
                dec_us.push(s * 1e6);
                let (full, s) = time(|| binfmt::decode_entry(&bytes));
                full_us.push(s * 1e6);
                let ok = matches!(fast, Ok(Some(r)) if result_json(&r) == *expect)
                    && full.is_ok_and(|e| result_json(&e.result) == *expect);
                ctx.tally.check(ok, || format!("entry {key} does not survive encode/decode"));
            }
        }
    });
    m.insert("binfmt.encode_us", stats::median(&enc_us));
    m.insert("binfmt.decode_us", stats::median(&dec_us));
    m.insert("binfmt.decode_entry_us", stats::median(&full_us));
}

/// `engine.run_ms_*`: `run_kernel` on every spec, on the scheduler the
/// engine's batches run on. Each result must equal the timed
/// run's, where the workload has one (`expect`). Returns the results.
pub fn engine_runs(
    ctx: &Ctx,
    parent: u32,
    specs: &[RunSpec],
    expect: Option<&[RunResult]>,
    m: &mut Metrics,
) -> Vec<Option<RunResult>> {
    let runs = run_work_stealing(specs.len(), workers_for(specs.len()), |i, _| {
        ctx.rec.span(parent, "engine.run_kernel", |_| {
            time(|| guarded(|| run_kernel(&specs[i], KernelMode::ActiveSet)))
        })
    })
    .0;
    let mut ms = Vec::new();
    let mut out = Vec::new();
    for (i, (r, s)) in runs.into_iter().enumerate() {
        ms.push(s * 1e3);
        let want = expect.map(|e| result_json(&e[i]));
        ctx.tally.check(
            r.as_ref().is_some_and(|r| want.is_none_or(|w| result_json(r) == w)),
            || {
                format!(
                    "run_kernel of a {} spec panicked or differs from the timed run",
                    specs[i].mechanism
                )
            },
        );
        out.push(r);
    }
    m.insert("engine.run_ms_p50", stats::median(&ms));
    m.insert("engine.run_ms_max", stats::max(&ms));
    out
}

/// One `Simulation` driven over a spec's whole window (warm-up, measured
/// cycles, drain) with phase timing on.
struct Drive {
    wall: f64,
    phases: PhaseNanos,
    link_flits: u64,
    cycles: u64,
    skipped: u64,
    packets: u64,
    avg_latency: f64,
}

/// Whether [`drive`] can build `spec`'s simulation: a synthetic workload
/// with no mid-run mechanism switch.
fn drivable(spec: &RunSpec) -> bool {
    matches!(spec.workload, WorkloadSpec::Synthetic { .. }) && spec.mech_switches.is_empty()
}

/// The simulation a [`drivable`] spec describes, built as the harness's
/// `build_workload` builds it. [`network`] checks that it measures what
/// `run_kernel` measures, so a drift between the two fails the run.
fn build_sim(spec: &RunSpec) -> Simulation {
    let spec = spec.resolved();
    let WorkloadSpec::Synthetic { pattern, rate, gated_fraction, seed, changes } = &spec.workload
    else {
        panic!("only synthetic specs are driven, got {:?}", spec.workload);
    };
    let cfg = spec.cfg.clone();
    let space = PatternSpace { kx: cfg.kx(), ky: cfg.ky(), c: cfg.concentration() };
    let gating = if changes.is_empty() {
        GatingSchedule::static_fraction(cfg.cores(), *gated_fraction, *seed, &[])
    } else {
        GatingSchedule::rerandomized_at(cfg.cores(), *gated_fraction, *seed, changes, &[])
    };
    let workload = SyntheticWorkload::with_space(
        space,
        *pattern,
        *rate,
        cfg.synth_packet_len,
        spec.cycles,
        gating,
        *seed ^ 0xABCD,
    );
    let mech = mechanism::by_name(&spec.mechanism, &cfg)
        .unwrap_or_else(|| panic!("unknown mechanism {:?}", spec.mechanism));
    let mut sim = Simulation::new(cfg, mech, Box::new(workload));
    sim.measure_from(spec.warmup);
    sim.core.stats.interval_width = spec.timeline_width;
    sim
}

/// Drive a [`drivable`] `spec` under `kernel`; `None` when building or
/// running it panics.
fn drive(spec: &RunSpec, kernel: KernelMode) -> Option<Drive> {
    guarded(|| {
        let mut sim = build_sim(spec);
        sim.core.kernel = kernel;
        sim.core.phase_nanos = Some(Box::default());
        let t0 = std::time::Instant::now();
        sim.run(spec.warmup);
        sim.run(spec.cycles.saturating_sub(sim.core.cycle));
        sim.core.stats.measure_until = spec.cycles;
        sim.drain(spec.drain);
        let wall = t0.elapsed().as_secs_f64();
        Drive {
            wall,
            phases: *sim.core.phase_nanos.take().expect("phase timing enabled above"),
            link_flits: sim.core.activity.link_flits,
            cycles: sim.core.cycle,
            skipped: sim.core.cycles_skipped,
            packets: sim.core.stats.packets,
            avg_latency: sim.core.stats.avg_latency(),
        }
    })
}

/// `network.*` over the [`drivable`] specs among `specs`. Each drive must
/// measure the packets and mean latency of `run_kernel`'s result for the
/// same spec (`expect`), or it ran a different workload; a drive that
/// panics, or a mismatch, is a failure.
pub fn network(
    ctx: &Ctx,
    parent: u32,
    specs: &[RunSpec],
    expect: &[Option<RunResult>],
    m: &mut Metrics,
) {
    let driven: Vec<(&RunSpec, &Option<RunResult>)> =
        specs.iter().zip(expect).filter(|(s, _)| drivable(s)).collect();
    ctx.tally.check(!driven.is_empty(), || "no spec could be driven for network.*".into());
    let drives = run_work_stealing(driven.len(), workers_for(driven.len()), |i, _| {
        ctx.rec
            .span(parent, "network.simulation_run", |_| drive(driven[i].0, KernelMode::ActiveSet))
    })
    .0;
    let (mut wall, mut flits, mut cycles, mut skipped) = (0.0, 0u64, 0u64, 0u64);
    let mut ph = PhaseNanos::default();
    for (d, (spec, want)) in drives.iter().zip(&driven) {
        let Some(d) = d else {
            ctx.tally.fail(1, 1, &format!("driving a {} spec panicked", spec.mechanism));
            continue;
        };
        ctx.tally.check(
            want.as_ref().is_some_and(|w| {
                w.packets == d.packets && w.avg_latency.to_bits() == d.avg_latency.to_bits()
            }),
            || {
                format!(
                    "driven {} run measured {} packets, unlike run_kernel's result {:?}",
                    spec.mechanism,
                    d.packets,
                    want.as_ref().map(|w| w.packets)
                )
            },
        );
        wall += d.wall;
        flits += d.link_flits;
        cycles += d.cycles;
        skipped += d.skipped;
        ph.latch += d.phases.latch;
        ph.delivery += d.phases.delivery;
        ph.inject += d.phases.inject;
        ph.pipeline += d.phases.pipeline;
        ph.mechanism += d.phases.mechanism;
    }
    let per = |ns: f64| ns / flits.max(1) as f64;
    let named = (ph.latch + ph.delivery + ph.inject + ph.pipeline + ph.mechanism) as f64;
    m.insert("network.ns_per_flit_hop", per(wall * 1e9));
    m.insert("network.pipeline_ns_per_flit_hop", per(ph.pipeline as f64));
    m.insert("network.delivery_ns_per_flit_hop", per(ph.delivery as f64));
    m.insert("network.inject_ns_per_flit_hop", per(ph.inject as f64));
    m.insert("network.latch_ns_per_flit_hop", per(ph.latch as f64));
    m.insert("network.mechanism_ns_per_flit_hop", per(ph.mechanism as f64));
    m.insert("network.other_ns_per_flit_hop", per((wall * 1e9 - named).max(0.0)));
    m.insert("network.skip_ratio", skipped as f64 / cycles.max(1) as f64);
    m.insert("network.flit_hops", flits as f64);
    eprintln!(
        "[perfbench] network: named phases cover {:.1}% of Simulation::run wall over {} runs",
        100.0 * named / (wall * 1e9).max(1.0),
        drives.iter().flatten().count()
    );
}

/// `par.*`: each spec driven alone under the active-set kernel, then
/// under the parallel kernel with one tile per core. The speedup is summed
/// active wall over summed parallel wall; each parallel drive must match
/// its active drive's counts.
pub fn par(ctx: &Ctx, parent: u32, specs: &[&RunSpec], m: &mut Metrics) {
    let kernel = KernelMode::Parallel { tiles: crate::host::nproc(), grid: None };
    ctx.tally.check(!specs.is_empty(), || "no spec to measure par.* on".into());
    let (mut active, mut parallel, mut cpu, mut exchange, mut flits) = (0.0, 0.0, 0.0, 0u64, 0u64);
    for spec in specs {
        let a = ctx.rec.span(parent, "par.active_run", |_| drive(spec, KernelMode::ActiveSet));
        let cpu0 = crate::host::cpu_seconds();
        let p = ctx.rec.span(parent, "par.parallel_run", |_| drive(spec, kernel));
        cpu += crate::host::cpu_seconds() - cpu0;
        ctx.tally.check(
            matches!((&a, &p), (Some(a), Some(p)) if a.link_flits == p.link_flits && a.packets == p.packets),
            || format!("parallel kernel diverged from active-set on a {} spec", spec.mechanism),
        );
        if let (Some(a), Some(p)) = (a, p) {
            active += a.wall;
            parallel += p.wall;
            exchange += p.phases.exchange;
            flits += p.link_flits;
        }
    }
    m.insert("par.speedup", active / parallel.max(1e-9));
    m.insert("par.cpu_per_wall", cpu / parallel.max(1e-9));
    m.insert("par.exchange_ns_per_flit_hop", exchange as f64 / flits.max(1) as f64);
}

/// The parallel kernel `check_spec` runs for `spec`: a 2-D tile geometry
/// between 1x2 and 3x3 derived from the workload seed.
fn fuzz_parallel_kernel(spec: &RunSpec) -> KernelMode {
    let seed = match &spec.workload {
        WorkloadSpec::Synthetic { seed, .. }
        | WorkloadSpec::Parsec { seed, .. }
        | WorkloadSpec::Mmpp { seed, .. }
        | WorkloadSpec::Diurnal { seed, .. } => *seed,
        WorkloadSpec::Trace { crc, .. } => *crc as u64,
    };
    let (rows, cols) = (1 + (seed >> 1) % 3, 1 + (seed >> 3) % 3);
    let rows = if rows * cols == 1 { 2 } else { rows };
    KernelMode::Parallel { tiles: (rows * cols) as usize, grid: Some((rows as u16, cols as u16)) }
}

/// `fuzz.*` and `audit.overhead` over `specs`: `check_spec` per spec,
/// then each of its three kernels alone, then the active kernel with and
/// without the auditor. A finding or a panic counts as a failure.
pub fn fuzz_layers(ctx: &Ctx, parent: u32, specs: &[RunSpec], m: &mut Metrics) {
    ctx.tally.check(!specs.is_empty(), || "no spec to measure fuzz.* on".into());
    // Wall seconds of one audited run in span `name`.
    let timed = |name: &'static str, spec: &RunSpec, kernel: KernelMode| {
        let (run, s) =
            ctx.rec.span(parent, name, |_| time(|| guarded(|| run_kernel_audited(spec, kernel))));
        ctx.tally
            .check(run.is_some(), || format!("{name} run of a {} spec panicked", spec.mechanism));
        s
    };
    let per_spec = run_work_stealing(specs.len(), workers_for(specs.len()), |i, _| {
        let spec = &specs[i];
        let (finding, case_s) =
            ctx.rec.span(parent, "fuzz.check_spec", |_| time(|| guarded(|| check_spec(spec))));
        let kernels = [KernelMode::ActiveSet, KernelMode::Reference, fuzz_parallel_kernel(spec)];
        let names = ["fuzz.active", "fuzz.reference", "fuzz.parallel"];
        let walls = std::array::from_fn::<f64, 3, _>(|i| timed(names[i], spec, kernels[i]));
        let audit = |on: bool| {
            timed("audit.active", &RunSpec { audit: on, ..spec.clone() }, KernelMode::ActiveSet)
        };
        (finding, case_s, walls, audit(true), audit(false))
    })
    .0;
    let mut case_ms = Vec::new();
    let (mut kernel_s, mut audited, mut plain) = ([0.0f64; 3], 0.0, 0.0);
    for (finding, case_s, walls, on, off) in per_spec {
        ctx.tally.check(finding == Some(None), || match &finding {
            None => "check_spec panicked".into(),
            Some(f) => format!("check_spec finding: {f:?}"),
        });
        case_ms.push(case_s * 1e3);
        for (acc, w) in kernel_s.iter_mut().zip(walls) {
            *acc += w;
        }
        audited += on;
        plain += off;
    }
    let total: f64 = kernel_s.iter().sum::<f64>().max(1e-9);
    m.insert("fuzz.case_ms_p50", stats::median(&case_ms));
    m.insert("fuzz.case_ms_max", stats::max(&case_ms));
    m.insert("fuzz.active_share", kernel_s[0] / total);
    m.insert("fuzz.reference_share", kernel_s[1] / total);
    m.insert("fuzz.parallel_share", kernel_s[2] / total);
    m.insert("audit.overhead", audited / plain.max(1e-9));
}
