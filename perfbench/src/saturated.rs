//! `saturated_mesh16`: one run equivalent to `flov sim` through
//! `Engine::run_one` on an empty cache — rFLOV on a 16x16 mesh, uniform
//! random traffic at 0.30 flits/cycle/node, no core gated. It is the
//! mesh16x16 saturated lane of `bench-kernel`: no cycle is skipped, the
//! router pipeline and link delivery take nearly all the time, and NIC
//! queues grow without bound. A 16x16 run takes about 0.2 s, short enough
//! to fall within one of the host's fast or slow stretches (see [`run`]),
//! and its state stays in the CPU caches. A 64x64 mesh outgrows them, and
//! its runs slowed twice as much as the 16x16 ones when the host was
//! loaded (README.md, Sizing). A warm round re-runs the same command on a
//! fresh engine, served from cache.

use crate::layers::{self, engine_at, read_entries, result_json, SchedSum};
use crate::stats::{self, Throughput};
use crate::{guarded, time, Ctx, Metrics, SetupClock};
use flov_bench::{try_run_kernel_audited, Engine, KernelMode, ResultCache, RunResult, RunSpec};
use flov_workloads::Pattern;
use std::path::{Path, PathBuf};

/// Timed runs per second of `--seconds` (one run takes 0.19 to 0.35 s on
/// a 2-vCPU host), and warm rounds per second. The untimed warm rounds check
/// cold/warm identity; the traced run times `TRACED_WARM_ROUNDS` of them.
const RUNS_PER_S: f64 = 3.5;
const WARM_ROUNDS_PER_S: u64 = 20;
const TRACED_WARM_ROUNDS: u64 = 1_000;

/// The workload's command, on the 16x16 mesh.
fn spec(ctx: &Ctx) -> RunSpec {
    let (warmup, cycles) = if ctx.toy { (50, 150) } else { (200, 600) };
    sim_spec(ctx, 16, warmup, cycles)
}

/// The same command on a 64x64 mesh, driven for `par.*` alone: ROADMAP
/// item 1's keep-or-delete rule for the parallel kernel reads saturated
/// meshes of 32x32 and up, where each tile has enough work.
fn spec_mesh64(ctx: &Ctx) -> RunSpec {
    if ctx.toy {
        spec(ctx)
    } else {
        sim_spec(ctx, 64, 100, 150)
    }
}

/// `flov sim --mech rFLOV --k <k> --rate 0.30 --gated 0` with the run's
/// seed; `flov sim` drains for as long as it measures.
fn sim_spec(ctx: &Ctx, k: u16, warmup: u64, cycles: u64) -> RunSpec {
    RunSpec::builder()
        .mechanism("rFLOV")
        .k(k)
        .seed(ctx.seed)
        .pattern(Pattern::UniformRandom)
        .gated_fraction(0.0)
        .warmup(warmup)
        .cycles(cycles)
        .drain(cycles)
        .rate(0.30)
        .build()
}

/// Set-up before a run, over the empty directory `dir` (created untimed,
/// as in `figures`): the spec, validated, and an engine over `dir` with
/// its (empty) index primed.
fn setup(ctx: &Ctx, dir: PathBuf) -> (RunSpec, PathBuf, Engine) {
    let spec = spec(ctx);
    if let Err(e) = spec.validate() {
        ctx.tally.fail(1, 1, &format!("saturated spec is invalid: {e}"));
    }
    let engine = engine_at(&dir);
    engine.cache().expect("caching engine").prime_index();
    (spec, dir, engine)
}

/// The oracle check: `spec` re-run under the reference kernel, whose
/// serialized result must equal the timed run's, `cold`, byte for byte.
fn oracle_check(ctx: &Ctx, spec: &RunSpec, cold: &str) {
    let oracle = guarded(|| try_run_kernel_audited(spec, KernelMode::Reference));
    ctx.tally.check(matches!(&oracle, Some(Ok(r)) if result_json(&r.result) == cold), || {
        "reference kernel disagrees with the timed saturated run".into()
    });
}

/// `rounds` warm re-runs of `spec` over `dir`, each on a fresh engine:
/// every one a cache hit equal to the cold result `cold`. A few rounds
/// also time a set-up.
fn warm_block(
    ctx: &Ctx,
    dir: &Path,
    spec: &RunSpec,
    cold: &str,
    rounds: u64,
    warm: &mut Throughput,
    clock: &mut SetupClock,
) {
    for i in 0..rounds {
        if SetupClock::due(i, rounds) {
            let dir = ctx.fresh_dir("sim");
            clock.time(|| setup(ctx, dir));
        }
        let ((engine, r), wall) = time(|| {
            let engine = engine_at(dir);
            let r = guarded(|| engine.run_one(spec));
            (engine, r)
        });
        let st = engine.stats();
        ctx.tally.check(st.cached == 1 && r.is_some_and(|r| result_json(&r) == cold), || {
            "warm re-run missed the cache or differs from the cold run".into()
        });
        warm.add(1.0, wall);
    }
}

pub fn run(ctx: &Ctx) -> Result<Metrics, String> {
    let runs = ((ctx.seconds as f64 * RUNS_PER_S).round() as u64).max(1);
    let block = (ctx.seconds * WARM_ROUNDS_PER_S).div_ceil(runs).max(1);
    let mut clock = SetupClock::default();
    let (mut cold, mut warm, mut walls) =
        (Throughput::default(), Throughput::default(), Vec::new());
    let mut first: Option<String> = None;
    let mut last = None;
    for _ in 0..runs {
        let dir = ctx.fresh_dir("sim");
        let (spec, dir, engine) = clock.time(|| setup(ctx, dir));
        let (r, wall) = time(|| guarded(|| engine.run_one(&spec)));
        let Some(r) = r else {
            ctx.tally.fail(1, 1, "saturated run panicked");
            continue;
        };
        let bytes = result_json(&r);
        ctx.tally.check(first.as_ref().is_none_or(|f| *f == bytes), || {
            "repeated saturated runs differ".into()
        });
        ctx.tally.check(engine.stats().simulated == 1, || "the run was not simulated".into());
        cold.add(1.0, wall);
        walls.push(wall);
        let vr = ResultCache::new(&dir).verify();
        if vr.quarantined > 0 {
            ctx.tally.fail(
                vr.checked as u64,
                vr.quarantined as u64,
                "verify quarantined the entry",
            );
        }
        // Warm blocks interleave with the cold runs, so both sample the
        // same stretches of host time.
        let cold_bytes = first.get_or_insert(bytes);
        warm_block(ctx, &dir, &spec, cold_bytes, block, &mut warm, &mut clock);
        last = Some(spec);
    }
    // Read before the untimed oracle check below, which runs a kernel of
    // its own, so only the workload sets it.
    let peak_rss_mb = crate::host::peak_rss_mb();
    let (Some(spec), Some(cold_bytes)) = (last, first) else {
        return Err("no saturated run completed".into());
    };
    eprintln!(
        "[perfbench] cold runs min/p10/p50/p90 {:.4}/{:.4}/{:.4}/{:.4} s over {}; warm rounds \
         p10/p50/p90 {:.0}/{:.0}/{:.0} probes/s over {}; peak RSS {peak_rss_mb:.1} MB",
        stats::quantile(&walls, 0.0),
        stats::quantile(&walls, 0.1),
        stats::quantile(&walls, 0.5),
        stats::quantile(&walls, 0.9),
        walls.len(),
        warm.quantile(0.1),
        warm.quantile(0.5),
        warm.quantile(0.9),
        warm.rounds(),
    );
    oracle_check(ctx, &spec, &cold_bytes);
    // The host alternates between fast and slow stretches lasting from a
    // second to tens of seconds (the same run takes 0.19 or 0.30 s), in a
    // mix that differs from one process to the next. A run is short enough
    // to fall within one stretch, so the fastest tenth of the runs
    // measures the program, where a median or a total measures the mix.
    let mut m = Metrics::new();
    m.insert("setup_s", clock.median());
    m.insert("cold_runs_per_s", cold.quantile(0.9));
    m.insert("sim_wall_s", stats::quantile(&walls, 0.1));
    m.insert("peak_rss_mb", peak_rss_mb);
    Ok(m)
}

pub fn run_traced(ctx: &Ctx) -> Result<Metrics, String> {
    let (_, _, untraced_engine) = setup(ctx, ctx.fresh_dir("sim"));
    let (spec, dir, engine) = setup(ctx, ctx.fresh_dir("sim"));
    let (untraced, untraced_s) = time(|| guarded(|| untraced_engine.run_one(&spec)));
    let untraced = untraced.ok_or("untraced run panicked")?;

    let mut m = Metrics::new();
    ctx.rec.set_on(true);
    let cpu0 = crate::host::cpu_seconds();
    let (traced, traced_s) =
        ctx.rec.span(0, "saturated.run_one", |_| time(|| guarded(|| engine.run_one(&spec))));
    let cpu = crate::host::cpu_seconds() - cpu0;
    let traced = traced.ok_or("traced run panicked")?;
    ctx.tally.check(result_json(&traced) == result_json(&untraced), || {
        "traced and untraced runs differ".into()
    });
    m.insert("trace.overhead_s", traced_s - untraced_s);
    m.insert("host.cpu_per_wall", cpu / traced_s);
    let mut sched = SchedSum::default();
    sched.add(engine.sched_stats());
    sched.record(&mut m);
    let mut warm = Throughput::default();
    let cold = result_json(&traced);
    ctx.rec.span(0, "saturated.warm_rounds", |_| {
        let mut clock = SetupClock::default();
        warm_block(ctx, &dir, &spec, &cold, TRACED_WARM_ROUNDS, &mut warm, &mut clock);
    });
    m.insert("engine.warm_probes_per_s", warm.per_s());

    let entries = read_entries(ctx, &dir);
    ctx.tally.check(entries.len() == 1, || format!("{} cache entries, expected 1", entries.len()));
    ctx.rec.span(0, "saturated.layers", |id| {
        layers::cache_layers(ctx, id, &entries, &dir, &mut m);
        let specs = [spec.clone()];
        let results: [RunResult; 1] = [traced];
        let fresh = layers::engine_runs(ctx, id, &specs, Some(&results), &mut m);
        layers::network(ctx, id, &specs, &fresh, &mut m);
        layers::par(ctx, id, &[&spec_mesh64(ctx)], &mut m);
        layers::fuzz_layers(ctx, id, &specs, &mut m);
    });
    Ok(m)
}
