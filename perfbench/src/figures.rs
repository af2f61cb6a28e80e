//! `figures`: the user regenerates the paper, then re-renders it.
//!
//! A cold pass is `flov fig6` (Baseline / RP / rFLOV / gFLOV x nine gated
//! fractions x rates 0.02 and 0.08, uniform random, 8x8 mesh, at a reduced
//! cycle count) followed by `flov fig8cd` (nine PARSEC proxies x the same
//! mechanisms), both on one `Engine` over an empty result cache. A warm
//! round repeats both calls on a fresh `ResultCache` and `Engine` over the
//! directory a cold pass just filled, so every probe is a hit and every
//! round pays a fresh index scan, as a new `flov` invocation would.

use crate::layers::{self, engine_at, read_entries, result_json, SchedSum};
use crate::stats::{self, Throughput};
use crate::{guarded, time, Ctx, Metrics, SetupClock};
use flov_bench::figures::{fig_parsec, fig_synthetic, parsec_default, ParsecSummary, SynthScale};
use flov_bench::{
    axes, try_run_kernel_audited, Engine, KernelMode, ResultCache, RunResult, RunSpec, Table,
    WorkloadSpec,
};
use flov_workloads::Pattern;
use std::path::{Path, PathBuf};

/// The paper's headline (EXPERIMENTS.md), in percent: gFLOV vs RP total
/// energy, gFLOV vs RP static energy, gFLOV vs Baseline static energy,
/// gFLOV vs Baseline runtime.
const PAPER: [f64; 4] = [-18.0, -22.0, -43.0, 1.0];
/// What `flov fig8cd` prints at its default seed (EXPERIMENTS.md).
const MEASURED_AT_DEFAULT_SEED: [f64; 4] = [-27.0, -26.7, -37.8, 0.2];
const DEFAULT_SEED: u64 = 0xF10F;
/// The `fig_parsec` seeds, indexed by the run's seed modulo 16. Every
/// entry completed all 36 PARSEC runs in earlier benchmark runs. Not every
/// seed does: at seed 303, fluidanimate under gFLOV stops making progress
/// at cycle 62,788 and the core's watchdog panics. The last entry is the
/// figures' default, so `--seed 0xF10F` regenerates `flov fig8cd` exactly.
const PARSEC_SEEDS: [u64; 16] =
    [11, 12, 13, 14, 15, 21, 22, 23, 24, 25, 41, 42, 43, 44, 45, DEFAULT_SEED];

/// Cold passes per second of `--seconds` (one pass takes 4.7 to 7.7 s on
/// a 2-vCPU host), and warm rounds per second. The untimed warm rounds
/// check cold/warm identity; the traced run times `TRACED_WARM_ROUNDS` of
/// them.
const COLD_PASSES_PER_S: f64 = 0.1;
const WARM_ROUNDS_PER_S: u64 = 10;
const TRACED_WARM_ROUNDS: u64 = 300;

struct Plan {
    scale: SynthScale,
    parsec_seed: u64,
    benches: Vec<&'static str>,
    mechs: Vec<&'static str>,
}

fn plan(ctx: &Ctx) -> Plan {
    let (benches, mechs) = parsec_default();
    let parsec_seed = PARSEC_SEEDS[(ctx.seed % PARSEC_SEEDS.len() as u64) as usize];
    if ctx.toy {
        let scale = SynthScale {
            warmup: 200,
            cycles: 1_000,
            drain: 10_000,
            fractions: vec![0.0, 0.8],
            rates: vec![0.02],
            seed: ctx.seed,
        };
        return Plan { scale, parsec_seed, benches: benches[..1].to_vec(), mechs };
    }
    let scale = SynthScale {
        warmup: 1_000,
        cycles: 6_000,
        drain: 30_000,
        fractions: axes::GATED_FRACTIONS.to_vec(),
        rates: axes::INJECTION_RATES.to_vec(),
        seed: ctx.seed,
    };
    Plan { scale, parsec_seed, benches, mechs }
}

impl Plan {
    fn runs(&self) -> u64 {
        let synth = self.scale.fractions.len() * self.scale.rates.len() * 4;
        (synth + self.benches.len() * self.mechs.len()) as u64
    }
}

/// Everything one pass builds: the fig6 tables, the fig8cd table, and
/// the headline summary.
struct Output {
    tables: Vec<Table>,
    summary: ParsecSummary,
}

impl Output {
    /// What the user sees: every table rendered, then the summary's bits.
    /// Cold and warm passes must agree on it byte for byte.
    fn shown(&self) -> String {
        let mut text: String = self.tables.iter().map(Table::render).collect();
        let s = &self.summary;
        let bits = [
            s.flov_vs_rp_total,
            s.flov_vs_rp_static,
            s.flov_vs_base_static,
            s.flov_vs_base_runtime,
        ]
        .map(f64::to_bits);
        text.push_str(&format!("{bits:?}"));
        text
    }
}

/// One pass as a user runs it: `flov fig6`, then `flov fig8cd`. With
/// tracing on, each engine batch gets a span and its scheduler counters
/// are summed into `sched`.
fn pass(ctx: &Ctx, engine: &Engine, plan: &Plan, parent: u32, sched: &mut SchedSum) -> Output {
    let mut tables = Vec::new();
    // One batch per rate, exactly as `fig_synthetic` submits them.
    for &rate in &plan.scale.rates {
        let scale = SynthScale { rates: vec![rate], ..plan.scale.clone() };
        tables.extend(ctx.rec.span(parent, "figures.fig6_batch", |_| {
            fig_synthetic(engine, Pattern::UniformRandom, &scale)
        }));
        sched.add(engine.sched_stats());
    }
    let (table, summary) = ctx.rec.span(parent, "figures.fig8cd_batch", |_| {
        fig_parsec(engine, &plan.benches, plan.parsec_seed, &plan.mechs)
    });
    sched.add(engine.sched_stats());
    tables.push(table);
    Output { tables, summary }
}

/// Set-up before a cold pass, over the empty directory `dir`: the plan,
/// and an engine over `dir` with its (empty) index primed. Creating the
/// scratch directory is the harness's work, not the user's, and is not
/// timed: on ext4 a `mkdir` can wait behind a journal commit.
fn setup(ctx: &Ctx, dir: PathBuf) -> (Plan, PathBuf, Engine) {
    let plan = plan(ctx);
    let engine = engine_at(&dir);
    engine.cache().expect("caching engine").prime_index();
    (plan, dir, engine)
}

/// Flip one byte in the middle of the first entry under `dir`.
fn corrupt_one_entry(ctx: &Ctx, dir: &Path) {
    let mut shards: Vec<PathBuf> =
        std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()).collect();
    shards.sort();
    let victim = shards.iter().filter(|p| p.is_dir()).find_map(|s| {
        let mut files: Vec<PathBuf> =
            std::fs::read_dir(s).into_iter().flatten().flatten().map(|e| e.path()).collect();
        files.sort();
        files.into_iter().find(|f| f.extension().is_some_and(|e| e == "bin"))
    });
    let Some(victim) = victim else {
        ctx.tally.fail(1, 1, "no cache entry to corrupt");
        return;
    };
    let mut bytes = std::fs::read(&victim).expect("entry readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(&victim, bytes).expect("entry writable");
    eprintln!("[perfbench] self-test: corrupted {}", victim.display());
}

/// The deterministic oracle sample: fixed points of the sweep, found by
/// content among the cold entries so the cache layout never matters.
fn oracle_sample(entries: &[(RunSpec, RunResult)], plan: &Plan) -> Vec<(RunSpec, RunResult)> {
    let rates = &plan.scale.rates;
    let fractions = &plan.scale.fractions;
    let targets: [(&str, f64, f64); 2] = [
        ("gFLOV", rates[rates.len() - 1], fractions[fractions.len() / 2]),
        ("rFLOV", rates[0], fractions[fractions.len() - 1]),
    ];
    let mut out = Vec::new();
    for (mech, r, f) in targets {
        out.extend(entries.iter().find(|(s, _)| {
            s.mechanism == mech
                && matches!(s.workload, WorkloadSpec::Synthetic { rate, gated_fraction, .. }
                    if rate == r && gated_fraction == f)
        }));
    }
    out.extend(entries.iter().find(|(s, _)| {
        s.mechanism == "gFLOV"
            && matches!(&s.workload, WorkloadSpec::Parsec { name, .. } if name == plan.benches[0])
    }));
    out.into_iter().cloned().collect()
}

/// Re-run each sampled spec under the reference kernel (the oracle); its
/// serialized result must equal the cached one byte for byte.
fn oracle_check(ctx: &Ctx, sample: &[(RunSpec, RunResult)], expected: usize) {
    if sample.len() < expected {
        ctx.tally.fail(expected as u64, (expected - sample.len()) as u64, "oracle sample missing");
    }
    for (spec, cached) in sample {
        let oracle = guarded(|| try_run_kernel_audited(spec, KernelMode::Reference));
        ctx.tally.check(
            matches!(&oracle, Some(Ok(r)) if result_json(&r.result) == result_json(cached)),
            || format!("reference kernel disagrees with the cached {} result", spec.mechanism),
        );
    }
}

/// Model accuracy beside host speed: the headline against the paper.
/// At the default seed it must reproduce EXPERIMENTS.md's measured column.
fn report_headline(ctx: &Ctx, plan: &Plan, s: &ParsecSummary) {
    let measured =
        [s.flov_vs_rp_total, s.flov_vs_rp_static, s.flov_vs_base_static, s.flov_vs_base_runtime]
            .map(|v| (v * 1000.0).round() / 10.0);
    eprintln!(
        "[perfbench] fig8cd headline (%, gFLOV vs RP total / RP static / Baseline static / \
         Baseline runtime): measured {measured:?}, paper {PAPER:?}"
    );
    let full = plan.benches.len() == parsec_default().0.len();
    if full && plan.parsec_seed == DEFAULT_SEED {
        ctx.tally.check(measured == MEASURED_AT_DEFAULT_SEED, || {
            format!("fig8cd headline {measured:?} != EXPERIMENTS.md {MEASURED_AT_DEFAULT_SEED:?}")
        });
    }
}

/// `rounds` warm rounds over `dir`: each a fresh cache handle and engine,
/// every probe a hit, the output equal to the cold pass's `shown`. A few
/// rounds also time a set-up.
fn warm_block(
    ctx: &Ctx,
    dir: &Path,
    plan: &Plan,
    shown: &str,
    rounds: u64,
    warm: &mut Throughput,
    clock: &mut SetupClock,
) {
    for i in 0..rounds {
        if SetupClock::due(i, rounds) {
            let dir = ctx.fresh_dir("figures");
            clock.time(|| setup(ctx, dir));
        }
        let ((engine, out), wall) = time(|| {
            let engine = engine_at(dir);
            let out = guarded(|| pass(ctx, &engine, plan, 0, &mut SchedSum::default()));
            (engine, out)
        });
        let st = engine.stats();
        let Some(out) = out else {
            ctx.tally.fail(plan.runs(), plan.runs(), "warm pass panicked");
            continue;
        };
        let probes = st.unique as u64;
        if st.simulated > 0 {
            ctx.tally.fail(probes, st.simulated as u64, "warm probes missed the cache");
        } else {
            ctx.tally.ok(probes);
        }
        ctx.tally.check(out.shown() == shown, || "warm pass differs from the cold pass".into());
        warm.add(probes as f64, wall);
    }
}

pub fn run(ctx: &Ctx) -> Result<Metrics, String> {
    let passes = ((ctx.seconds as f64 * COLD_PASSES_PER_S).round() as u64).max(1);
    let block = (ctx.seconds * WARM_ROUNDS_PER_S).div_ceil(passes).max(1);
    let mut clock = SetupClock::default();
    let (mut cold, mut warm, mut cold_walls) =
        (Throughput::default(), Throughput::default(), Vec::new());
    let mut first: Option<(String, ParsecSummary)> = None;
    let mut last = None;
    for k in 0..passes {
        let dir = ctx.fresh_dir("figures");
        let (plan, dir, engine) = clock.time(|| setup(ctx, dir));
        let expected = plan.runs();
        let (out, wall) =
            time(|| guarded(|| pass(ctx, &engine, &plan, 0, &mut SchedSum::default())));
        let Some(out) = out else {
            ctx.tally.fail(expected, expected, "cold pass panicked");
            continue;
        };
        let st = engine.stats();
        ctx.tally.check(st.simulated as u64 == expected && st.cached == 0, || {
            format!(
                "cold pass simulated {} of {expected} runs ({} cached)",
                st.simulated, st.cached
            )
        });
        ctx.tally.ok(expected - 1);
        cold.add(st.simulated as f64, wall);
        cold_walls.push(wall);
        let shown = out.shown();
        match &first {
            Some((text, _)) => {
                ctx.tally.check(*text == shown, || "cold passes rendered differently".into())
            }
            None => first = Some((shown, out.summary)),
        }
        let vr = ResultCache::new(&dir).verify();
        if vr.quarantined > 0 {
            ctx.tally.fail(vr.checked as u64, vr.quarantined as u64, "verify quarantined entries");
        }
        if ctx.corrupt_entry && k == 0 {
            corrupt_one_entry(ctx, &dir);
        }
        // Warm blocks interleave with the cold passes, so both sample the
        // same stretches of host time.
        if let Some((text, _)) = &first {
            warm_block(ctx, &dir, &plan, text, block, &mut warm, &mut clock);
        }
        last = Some((plan, dir));
    }
    // Read before the untimed checks below, so only the workload sets it.
    let peak_rss_mb = crate::host::peak_rss_mb();
    let (Some((plan, dir)), Some((_, summary))) = (last, first) else {
        return Err("no cold pass completed".into());
    };
    eprintln!(
        "[perfbench] cold passes {cold_walls:.3?} s; warm rounds p10/p50/p90 \
         {:.0}/{:.0}/{:.0} probes/s over {}; peak RSS {peak_rss_mb:.1} MB",
        warm.quantile(0.1),
        warm.quantile(0.5),
        warm.quantile(0.9),
        warm.rounds(),
    );
    report_headline(ctx, &plan, &summary);
    let entries = read_entries(ctx, &dir);
    oracle_check(ctx, &oracle_sample(&entries, &plan), 3);

    let mut m = Metrics::new();
    m.insert("setup_s", clock.median());
    m.insert("cold_runs_per_s", cold.per_s());
    m.insert("sim_wall_s", stats::median(&cold_walls));
    m.insert("peak_rss_mb", peak_rss_mb);
    Ok(m)
}

pub fn run_traced(ctx: &Ctx) -> Result<Metrics, String> {
    let (_, _, untraced_engine) = setup(ctx, ctx.fresh_dir("figures"));
    let (plan, dir, engine) = setup(ctx, ctx.fresh_dir("figures"));
    let (untraced, untraced_s) =
        time(|| guarded(|| pass(ctx, &untraced_engine, &plan, 0, &mut SchedSum::default())));
    let untraced = untraced.ok_or("untraced cold pass panicked")?;

    let mut m = Metrics::new();
    ctx.rec.set_on(true);
    let mut sched = SchedSum::default();
    let cpu0 = crate::host::cpu_seconds();
    let (traced, traced_s) = ctx.rec.span(0, "figures.cold_pass", |id| {
        time(|| guarded(|| pass(ctx, &engine, &plan, id, &mut sched)))
    });
    let cpu = crate::host::cpu_seconds() - cpu0;
    let shown = traced.ok_or("traced cold pass panicked")?.shown();
    ctx.tally.check(shown == untraced.shown(), || "traced and untraced passes differ".into());
    m.insert("trace.overhead_s", traced_s - untraced_s);
    m.insert("host.cpu_per_wall", cpu / traced_s);
    sched.record(&mut m);
    let mut warm = Throughput::default();
    ctx.rec.span(0, "figures.warm_rounds", |_| {
        let mut clock = SetupClock::default();
        warm_block(ctx, &dir, &plan, &shown, TRACED_WARM_ROUNDS, &mut warm, &mut clock);
    });
    m.insert("engine.warm_probes_per_s", warm.per_s());

    let entries = read_entries(ctx, &dir);
    ctx.tally.check(entries.len() as u64 == plan.runs(), || {
        format!("cold pass left {} of {} entries", entries.len(), plan.runs())
    });
    ctx.rec.span(0, "figures.layers", |id| {
        layers::cache_layers(ctx, id, &entries, &dir, &mut m);
        let (specs, results): (Vec<RunSpec>, Vec<RunResult>) = entries.iter().cloned().unzip();
        let fresh = layers::engine_runs(ctx, id, &specs, Some(&results), &mut m);
        layers::network(ctx, id, &specs, &fresh, &mut m);
        // The heaviest fig6 point (rFLOV, highest rate, nothing gated),
        // ten times, so the 10 ms CPU clock resolves `par.cpu_per_wall`.
        let top = plan.scale.rates[plan.scale.rates.len() - 1];
        let heavy = specs.iter().find(|s| {
            s.mechanism == "rFLOV"
                && matches!(s.workload, WorkloadSpec::Synthetic { rate, gated_fraction, .. }
                    if rate == top && gated_fraction == 0.0)
        });
        let repeats: Vec<&RunSpec> = heavy.into_iter().cycle().take(10).collect();
        layers::par(ctx, id, &repeats, &mut m);
        let sample = oracle_sample(&entries, &plan);
        let sample_specs: Vec<RunSpec> = sample.into_iter().map(|(s, _)| s).collect();
        layers::fuzz_layers(ctx, id, &sample_specs, &mut m);
    });
    Ok(m)
}
