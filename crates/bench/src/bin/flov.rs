//! `flov` — the single command-line front end for every experiment in
//! this reproduction. One subcommand per paper table/figure plus the
//! beyond-the-paper studies, a one-off simulator (`sim`), a batch runner
//! over serialized specs (`sweep`), and result-cache maintenance.
//!
//! Every subcommand runs through the caching sweep [`Engine`]: results
//! persist under `results/cache/` keyed by the content of each spec, so
//! re-generating a figure costs one cache read per run instead of one
//! simulation.
//!
//! Usage: `cargo run --release -p flov-bench --bin flov -- <subcommand>`
//!
//! Global flags (valid after any subcommand):
//!   --quick        reduced-scale sweep (smoke runs)
//!   --cache-dir D  cache location (default $FLOV_CACHE_DIR or results/cache)
//!   --no-cache     always simulate; touch no files
//!   --quiet        suppress stderr progress + engine summary

use flov_bench::engine::Engine;
use flov_bench::figures::{
    fig_breakdown, fig_parsec, fig_static, fig_synthetic, fig_timeline, overhead, parsec_default,
    table1, SynthScale,
};
use flov_bench::{ablations, studies, tracefmt, ResultCache, RunResult, RunSpec, WorkloadSpec};
use flov_core::mechanism;
use flov_noc::{render, TopologySpec};
use flov_workloads::Pattern;

const USAGE: &str = "\
flov — FLOV reproduction experiment runner

usage: flov <subcommand> [options]

paper figures and tables:
  fig6        Uniform Random latency/power sweep       (was: fig6)
  fig7        Tornado latency/power sweep              (was: fig7)
  fig8ab      latency breakdown, UR + Tornado          (was: fig8ab)
  fig8cd      PARSEC full-system + headline summary    (was: fig8cd)
  fig9        static power vs gated fraction           (was: fig9)
  fig10       reconfiguration timeline                 (was: fig10)
  table1      testbed parameters                       (was: table1)
  overhead    router area/overhead analysis            (was: overhead)

studies:
  ablations   design-choice sensitivity sweeps         (was: ablations)
  nord        NoRD vs FLOV critique, 2 experiments     (was: nord)
  related     six-mechanism landscape                  (was: related)
  scaling     4x4..16x16 mesh scaling                  (was: scaling)

tools:
  parsec      selectable PARSEC subset
              [--bench NAME]... [--mech NAME]... [--seed S]
  sim         one-off simulation with a full report    (was: flov-sim)
              [--mech M] [--pattern P] [--rate R] [--gated F] [--cycles N]
              [--warmup N] [--seed S] [--k K] [--parsec BENCH] [--json] [--map]
              [--audit] [--topology mesh|torus|cmesh:C|rect:KXxKY]
              [--mmpp R1,R2,..] (MMPP bursty traffic: random-dwell phases)
              [--diurnal R1,R2,..] (fixed-dwell load phases)
              [--dwell N] (mean [mmpp] / exact [diurnal] phase length)
              [--threads N] (sharded parallel kernel, planner-chosen grid)
              [--tiles RxC] (sharded parallel kernel, explicit 2-D geometry)
  trace       record/replay compact binary flit traces (.flovtrace:
              varint delta records + CRC-32C, source spec embedded)
              record: capture a run's injection stream + core schedule
                [any sim workload flag] [--out FILE.flovtrace] [--json]
              replay: re-run a recorded stream, bit-identical on every
              kernel (pair with --no-cache when comparing kernels)
                --in FILE.flovtrace [--json] [--closed-loop]
  sweep       run a batch of serialized RunSpecs
              --spec FILE.json (one spec or an array); JSON results on stdout
  bench-kernel  time the cycle kernels (active-set vs reference) on 8x8
              idle/low-load/mid-load/saturated traffic, plus the sharded
              parallel kernel (2/4 tiles, planner-chosen 2-D grids) on
              16x16/32x32/64x64; verifies all kernels stay bit-identical;
              per-phase wall-time breakdown per row; report to stdout and
              --out (BENCH_kernel.json)
              [--quick] [--min-cps N] [--min-skip FRAC]
              [--min-parallel-speedup X] [--out PATH]
  bench-engine  time the batch engine end to end: a cold sweep into an
              empty sharded binary cache (work-stealing scheduler), then
              a warm replay through a fresh index; asserts both lanes
              byte-identical; report to stdout and --out
              (BENCH_engine.json)
              [--quick] [--runs N] [--min-warm-probe-rate R] [--out PATH]
  fuzz        differential fuzzer: random specs through all three kernels
              (active-set, reference, sharded parallel) with
              the invariant auditor on; failures shrink to repro JSONs in
              results/fuzz/ and exit nonzero
              [--runs N] [--max-cycles N] [--seed S] [--out DIR]
              [--replay FILE.json]
  cache       result-cache maintenance
              stats | clear | verify | migrate
              | gc [--max-bytes N[K|M|G]] [--max-age N[s|m|h|d]]
              (verify re-derives every entry's content hash; migrate
              rewrites JSON entries older builds wrote as sharded binary,
              hash-preserving; gc evicts oldest-first by last use)

global flags: [--quick] [--cache-dir DIR] [--no-cache] [--quiet]
              (FLOV_QUIET=1 also silences progress; non-TTY stderr gets
              plain per-5% progress lines instead of redraws)
";

fn usage() -> ! {
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// The value following `flag`, if present.
fn flag_value(argv: &[String], flag: &str) -> Option<String> {
    argv.iter().position(|a| a == flag).map(|i| {
        argv.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            std::process::exit(2);
        })
    })
}

/// Every value of a repeatable `flag`.
fn flag_values(argv: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == flag {
            match argv.get(i + 1) {
                Some(v) => out.push(v.clone()),
                None => {
                    eprintln!("error: {flag} needs a value");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        i += 1;
    }
    out
}

fn parse_pattern(name: &str) -> Pattern {
    match name {
        "uniform" => Pattern::UniformRandom,
        "tornado" => Pattern::Tornado,
        "transpose" => Pattern::Transpose,
        "bitcomp" => Pattern::BitComplement,
        "neighbor" => Pattern::Neighbor,
        _ => {
            eprintln!(
                "error: unknown pattern {name:?} (uniform|tornado|transpose|bitcomp|neighbor)"
            );
            std::process::exit(2);
        }
    }
}

fn parse_or_die<T: std::str::FromStr>(what: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid {what}: {v:?}");
        std::process::exit(2);
    })
}

/// Parse `--topology` (`mesh` | `torus` | `cmesh:C` | `rect:KXxKY`); the
/// square variants take their radix from `--k`.
fn parse_topology(v: &str, k: u16) -> TopologySpec {
    if v == "mesh" {
        TopologySpec::Mesh { k }
    } else if v == "torus" {
        TopologySpec::Torus { k }
    } else if let Some(c) = v.strip_prefix("cmesh:") {
        TopologySpec::CMesh { k, c: parse_or_die("--topology cmesh concentration", c) }
    } else if let Some(dims) = v.strip_prefix("rect:") {
        let Some((kx, ky)) = dims.split_once('x') else {
            eprintln!("error: rect topology needs KXxKY, got {dims:?}");
            std::process::exit(2);
        };
        TopologySpec::RectMesh {
            kx: parse_or_die("--topology rect width", kx),
            ky: parse_or_die("--topology rect height", ky),
        }
    } else {
        eprintln!("error: unknown topology {v:?} (mesh|torus|cmesh:C|rect:KXxKY)");
        std::process::exit(2);
    }
}

/// Parse a byte budget with an optional `K`/`M`/`G` suffix (powers of
/// 1024), e.g. `64M`.
fn parse_bytes(v: &str) -> u64 {
    let (digits, mult) = match v.as_bytes().last() {
        Some(b'K' | b'k') => (&v[..v.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&v[..v.len() - 1], 1u64 << 20),
        Some(b'G' | b'g') => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v, 1),
    };
    let n: u64 = parse_or_die("--max-bytes", digits);
    n.checked_mul(mult).unwrap_or_else(|| {
        eprintln!("error: --max-bytes overflows: {v:?}");
        std::process::exit(2);
    })
}

/// Parse an age with an optional `s`/`m`/`h`/`d` suffix (default
/// seconds), e.g. `30d`.
fn parse_age(v: &str) -> std::time::Duration {
    let (digits, mult) = match v.as_bytes().last() {
        Some(b's') => (&v[..v.len() - 1], 1u64),
        Some(b'm') => (&v[..v.len() - 1], 60),
        Some(b'h') => (&v[..v.len() - 1], 3_600),
        Some(b'd') => (&v[..v.len() - 1], 86_400),
        _ => (v, 1),
    };
    let n: u64 = parse_or_die("--max-age", digits);
    std::time::Duration::from_secs(n.checked_mul(mult).unwrap_or_else(|| {
        eprintln!("error: --max-age overflows: {v:?}");
        std::process::exit(2);
    }))
}

/// Surface a config problem as a diagnostic instead of a panic. This is
/// full spec-level validation (`RunSpec::validate`): NoC shape problems
/// *and* workload problems — an over-saturated injection rate, an empty
/// MMPP rate list — all exit 2 with the structured `ConfigError` text.
fn validate_or_die(spec: &RunSpec) {
    if let Err(e) = spec.validate() {
        eprintln!("error: invalid configuration for {}: {e}", spec.mechanism);
        std::process::exit(2);
    }
}

fn check_mech(name: &str) {
    if !mechanism::NAMES.contains(&name) {
        eprintln!("error: unknown mechanism {name:?} (one of: {})", mechanism::NAMES.join("|"));
        std::process::exit(2);
    }
}

/// Check every `FLOV_*` switch once, before any subcommand runs, so a bad
/// value exits 2 like the equivalent flag instead of panicking inside a run
/// (or passing unnoticed when every run is a cache hit).
fn check_env_or_die() {
    let errors = [
        flov_bench::kernel_from_env().err(),
        flov_bench::threads_from_env().err(),
        flov_bench::tiles_from_env().err(),
        flov_bench::audit_override().err(),
    ];
    if let Some(e) = errors.into_iter().flatten().next() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else { usage() };
    let rest = &argv[1..];
    check_env_or_die();

    let quick = argv.iter().any(|a| a == "--quick");
    let quiet = argv.iter().any(|a| a == "--quiet");
    let no_cache = argv.iter().any(|a| a == "--no-cache");
    let cache_dir = flag_value(&argv, "--cache-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(ResultCache::default_dir);

    let mut engine = if no_cache {
        Engine::without_cache().verbose()
    } else {
        Engine::with_cache_dir(&cache_dir)
    };
    if quiet {
        engine = engine.quiet();
    }

    match cmd.as_str() {
        "fig6" | "fig7" => {
            let pattern = if cmd == "fig6" { Pattern::UniformRandom } else { Pattern::Tornado };
            let scale = SynthScale::from_args();
            for (i, t) in fig_synthetic(&engine, pattern, &scale).iter().enumerate() {
                t.emit(&format!("{cmd}_{i}"));
            }
        }
        "fig8ab" => {
            let scale = SynthScale::from_args();
            fig_breakdown(&engine, Pattern::UniformRandom, &scale).emit("fig8a");
            fig_breakdown(&engine, Pattern::Tornado, &scale).emit("fig8b");
        }
        "fig8cd" => {
            let (benches, mechs) = parsec_default();
            let benches: Vec<&str> = if quick { benches[..2].to_vec() } else { benches };
            let (table, s) = fig_parsec(&engine, &benches, 0xF10F, &mechs);
            table.emit("fig8cd");
            println!("== headline summary (geometric means over {} benchmarks) ==", benches.len());
            println!(
                "paper: FLOV vs RP       total energy  -18%   | measured: {:+.1}%",
                s.flov_vs_rp_total * 100.0
            );
            println!(
                "paper: FLOV vs RP       static energy -22%   | measured: {:+.1}%",
                s.flov_vs_rp_static * 100.0
            );
            println!(
                "paper: FLOV vs Baseline static energy -43%   | measured: {:+.1}%",
                s.flov_vs_base_static * 100.0
            );
            println!(
                "paper: FLOV vs Baseline runtime       +1%    | measured: {:+.1}%",
                s.flov_vs_base_runtime * 100.0
            );
        }
        "fig9" => {
            fig_static(&engine, &SynthScale::from_args()).emit("fig9");
        }
        "fig10" => {
            fig_timeline(&engine, &SynthScale::from_args()).emit("fig10");
        }
        "table1" => {
            table1().emit("table1");
        }
        "overhead" => {
            overhead().emit("overhead");
        }
        "ablations" => {
            let cycles = if quick { 12_000 } else { 100_000 };
            for (i, t) in ablations::all(&engine, cycles).iter().enumerate() {
                t.emit(&format!("ablation_{i}"));
            }
        }
        "nord" => {
            let tables = studies::nord_study(&engine, quick);
            tables[0].emit("nord_sweep");
            tables[1].emit("nord_scaling");
            println!("Expected: NoRD's static power is the lowest (gates everything, no AON");
            println!("column) but its latency diverges with k — the paper's scalability point.");
        }
        "related" => {
            studies::related_landscape(&engine, quick).emit("related");
            println!("Reading guide: NoRD = lowest static, worst latency (ring trips).");
            println!(
                "PowerPunch = good latency, but wake/sleep churn (gating events, 17.7 pJ each)"
            );
            println!("and punched paths stay powered. gFLOV = near-NoRD static at near-Baseline");
            println!("latency with zero per-packet wakeups — the paper's positioning.");
        }
        "scaling" => {
            studies::mesh_scaling(&engine, quick).emit("scaling");
            println!("Expected shape: RP's stall node-cycles and latency penalty grow with k;");
            println!("gFLOV's latency stays near Baseline at every size (local handshakes).");
        }
        "parsec" => {
            let (default_benches, default_mechs) = parsec_default();
            let bench_args = flag_values(rest, "--bench");
            let mech_args = flag_values(rest, "--mech");
            let benches: Vec<&str> = if bench_args.is_empty() {
                if quick {
                    default_benches[..2].to_vec()
                } else {
                    default_benches
                }
            } else {
                bench_args.iter().map(|s| s.as_str()).collect()
            };
            let mut mechs: Vec<&str> = if mech_args.is_empty() {
                default_mechs
            } else {
                mech_args.iter().map(|s| s.as_str()).collect()
            };
            mechs.iter().for_each(|m| check_mech(m));
            // The normalization column needs Baseline even when the user
            // only asked for one mechanism.
            if !mechs.contains(&"Baseline") {
                mechs.insert(0, "Baseline");
            }
            let seed =
                flag_value(rest, "--seed").map(|v| parse_or_die("--seed", &v)).unwrap_or(0xF10F);
            for bench in &benches {
                mechs.iter().for_each(|m| validate_or_die(&RunSpec::parsec(m, bench, seed)));
            }
            let (table, _) = fig_parsec(&engine, &benches, seed, &mechs);
            table.emit("parsec");
        }
        "sim" => sim(&engine, rest),
        "trace" => match rest.first().map(|s| s.as_str()) {
            Some("record") => trace_record(&rest[1..]),
            Some("replay") => trace_replay(&engine, &rest[1..]),
            _ => {
                eprintln!("error: trace needs a record or replay subcommand\n");
                usage();
            }
        },
        "sweep" => {
            let path = flag_value(rest, "--spec").unwrap_or_else(|| {
                eprintln!("error: sweep needs --spec FILE.json");
                std::process::exit(2);
            });
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            });
            // Accept a single spec object or an array of specs.
            let specs: Vec<RunSpec> = match serde_json::from_str::<Vec<RunSpec>>(&text) {
                Ok(s) => s,
                Err(_) => match serde_json::from_str::<RunSpec>(&text) {
                    Ok(s) => vec![s],
                    Err(e) => {
                        eprintln!("error: {path} is not a RunSpec or a list of them: {e}");
                        std::process::exit(1);
                    }
                },
            };
            specs.iter().for_each(validate_or_die);
            let results: Vec<RunResult> = engine.run_batch(&specs);
            println!("{}", serde_json::to_string_pretty(&results).expect("results serialize"));
        }
        "bench-kernel" => {
            let min_cps: Option<f64> =
                flag_value(rest, "--min-cps").map(|v| parse_or_die("--min-cps", &v));
            let min_skip: Option<f64> =
                flag_value(rest, "--min-skip").map(|v| parse_or_die("--min-skip", &v));
            let min_parallel_speedup: Option<f64> = flag_value(rest, "--min-parallel-speedup")
                .map(|v| parse_or_die("--min-parallel-speedup", &v));
            let out = flag_value(rest, "--out").unwrap_or_else(|| "BENCH_kernel.json".into());
            let report =
                flov_bench::kernel_bench::run_bench(quick, min_cps, min_skip, min_parallel_speedup);
            let json = serde_json::to_string_pretty(&report).expect("bench report serialization");
            std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| {
                eprintln!("error: cannot write {out}: {e}");
                std::process::exit(1);
            });
            println!("{json}");
            eprintln!("[flov] bench-kernel report written to {out}");
        }
        "fuzz" => {
            if let Some(path) = flag_value(rest, "--replay") {
                match flov_bench::fuzz::replay(std::path::Path::new(&path)) {
                    Ok(None) => println!("repro {path}: no longer reproduces (clean)"),
                    Ok(Some((kind, detail))) => {
                        println!("repro {path}: still fails\n  kind:   {kind}\n  detail: {detail}");
                        std::process::exit(1);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
                return;
            }
            let mut opts = flov_bench::fuzz::FuzzOptions::default();
            if let Some(v) = flag_value(rest, "--runs") {
                opts.runs = parse_or_die("--runs", &v);
            }
            if let Some(v) = flag_value(rest, "--max-cycles") {
                opts.max_cycles = parse_or_die("--max-cycles", &v);
            }
            if let Some(v) = flag_value(rest, "--seed") {
                opts.seed = parse_or_die("--seed", &v);
            }
            if let Some(v) = flag_value(rest, "--out") {
                opts.out_dir = std::path::PathBuf::from(v);
            }
            let report = flov_bench::fuzz::fuzz(&opts);
            println!(
                "fuzz: {} cases (seed {:#x}, max {} cycles), {} finding(s)",
                report.cases,
                opts.seed,
                opts.max_cycles,
                report.findings.len()
            );
            for f in &report.findings {
                println!("  case {:>4}  {}", f.case, f.kind);
                println!("    detail: {}", f.detail);
                match &f.path {
                    Some(p) => println!("    repro:  {}", p.display()),
                    None => println!("    repro:  (write failed)"),
                }
            }
            if !report.clean() {
                std::process::exit(1);
            }
        }
        "cache" => {
            let cache = ResultCache::new(&cache_dir);
            match rest.first().map(|s| s.as_str()) {
                Some("stats") => {
                    let s = cache.stats();
                    println!("cache dir    {}", cache.dir().display());
                    println!("entries      {}", s.entries);
                    println!("total size   {} bytes", s.total_bytes);
                    println!("shard dirs   {}", s.shard_dirs);
                    if s.awaiting_migrate > 0 {
                        println!(
                            "json         {} awaiting migrate (run `flov cache migrate`)",
                            s.awaiting_migrate
                        );
                    }
                    println!("quarantined  {} ({} bytes)", s.quarantined, s.quarantined_bytes);
                    if s.atime_bump_failures > 0 {
                        println!(
                            "atime bumps  {} failed — access times are stale \
                             (noatime/read-only mount?); gc orders by mtime",
                            s.atime_bump_failures
                        );
                    } else {
                        println!("atime bumps  ok (gc orders by last use)");
                    }
                }
                Some("clear") => {
                    let n = cache.clear().unwrap_or_else(|e| {
                        eprintln!("error: clearing cache: {e}");
                        std::process::exit(1);
                    });
                    println!("removed {n} entries from {}", cache.dir().display());
                }
                Some("verify") => {
                    let r = cache.verify();
                    println!(
                        "verified {} entries: {} ok, {} quarantined",
                        r.checked, r.ok, r.quarantined
                    );
                    if r.quarantined > 0 {
                        std::process::exit(1);
                    }
                }
                Some("migrate") => {
                    let r = cache.migrate().unwrap_or_else(|e| {
                        eprintln!("error: migrating cache: {e}");
                        std::process::exit(1);
                    });
                    println!(
                        "migrated {} JSON entries to binary, {} already binary, \
                         {} superseded by binary, {} quarantined",
                        r.migrated, r.already_binary, r.superseded, r.quarantined
                    );
                }
                Some("gc") => {
                    let opts = flov_bench::GcOptions {
                        max_bytes: flag_value(rest, "--max-bytes").map(|v| parse_bytes(&v)),
                        max_age: flag_value(rest, "--max-age").map(|v| parse_age(&v)),
                    };
                    if opts.max_bytes.is_none() && opts.max_age.is_none() {
                        eprintln!("error: gc needs --max-bytes and/or --max-age");
                        std::process::exit(2);
                    }
                    let r = cache.gc(&opts).unwrap_or_else(|e| {
                        eprintln!("error: gc: {e}");
                        std::process::exit(1);
                    });
                    println!(
                        "gc: scanned {} entries ({} bytes), removed {} ({} bytes)",
                        r.scanned, r.scanned_bytes, r.removed, r.removed_bytes
                    );
                }
                _ => usage(),
            }
        }
        "bench-engine" => {
            let runs: Option<usize> =
                flag_value(rest, "--runs").map(|v| parse_or_die("--runs", &v));
            let min_warm_probe_rate: Option<f64> = flag_value(rest, "--min-warm-probe-rate")
                .map(|v| parse_or_die("--min-warm-probe-rate", &v));
            let out = flag_value(rest, "--out").unwrap_or_else(|| "BENCH_engine.json".into());
            let report = flov_bench::engine_bench::run_bench(quick, runs, min_warm_probe_rate);
            let json = serde_json::to_string_pretty(&report).expect("bench report serialization");
            std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| {
                eprintln!("error: cannot write {out}: {e}");
                std::process::exit(1);
            });
            println!("{json}");
            eprintln!("[flov] bench-engine report written to {out}");
        }
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("error: unknown subcommand {other:?}\n");
            usage();
        }
    }
    let failed = flov_bench::runs_with_violations();
    if failed > 0 {
        eprintln!("error: {failed} simulated run(s) reported audit violations (see above)");
        std::process::exit(1);
    }
}

/// Workload/run-shape flags shared by `sim` and `trace record`.
struct SimArgs {
    mech: String,
    pattern: Pattern,
    rate: f64,
    gated: f64,
    cycles: u64,
    warmup: u64,
    seed: u64,
    k: u16,
    topology: Option<String>,
    parsec: Option<String>,
    mmpp: Option<Vec<f64>>,
    diurnal: Option<Vec<f64>>,
    dwell: u64,
    json: bool,
    map: bool,
    audit: bool,
    threads: Option<usize>,
    tiles: Option<String>,
    out: Option<String>,
}

/// Comma-separated per-phase injection rates (values are validated by
/// `RunSpec::validate`, so an over-saturated phase still exits 2).
fn parse_rates(flag: &str, v: &str) -> Vec<f64> {
    v.split(',').map(|r| parse_or_die(flag, r)).collect()
}

fn parse_sim_args(rest: &[String]) -> SimArgs {
    let mut a = SimArgs {
        mech: "gFLOV".to_string(),
        pattern: Pattern::UniformRandom,
        rate: 0.02,
        gated: 0.5,
        cycles: 100_000,
        warmup: 10_000,
        seed: 0xF10F,
        k: 8,
        topology: None,
        parsec: None,
        mmpp: None,
        diurnal: None,
        dwell: 10_000,
        json: false,
        map: false,
        audit: false,
        threads: None,
        tiles: None,
        out: None,
    };
    let mut i = 0;
    while i < rest.len() {
        let val = |i: &mut usize| -> String {
            *i += 1;
            rest.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("error: {} needs a value", rest[*i - 1]);
                std::process::exit(2);
            })
        };
        match rest[i].as_str() {
            "--mech" => a.mech = val(&mut i),
            "--pattern" => a.pattern = parse_pattern(&val(&mut i)),
            "--rate" => a.rate = parse_or_die("--rate", &val(&mut i)),
            "--gated" => a.gated = parse_or_die("--gated", &val(&mut i)),
            "--cycles" => a.cycles = parse_or_die("--cycles", &val(&mut i)),
            "--warmup" => a.warmup = parse_or_die("--warmup", &val(&mut i)),
            "--seed" => a.seed = parse_or_die("--seed", &val(&mut i)),
            "--k" => a.k = parse_or_die("--k", &val(&mut i)),
            "--topology" => a.topology = Some(val(&mut i)),
            "--parsec" => a.parsec = Some(val(&mut i)),
            "--mmpp" => a.mmpp = Some(parse_rates("--mmpp", &val(&mut i))),
            "--diurnal" => a.diurnal = Some(parse_rates("--diurnal", &val(&mut i))),
            "--dwell" => a.dwell = parse_or_die("--dwell", &val(&mut i)),
            "--json" => a.json = true,
            "--map" => a.map = true,
            "--audit" => a.audit = true,
            "--threads" => a.threads = Some(parse_or_die("--threads", &val(&mut i))),
            "--tiles" => a.tiles = Some(val(&mut i)),
            "--out" => a.out = Some(val(&mut i)),
            // Global flags were already consumed in main.
            "--quick" | "--no-cache" | "--quiet" => {}
            "--cache-dir" => {
                val(&mut i);
            }
            _ => usage(),
        }
        i += 1;
    }
    if a.mmpp.is_some() && a.diurnal.is_some() {
        eprintln!("error: --mmpp and --diurnal are mutually exclusive");
        std::process::exit(2);
    }
    a
}

fn build_sim_spec(a: &SimArgs) -> RunSpec {
    check_mech(&a.mech);
    let mut b = RunSpec::builder().mechanism(&a.mech).k(a.k).seed(a.seed).audit(a.audit);
    if let Some(t) = &a.topology {
        b = b.topology(parse_topology(t, a.k));
    }
    b = match &a.parsec {
        Some(bench) => b.parsec(bench),
        None => {
            let mut b = b
                .pattern(a.pattern)
                .gated_fraction(a.gated)
                .warmup(a.warmup)
                .cycles(a.cycles)
                .drain(a.cycles);
            b = if let Some(rates) = &a.mmpp {
                b.mmpp(rates.clone(), a.dwell)
            } else if let Some(rates) = &a.diurnal {
                b.diurnal(rates.clone(), a.dwell)
            } else {
                b.rate(a.rate)
            };
            b
        }
    };
    b.build()
}

/// Apply `--threads`/`--tiles` by selecting the parallel kernel via env.
fn apply_kernel_flags(a: &SimArgs) {
    if let Some(t) = a.threads {
        // Reject t == 0 here: a cache hit would otherwise skip the kernel
        // lookup (kernel mode is not in the cache key) and mask the error.
        if t == 0 {
            eprintln!("error: --threads must be >= 1");
            std::process::exit(2);
        }
        // Route the run through the sharded parallel kernel. Kernel choice
        // never enters the cache key (all kernels are bit-identical), so
        // env selection is safe for cached engines too.
        std::env::set_var("FLOV_KERNEL", "parallel");
        std::env::set_var("FLOV_THREADS", t.to_string());
    }
    if let Some(g) = &a.tiles {
        // Validate eagerly for the same cache-hit reason as --threads.
        if flov_bench::parse_tile_geometry(g).is_none() {
            eprintln!("error: --tiles wants RxC (e.g. 4x2), got {g:?}");
            std::process::exit(2);
        }
        std::env::set_var("FLOV_KERNEL", "parallel");
        std::env::set_var("FLOV_TILES", g);
    }
}

/// `flov trace record` — run a spec (same workload flags as `sim`) with
/// the recording wrapper on, then persist the captured stream as a
/// `.flovtrace` container. The run itself is bit-identical to `sim`.
fn trace_record(rest: &[String]) {
    let a = parse_sim_args(rest);
    let out = a.out.clone().unwrap_or_else(|| "trace.flovtrace".to_string());
    // Embed the *resolved* spec so replay rebuilds the exact run shape
    // (mechanism parameters included) without re-resolving.
    let spec = build_sim_spec(&a).resolved();
    validate_or_die(&spec);
    apply_kernel_flags(&a);
    let kernel = flov_bench::kernel_from_env().expect("FLOV_* switches are checked at startup");
    let (audited, data) = flov_bench::record_trace(&spec, kernel).unwrap_or_else(|e| {
        eprintln!("error: invalid configuration for {}: {e}", spec.mechanism);
        std::process::exit(2);
    });
    let result = flov_bench::report_violations(&spec.mechanism, audited);
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    let bytes = tracefmt::encode_trace(flov_bench::KERNEL_VERSION, &spec_json, &data);
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("crc trailer"));
    std::fs::write(&out, &bytes).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[flov] trace: {} packets, {} core events, {} change pulses -> {out} \
         ({} bytes, crc {crc:08x})",
        data.packets.len(),
        data.core_events.len(),
        data.changed_cycles.len(),
        bytes.len()
    );
    if a.json {
        println!("{}", serde_json::to_string_pretty(&result).expect("result serializes"));
    } else {
        println!("recorded {} run -> {out} (crc {crc:08x})", spec.mechanism);
    }
}

/// `flov trace replay` — rebuild the recorded run with its workload
/// swapped for the trace stream. Results are bit-identical to the source
/// run on every kernel (use `--no-cache` when comparing kernels: kernel
/// mode is not part of the cache key).
fn trace_replay(engine: &Engine, rest: &[String]) {
    let input = flag_value(rest, "--in").unwrap_or_else(|| {
        eprintln!("error: trace replay needs --in FILE.flovtrace");
        std::process::exit(2);
    });
    let json = rest.iter().any(|a| a == "--json");
    let bytes = std::fs::read(&input).unwrap_or_else(|e| {
        eprintln!("error: cannot read {input}: {e}");
        std::process::exit(1);
    });
    let file = tracefmt::decode_trace(&bytes).unwrap_or_else(|e| {
        eprintln!("error: {input}: {}", e.0);
        std::process::exit(1);
    });
    let mut spec: RunSpec = serde_json::from_str(&file.source_spec_json).unwrap_or_else(|e| {
        eprintln!("error: {input}: embedded source spec does not parse: {e}");
        std::process::exit(1);
    });
    // A PARSEC source ran closed-loop (until delivery), so its replay
    // must too; synthetic sources replay open-loop unless overridden.
    let closed_loop = rest.iter().any(|a| a == "--closed-loop")
        || matches!(spec.workload, WorkloadSpec::Parsec { .. });
    spec.workload = WorkloadSpec::Trace { path: input.clone(), crc: file.crc, closed_loop };
    validate_or_die(&spec);
    let r = engine.run_one(&spec);
    if json {
        println!("{}", serde_json::to_string_pretty(&r).expect("result serializes"));
    } else {
        println!(
            "replayed {} ({} packets recorded): {} delivered, avg latency {:.2}, \
             total power {:.1} mW",
            input,
            file.data.packets.len(),
            r.packets,
            r.avg_latency,
            r.power.total_w * 1e3
        );
    }
}

/// `flov sim` — one-off simulation with a human-readable report, JSON
/// output for scripting, and an optional steady-state mesh map.
fn sim(engine: &Engine, rest: &[String]) {
    let a = parse_sim_args(rest);
    let (json, map, parsec) = (a.json, a.map, a.parsec.clone());
    let spec = build_sim_spec(&a);
    validate_or_die(&spec);
    apply_kernel_flags(&a);
    let r = engine.run_one(&spec);
    if json {
        println!("{}", serde_json::to_string_pretty(&r).expect("result serializes"));
    } else {
        println!("mechanism        {}", r.mechanism);
        println!("packets          {}", r.packets);
        println!("avg latency      {:.2} cycles (max {})", r.avg_latency, r.max_latency);
        let (p50, p95, p99) = r.latency_percentiles;
        println!("  percentiles    p50<={p50} p95<={p95} p99<={p99}");
        println!(
            "  breakdown      router {:.2} | link {:.2} | serial {:.2} | contention {:.2} | flov {:.2}",
            r.breakdown[0], r.breakdown[1], r.breakdown[2], r.breakdown[3], r.breakdown[4]
        );
        println!(
            "avg hops         {:.2} routers + {:.2} flov latches",
            r.avg_hops, r.avg_flov_hops
        );
        println!("throughput       {:.4} flits/cycle", r.throughput);
        println!(
            "escape           {} packets ({} diversions)",
            r.escape_packets, r.escape_diversions
        );
        println!("static power     {:.1} mW", r.power.static_w * 1e3);
        println!("dynamic power    {:.1} mW", r.power.dynamic_w * 1e3);
        println!("total power      {:.1} mW", r.power.total_w * 1e3);
        println!(
            "total energy     {:.3} uJ over {} cycles",
            r.power.total_j() * 1e6,
            r.power.cycles
        );
        println!("gating events    {}", r.gating_events);
        println!("stalled inj      {} node-cycles", r.stalled_injection_cycles);
        if parsec.is_some() {
            println!(
                "per-class lat    req {:.1} ({} pkts) | data {:.1} ({}) | ctrl {:.1} ({})",
                r.vnet_latency[0].1,
                r.vnet_latency[0].0,
                r.vnet_latency[1].1,
                r.vnet_latency[1].0,
                r.vnet_latency[2].1,
                r.vnet_latency[2].0
            );
        }
    }
    if map {
        // Re-run the same spec briefly to render the steady-state map (the
        // engine run consumed its simulation).
        let mut sim = flov_bench::try_simulation(&spec).expect("validated spec");
        sim.run(20_000);
        println!(
            "\npower map (A=active, a=active router/gated core, d=draining, w=waking, .=asleep):"
        );
        print!("{}", render::power_map(&sim.core));
        let (max, mean, gini) = render::link_util_summary(&sim.core);
        println!("link utilization: max {max}, mean {mean:.1}, gini {gini:.3}");
        println!("east-link heatmap (0-9 relative):");
        print!("{}", render::eastlink_heatmap(&sim.core));
        sim.drain(100_000);
    }
}
