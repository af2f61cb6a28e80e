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
//! Global flags (valid anywhere after the subcommand):
//!   --cache-dir D  cache location (default $FLOV_CACHE_DIR or results/cache)
//!   --quiet        suppress stderr progress + engine summary
//!
//! Every subcommand but the `cache` verbs also reads `--no-cache` (always
//! simulate; touch no cache files). The figure and study subcommands,
//! `parsec`, `bench-kernel` and `bench-engine` also read `--quick` (a
//! reduced-scale sweep for smoke runs). Any other flag the subcommand does
//! not read, a flag without its value or a stray word exits 2 naming it,
//! before anything runs.
//!
//! Output piped into a reader that closes early (`flov table1 | head -1`)
//! ends `flov` by SIGPIPE, as it does any Unix filter, instead of a panic.

use flov_bench::engine::Engine;
use flov_bench::figures::{
    fig_breakdown, fig_parsec, fig_static, fig_synthetic, fig_timeline, overhead, parsec_default,
    table1, SynthScale,
};
use flov_bench::{ablations, studies, tracefmt, ResultCache, RunResult, RunSpec, WorkloadSpec};
use flov_core::mechanism;
use flov_noc::{render, ConfigError, TopologySpec};
use flov_workloads::Pattern;
use std::fmt::Display;

const USAGE: &str = "\
flov — FLOV reproduction experiment runner

usage: flov <subcommand> [options]

paper figures and tables:
  fig6        Uniform Random latency/power sweep
  fig7        Tornado latency/power sweep
  fig8ab      latency breakdown, UR + Tornado
  fig8cd      PARSEC full-system + headline summary
  fig9        static power vs gated fraction
  fig10       reconfiguration timeline
  table1      testbed parameters
  overhead    router area/overhead analysis

studies:
  ablations   design-choice sensitivity sweeps
  nord        NoRD vs FLOV critique, 2 experiments
  related     six-mechanism landscape
  scaling     4x4..16x16 mesh scaling

tools:
  parsec      selectable PARSEC subset
              [--bench NAME]... [--mech NAME]... [--seed S]
  sim         one-off simulation with a full report
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
                [any sim flag but --map] [--out FILE.flovtrace]
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
              | --replay FILE.json
  cache       result-cache maintenance
              stats | clear | verify | migrate
              | gc [--max-bytes N[K|M|G]] [--max-age N[s|m|h|d]]
              (verify re-derives every entry's content hash; migrate
              rewrites JSON entries older builds wrote as sharded binary,
              hash-preserving; gc evicts oldest-first by last use)

global flags: [--cache-dir DIR] [--quiet]
              (FLOV_QUIET=1 also silences progress; non-TTY stderr gets
              plain per-5% progress lines instead of redraws)
no cache:     [--no-cache] (always simulate; touch no cache files) on
              every subcommand but the cache verbs
reduced scale: [--quick] on fig6..fig10, ablations, nord, related,
              scaling, parsec, bench-kernel and bench-engine
any other flag a subcommand does not read exits 2, as does a stray word
";

/// The flags every subcommand reads.
const GLOBAL_FLAGS: &str = "--quiet --cache-dir=";

/// The workload and run-shape flags `sim` and `trace record` share.
macro_rules! run_flags {
    () => {
        "--no-cache --mech= --pattern= --rate= --gated= --cycles= --warmup= --seed= --k= \
         --topology= --parsec= --mmpp= --diurnal= --dwell= --audit --threads= --tiles= --json"
    };
}

/// The flags each subcommand reads besides [`GLOBAL_FLAGS`], one line per
/// subcommand or `trace`/`cache` verb. A trailing `=` marks a flag that
/// takes a value.
const FLAGS: [(&str, &str); 25] = [
    ("fig6", "--no-cache --quick"),
    ("fig7", "--no-cache --quick"),
    ("fig8ab", "--no-cache --quick"),
    ("fig8cd", "--no-cache --quick"),
    ("fig9", "--no-cache --quick"),
    ("fig10", "--no-cache --quick"),
    ("table1", "--no-cache"),
    ("overhead", "--no-cache"),
    ("ablations", "--no-cache --quick"),
    ("nord", "--no-cache --quick"),
    ("related", "--no-cache --quick"),
    ("scaling", "--no-cache --quick"),
    ("parsec", "--no-cache --quick --bench= --mech= --seed="),
    ("sim", concat!(run_flags!(), " --map")),
    ("trace record", concat!(run_flags!(), " --out=")),
    ("trace replay", "--no-cache --in= --json --closed-loop"),
    ("sweep", "--no-cache --spec="),
    ("bench-kernel", "--no-cache --quick --min-cps= --min-skip= --min-parallel-speedup= --out="),
    ("bench-engine", "--no-cache --quick --runs= --min-warm-probe-rate= --out="),
    ("fuzz", "--no-cache --runs= --max-cycles= --seed= --out= --replay="),
    ("cache stats", ""),
    ("cache clear", ""),
    ("cache verify", ""),
    ("cache migrate", ""),
    ("cache gc", "--max-bytes= --max-age="),
];

fn usage() -> ! {
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// A usage error: exit 2.
fn die(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// A failed operation: exit 1.
fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The entry of `flags` (a [`FLAGS`] line) naming `flag`, if any.
fn listed<'a>(flags: &'a str, flag: &str) -> Option<&'a str> {
    flags.split_whitespace().find(|f| f.trim_end_matches('=') == flag)
}

/// One subcommand's command line, checked against its [`FLAGS`] line.
struct Args {
    /// The line's subcommand, or subcommand and verb (`cache gc`).
    arm: &'static str,
    /// Every flag given, in order, with its value (empty for a switch).
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parse `argv` (the subcommand first). An unknown flag, a flag the
    /// subcommand does not read, a flag without its value or a stray word
    /// exits 2 naming it. Flags may come before a `trace`/`cache` verb.
    fn parse(argv: &[String]) -> Args {
        let Some(cmd) = argv.first() else { usage() };
        let mut words = Vec::new();
        let mut flags = Vec::new();
        let mut tokens = argv[1..].iter();
        while let Some(tok) = tokens.next() {
            if !tok.starts_with("--") {
                words.push(tok.as_str());
                continue;
            }
            let mut all = FLAGS.iter().map(|(_, reads)| *reads).chain([GLOBAL_FLAGS]);
            let Some(entry) = all.find_map(|reads| listed(reads, tok)) else {
                die(format!("unknown flag {tok}"))
            };
            let value = if entry.ends_with('=') {
                tokens.next().unwrap_or_else(|| die(format!("{tok} needs a value"))).clone()
            } else {
                String::new()
            };
            flags.push((tok.clone(), value));
        }
        // A subcommand with verbs has a line per verb: its first word.
        let mut words = words.into_iter();
        let mut key = cmd.clone();
        if FLAGS.iter().any(|(arm, _)| arm.starts_with(&format!("{cmd} "))) {
            key = format!("{cmd} {}", words.next().unwrap_or_default());
        }
        let Some(&(arm, reads)) = FLAGS.iter().find(|(arm, _)| *arm == key) else {
            match cmd.as_str() {
                "help" | "--help" | "-h" => {}
                _ if key.ends_with(' ') => eprintln!("error: {cmd} needs a verb\n"),
                _ => eprintln!("error: unknown subcommand {key:?}\n"),
            }
            usage()
        };
        if let Some(word) = words.next() {
            die(format!("unexpected argument {word:?}"));
        }
        for (flag, _) in &flags {
            if listed(reads, flag).or(listed(GLOBAL_FLAGS, flag)).is_none() {
                die(format!("{arm} does not read {flag}"));
            }
        }
        Args { arm, flags }
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// Every value given for a repeatable `flag`, in order.
    fn values(&self, flag: &str) -> Vec<&str> {
        self.flags.iter().filter(|(f, _)| f == flag).map(|(_, v)| v.as_str()).collect()
    }

    /// The last value given for `flag`.
    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).pop()
    }

    /// The last value given for `flag`, parsed; one that does not parse
    /// exits 2.
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).map(|v| parse_or_die(flag, v))
    }

    /// Exit 2 naming the first of `flags` (space-separated) given: the
    /// command line read so far (`when`) leaves them unread.
    fn forbid(&self, flags: &str, when: &str) {
        if let Some(flag) = flags.split_whitespace().find(|f| self.has(f)) {
            die(format!("{} does not read {flag} {when}", self.arm));
        }
    }
}

fn parse_pattern(name: &str) -> Pattern {
    match name {
        "uniform" => Pattern::UniformRandom,
        "tornado" => Pattern::Tornado,
        "transpose" => Pattern::Transpose,
        "bitcomp" => Pattern::BitComplement,
        "neighbor" => Pattern::Neighbor,
        _ => die(format!("unknown pattern {name:?} (uniform|tornado|transpose|bitcomp|neighbor)")),
    }
}

fn parse_or_die<T: std::str::FromStr>(what: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| die(format!("invalid {what}: {v:?}")))
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
            die(format!("rect topology needs KXxKY, got {dims:?}"))
        };
        TopologySpec::RectMesh {
            kx: parse_or_die("--topology rect width", kx),
            ky: parse_or_die("--topology rect height", ky),
        }
    } else {
        die(format!("unknown topology {v:?} (mesh|torus|cmesh:C|rect:KXxKY)"))
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
    n.checked_mul(mult).unwrap_or_else(|| die(format!("--max-bytes overflows: {v:?}")))
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
    let secs = n.checked_mul(mult).unwrap_or_else(|| die(format!("--max-age overflows: {v:?}")));
    std::time::Duration::from_secs(secs)
}

/// Surface a config problem as a diagnostic instead of a panic. This is
/// full spec-level validation (`RunSpec::validate`): NoC shape problems
/// *and* workload problems — an over-saturated injection rate, an empty
/// MMPP rate list — all exit 2 with the structured `ConfigError` text.
fn validate_or_die(spec: &RunSpec) {
    match spec.validate() {
        Ok(()) => {}
        Err(e @ ConfigError::UnknownMechanism { .. }) => {
            die(format!("{e} (one of: {})", mechanism::NAMES.join("|")))
        }
        Err(e) => die(format!("invalid configuration for {}: {e}", spec.mechanism)),
    }
}

/// Check every `FLOV_*` switch once, before any subcommand runs, so a bad
/// value exits 2 like the equivalent flag instead of panicking inside a run
/// (or passing unnoticed when every run is a cache hit).
fn check_env_or_die() {
    let errors = [
        flov_bench::kernel_from_env().err(),
        flov_bench::threads_from_env().err(),
        flov_bench::audit_override().err(),
    ];
    if let Some(e) = errors.into_iter().flatten().next() {
        die(e);
    }
}

/// Print a bench report as JSON and write it to `--out` (default
/// `default_out`).
fn write_report(args: &Args, report: &impl serde::Serialize, default_out: &str) {
    let out = args.value("--out").unwrap_or(default_out);
    let json = serde_json::to_string_pretty(report).expect("bench report serialization");
    std::fs::write(out, format!("{json}\n"))
        .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    println!("{json}");
    eprintln!("[flov] {} report written to {out}", args.arm);
}

/// Restore the default SIGPIPE action, which the Rust runtime sets to
/// ignore: a reader that closes the pipe early then ends `flov` quietly,
/// where every later `println!` would otherwise panic on a broken pipe.
#[cfg(unix)]
fn die_on_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    // SAFETY: sets one signal's disposition to the default action before
    // any thread starts; no handler code is installed.
    unsafe { signal(SIGPIPE, SIG_DFL) };
}

#[cfg(not(unix))]
fn die_on_sigpipe() {}

fn main() {
    die_on_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    check_env_or_die();

    let quick = args.has("--quick");
    let scale = if quick { SynthScale::quick() } else { SynthScale::paper() };
    let cache_dir =
        args.value("--cache-dir").map_or_else(ResultCache::default_dir, std::path::PathBuf::from);
    let mut engine = if args.has("--no-cache") {
        Engine::without_cache().verbose()
    } else {
        Engine::with_cache_dir(&cache_dir)
    };
    if args.has("--quiet") {
        engine = engine.quiet();
    }

    match args.arm {
        "fig6" | "fig7" => {
            let pattern =
                if args.arm == "fig6" { Pattern::UniformRandom } else { Pattern::Tornado };
            for (i, t) in fig_synthetic(&engine, pattern, &scale).iter().enumerate() {
                t.emit(&format!("{}_{i}", args.arm));
            }
        }
        "fig8ab" => {
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
            fig_static(&engine, &scale).emit("fig9");
        }
        "fig10" => {
            fig_timeline(&engine, &scale).emit("fig10");
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
            let mut benches = args.values("--bench");
            if benches.is_empty() {
                benches = if quick { default_benches[..2].to_vec() } else { default_benches };
            }
            let mut mechs = args.values("--mech");
            if mechs.is_empty() {
                mechs = default_mechs;
            }
            // The normalization column needs Baseline even when the user
            // only asked for one mechanism.
            if !mechs.contains(&"Baseline") {
                mechs.insert(0, "Baseline");
            }
            let seed = args.parsed("--seed").unwrap_or(0xF10F);
            for bench in &benches {
                mechs.iter().for_each(|m| validate_or_die(&RunSpec::parsec(m, bench, seed)));
            }
            let (table, _) = fig_parsec(&engine, &benches, seed, &mechs);
            table.emit("parsec");
        }
        "sim" => sim(&engine, &args),
        "trace record" => trace_record(&args),
        "trace replay" => trace_replay(&engine, &args),
        "sweep" => {
            let Some(path) = args.value("--spec") else { die("sweep needs --spec FILE.json") };
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            // Accept a single spec object or an array of specs.
            let specs: Vec<RunSpec> = match serde_json::from_str::<Vec<RunSpec>>(&text) {
                Ok(s) => s,
                Err(_) => match serde_json::from_str::<RunSpec>(&text) {
                    Ok(s) => vec![s],
                    Err(e) => fail(format!("{path} is not a RunSpec or a list of them: {e}")),
                },
            };
            specs.iter().for_each(validate_or_die);
            let results: Vec<RunResult> = engine.run_batch(&specs);
            println!("{}", serde_json::to_string_pretty(&results).expect("results serialize"));
        }
        "bench-kernel" => {
            let report = flov_bench::kernel_bench::run_bench(
                quick,
                args.parsed("--min-cps"),
                args.parsed("--min-skip"),
                args.parsed("--min-parallel-speedup"),
            );
            write_report(&args, &report, "BENCH_kernel.json");
        }
        "bench-engine" => {
            let report = flov_bench::engine_bench::run_bench(
                quick,
                args.parsed("--runs"),
                args.parsed("--min-warm-probe-rate"),
            );
            write_report(&args, &report, "BENCH_engine.json");
        }
        "fuzz" => {
            if let Some(path) = args.value("--replay") {
                args.forbid("--runs --max-cycles --seed --out", "with --replay");
                match flov_bench::fuzz::replay(std::path::Path::new(path)) {
                    Ok(None) => println!("repro {path}: no longer reproduces (clean)"),
                    Ok(Some((kind, detail))) => {
                        println!("repro {path}: still fails\n  kind:   {kind}\n  detail: {detail}");
                        std::process::exit(1);
                    }
                    Err(e) => die(e),
                }
                return;
            }
            let mut opts = flov_bench::fuzz::FuzzOptions::default();
            opts.runs = args.parsed("--runs").unwrap_or(opts.runs);
            opts.max_cycles = args.parsed("--max-cycles").unwrap_or(opts.max_cycles);
            opts.seed = args.parsed("--seed").unwrap_or(opts.seed);
            if let Some(v) = args.value("--out") {
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
        verb => {
            let cache = ResultCache::new(&cache_dir);
            match verb {
                "cache stats" => {
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
                "cache clear" => {
                    let n = cache.clear().unwrap_or_else(|e| fail(format!("clearing cache: {e}")));
                    println!("removed {n} entries from {}", cache.dir().display());
                }
                "cache verify" => {
                    let r = cache.verify();
                    println!(
                        "verified {} entries: {} ok, {} quarantined",
                        r.checked, r.ok, r.quarantined
                    );
                    if r.quarantined > 0 {
                        std::process::exit(1);
                    }
                }
                "cache migrate" => {
                    let r =
                        cache.migrate().unwrap_or_else(|e| fail(format!("migrating cache: {e}")));
                    println!(
                        "migrated {} JSON entries to binary, {} already binary, \
                         {} superseded by binary, {} quarantined",
                        r.migrated, r.already_binary, r.superseded, r.quarantined
                    );
                }
                "cache gc" => {
                    let opts = flov_bench::GcOptions {
                        max_bytes: args.value("--max-bytes").map(parse_bytes),
                        max_age: args.value("--max-age").map(parse_age),
                    };
                    if opts.max_bytes.is_none() && opts.max_age.is_none() {
                        die("gc needs --max-bytes and/or --max-age");
                    }
                    let r = cache.gc(&opts).unwrap_or_else(|e| fail(format!("gc: {e}")));
                    println!(
                        "gc: scanned {} entries ({} bytes), removed {} ({} bytes)",
                        r.scanned, r.scanned_bytes, r.removed, r.removed_bytes
                    );
                }
                _ => unreachable!("the FLAGS line {verb:?} has no arm"),
            }
        }
    }
    let failed = flov_bench::runs_with_violations();
    if failed > 0 {
        fail(format!("{failed} simulated run(s) reported audit violations (see above)"));
    }
}

/// Comma-separated per-phase injection rates (values are validated by
/// `RunSpec::validate`, so an over-saturated phase still exits 2).
fn parse_rates(flag: &str, v: &str) -> Vec<f64> {
    v.split(',').map(|r| parse_or_die(flag, r)).collect()
}

/// The run `sim` and `trace record` describe. A flag the chosen workload
/// does not read exits 2.
fn build_sim_spec(a: &Args) -> RunSpec {
    let k = a.parsed("--k").unwrap_or(8);
    let mut b = RunSpec::builder()
        .mechanism(a.value("--mech").unwrap_or("gFLOV"))
        .k(k)
        .seed(a.parsed("--seed").unwrap_or(0xF10F))
        .audit(a.has("--audit"));
    if let Some(t) = a.value("--topology") {
        b = b.topology(parse_topology(t, k));
    }
    if let Some(bench) = a.value("--parsec") {
        let traffic = "--pattern --rate --gated --cycles --warmup --mmpp --diurnal --dwell";
        a.forbid(traffic, "with --parsec");
        return b.parsec(bench).build();
    }
    let cycles = a.parsed("--cycles").unwrap_or(100_000);
    b = b
        .pattern(a.value("--pattern").map_or(Pattern::UniformRandom, parse_pattern))
        .gated_fraction(a.parsed("--gated").unwrap_or(0.5))
        .warmup(a.parsed("--warmup").unwrap_or(10_000))
        .cycles(cycles)
        .drain(cycles);
    let dwell = a.parsed("--dwell").unwrap_or(10_000);
    b = if let Some(rates) = a.value("--mmpp") {
        a.forbid("--rate --diurnal", "with --mmpp");
        b.mmpp(parse_rates("--mmpp", rates), dwell)
    } else if let Some(rates) = a.value("--diurnal") {
        a.forbid("--rate", "with --diurnal");
        b.diurnal(parse_rates("--diurnal", rates), dwell)
    } else {
        a.forbid("--dwell", "without --mmpp or --diurnal");
        b.rate(a.parsed("--rate").unwrap_or(0.02))
    };
    b.build()
}

/// Apply `--threads`/`--tiles` by selecting the parallel kernel via env.
fn apply_kernel_flags(a: &Args) {
    if let Some(t) = a.parsed::<usize>("--threads") {
        // Reject t == 0 here: a cache hit would otherwise skip the kernel
        // lookup (kernel mode is not in the cache key) and mask the error.
        if t == 0 {
            die("--threads must be >= 1");
        }
        // Route the run through the sharded parallel kernel. Kernel choice
        // never enters the cache key (all kernels are bit-identical), so
        // env selection is safe for cached engines too.
        std::env::set_var("FLOV_KERNEL", "parallel");
        std::env::set_var("FLOV_THREADS", t.to_string());
    }
    if let Some(g) = a.value("--tiles") {
        // Validate eagerly for the same cache-hit reason as --threads.
        if flov_bench::parse_tile_geometry(g).is_none() {
            die(format!("--tiles wants RxC (e.g. 4x2), got {g:?}"));
        }
        std::env::set_var("FLOV_KERNEL", "parallel");
        std::env::set_var("FLOV_TILES", g);
    }
}

/// `flov trace record` — run a spec (same workload flags as `sim`) with
/// the recording wrapper on, then persist the captured stream as a
/// `.flovtrace` container. The run itself is bit-identical to `sim`.
fn trace_record(a: &Args) {
    let out = a.value("--out").unwrap_or("trace.flovtrace");
    // Embed the *resolved* spec so replay rebuilds the exact run shape
    // (mechanism parameters included) without re-resolving.
    let spec = build_sim_spec(a).resolved();
    validate_or_die(&spec);
    apply_kernel_flags(a);
    let kernel = flov_bench::kernel_from_env().expect("FLOV_* switches are checked at startup");
    let (audited, data) = flov_bench::record_trace(&spec, kernel)
        .unwrap_or_else(|e| die(format!("invalid configuration for {}: {e}", spec.mechanism)));
    let result = flov_bench::report_violations(&spec.mechanism, audited);
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    let bytes = tracefmt::encode_trace(flov_bench::KERNEL_VERSION, &spec_json, &data);
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("crc trailer"));
    std::fs::write(out, &bytes).unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
    eprintln!(
        "[flov] trace: {} packets, {} core events, {} change pulses -> {out} \
         ({} bytes, crc {crc:08x})",
        data.packets.len(),
        data.core_events.len(),
        data.changed_cycles.len(),
        bytes.len()
    );
    if a.has("--json") {
        println!("{}", serde_json::to_string_pretty(&result).expect("result serializes"));
    } else {
        println!("recorded {} run -> {out} (crc {crc:08x})", spec.mechanism);
    }
}

/// `flov trace replay` — rebuild the recorded run with its workload
/// swapped for the trace stream. Results are bit-identical to the source
/// run on every kernel (use `--no-cache` when comparing kernels: kernel
/// mode is not part of the cache key).
fn trace_replay(engine: &Engine, a: &Args) {
    let Some(input) = a.value("--in") else { die("trace replay needs --in FILE.flovtrace") };
    let bytes = std::fs::read(input).unwrap_or_else(|e| fail(format!("cannot read {input}: {e}")));
    let file = tracefmt::decode_trace(&bytes).unwrap_or_else(|e| fail(format!("{input}: {}", e.0)));
    let mut spec: RunSpec = serde_json::from_str(&file.source_spec_json)
        .unwrap_or_else(|e| fail(format!("{input}: embedded source spec does not parse: {e}")));
    // A PARSEC source ran closed-loop (until delivery), so its replay
    // must too; synthetic sources replay open-loop unless overridden.
    let closed_loop =
        a.has("--closed-loop") || matches!(spec.workload, WorkloadSpec::Parsec { .. });
    spec.workload = WorkloadSpec::Trace { path: input.to_string(), crc: file.crc, closed_loop };
    validate_or_die(&spec);
    let r = engine.run_one(&spec);
    if a.has("--json") {
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
fn sim(engine: &Engine, a: &Args) {
    let spec = build_sim_spec(a);
    validate_or_die(&spec);
    apply_kernel_flags(a);
    let r = engine.run_one(&spec);
    if a.has("--json") {
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
        if a.has("--parsec") {
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
    if a.has("--map") {
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
    }
}
