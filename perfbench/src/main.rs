//! `perfbench`: the repository benchmark.
//!
//! One command runs one workload through the crates' public entry points,
//! checks every output, and prints one JSON line of metrics last on stdout:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `figures` (Figs. 6 and 8(c)/(d) cold, then replayed from the
//! result cache) and `saturated_mesh16` (one `flov sim` on a saturated
//! 16x16 mesh, then replayed). `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` runs the workload with spans around every
//! call into a layer and prints the per-layer metrics. Every number is
//! host time; simulated statistics only feed the correctness checks.
//! See README.md.

mod figures;
mod host;
mod layers;
mod saturated;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
pub type Metrics = BTreeMap<&'static str, f64>;

pub const WORKLOADS: [&str; 2] = ["figures", "saturated_mesh16"];

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("cold_runs_per_s", "runs/s"), ("sim_wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("engine.warm_probes_per_s", "probes/s"),
    ("engine.key_us", "us"),
    ("engine.run_ms_p50", "ms"),
    ("engine.run_ms_max", "ms"),
    ("scheduler.occupancy", "ratio"),
    ("scheduler.steals", "count"),
    ("cache.index_scan_ms", "ms"),
    ("cache.get_us_p50", "us"),
    ("cache.get_us_p99", "us"),
    ("cache.put_us_p50", "us"),
    ("cache.put_us_p90", "us"),
    ("cache.entry_bytes", "bytes"),
    ("cache.quarantined", "count"),
    ("binfmt.decode_us", "us"),
    ("binfmt.decode_entry_us", "us"),
    ("binfmt.encode_us", "us"),
    ("network.ns_per_flit_hop", "ns/flit-hop"),
    ("network.pipeline_ns_per_flit_hop", "ns/flit-hop"),
    ("network.delivery_ns_per_flit_hop", "ns/flit-hop"),
    ("network.inject_ns_per_flit_hop", "ns/flit-hop"),
    ("network.latch_ns_per_flit_hop", "ns/flit-hop"),
    ("network.mechanism_ns_per_flit_hop", "ns/flit-hop"),
    ("network.other_ns_per_flit_hop", "ns/flit-hop"),
    ("network.skip_ratio", "ratio"),
    ("network.flit_hops", "count"),
    ("par.speedup", "ratio"),
    ("par.cpu_per_wall", "ratio"),
    ("par.exchange_ns_per_flit_hop", "ns/flit-hop"),
    ("fuzz.case_ms_p50", "ms"),
    ("fuzz.case_ms_max", "ms"),
    ("fuzz.active_share", "ratio"),
    ("fuzz.reference_share", "ratio"),
    ("fuzz.parallel_share", "ratio"),
    ("audit.overhead", "ratio"),
    ("host.cpu_per_wall", "ratio"),
    ("host.parallel_capacity", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Each environment variable silently changes the path being measured
/// (kernel, thread count, tiling, auditing, cache format).
const FORBIDDEN_ENV: [&str; 5] =
    ["FLOV_KERNEL", "FLOV_THREADS", "FLOV_TILES", "FLOV_AUDIT", "FLOV_CACHE_FORMAT"];

/// Set-ups timed in each warm block, besides the one before each cold run.
pub const SETUPS_PER_BLOCK: u64 = 25;

/// Operations attempted and failed, shared by every check of a run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count `n` operations that succeeded.
    pub fn ok(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `failed` failures among `attempted` operations.
    pub fn fail(&self, attempted: u64, failed: u64, why: &str) {
        self.attempted.fetch_add(attempted, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
        eprintln!("[perfbench] FAILED {failed} of {attempted}: {why}");
    }

    /// Count one operation, failed unless `ok`.
    pub fn check(&self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok(1);
        } else {
            self.fail(1, 1, &why());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Everything a workload needs: its inputs' seed and size, the failure
/// tally, the span recorder, and fresh scratch directories. `toy` shrinks
/// every workload to a smoke-test size and `corrupt_entry` damages one
/// cache entry between the cold and warm passes of `figures`; only the
/// self-test sets them.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub toy: bool,
    pub corrupt_entry: bool,
    pub tally: Tally,
    pub rec: trace::Recorder,
    scratch: PathBuf,
    next_dir: AtomicU32,
}

impl Ctx {
    /// A context whose scratch root `scratch` is created up front, so
    /// every set-up repetition does the same work.
    fn new(seed: u64, seconds: u64, toy: bool, corrupt_entry: bool, scratch: PathBuf) -> Ctx {
        std::fs::create_dir_all(&scratch).expect("scratch directory is writable");
        Ctx {
            seed,
            seconds,
            toy,
            corrupt_entry,
            tally: Tally::default(),
            rec: trace::Recorder::new(),
            scratch,
            next_dir: AtomicU32::new(0),
        }
    }

    /// A new empty directory under this run's scratch root.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.next_dir.fetch_add(1, Ordering::Relaxed);
        let dir = self.scratch.join(format!("{n:04}-{tag}"));
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// Run `f`, turning a panic into `None`. The default hook has already
/// printed the panic message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Run `f` and return its value with its wall time in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Set-up times sampled throughout a run; `setup_s` is their median.
/// Samples spread over the run, not taken back to back, see the host's
/// busy and quiet stretches alike.
#[derive(Default)]
pub struct SetupClock(Vec<f64>);

impl SetupClock {
    /// Run and time one set-up.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let (v, s) = time(setup);
        self.0.push(s);
        v
    }

    /// Within a warm block of `rounds`, whether round `i` also times a
    /// set-up (about `SETUPS_PER_BLOCK` per block).
    pub fn due(i: u64, rounds: u64) -> bool {
        i.is_multiple_of(rounds.div_ceil(SETUPS_PER_BLOCK).max(1))
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload figures|saturated_mesh16 --seed <n> \
         --seconds <n> --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_u64(flag: &str, v: &str) -> u64 {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.unwrap_or_else(|_| usage(&format!("{flag} needs an integer, got {v:?}")))
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(parse_u64(flag, &value())),
            "--seconds" => seconds = Some(parse_u64(flag, &value())),
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")).max(1),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Render the metrics named in `table` as the result line. A value that
/// is not a finite number (JSON has none) prints as 0 and fails the run.
fn result_line(tally: &Tally, table: &[(&str, &str)], metrics: &Metrics) -> String {
    let missing: Vec<&str> =
        table.iter().map(|(n, _)| *n).filter(|n| !metrics.contains_key(n)).collect();
    assert!(missing.is_empty(), "workload did not measure {missing:?}");
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = metrics[name];
            tally.check(v.is_finite(), || format!("{name} measured {v}"));
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted().max(1),
        tally.failed(),
        body.join(", ")
    )
}

/// Run one workload, untraced or traced.
fn run_workload(workload: &str, trace: bool, ctx: &Ctx) -> Result<Metrics, String> {
    match (workload, trace) {
        ("figures", false) => figures::run(ctx),
        ("figures", true) => figures::run_traced(ctx),
        (_, false) => saturated::run(ctx),
        (_, true) => saturated::run_traced(ctx),
    }
}

/// The run's table; a traced run also reports the host's parallel
/// capacity, calibrated after the workload.
fn finish(
    metrics: &mut Metrics,
    trace: bool,
    capacity: f64,
) -> &'static [(&'static str, &'static str)] {
    if trace {
        metrics.insert("host.parallel_capacity", capacity);
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn main() {
    let args = parse_args();
    let set: Vec<&str> =
        FORBIDDEN_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: each changes the measured path; unset it",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let root = PathBuf::from(".perfbench");
    let scratch = root.join(format!("run-{}", std::process::id()));
    let ctx = Ctx::new(args.seed, args.seconds, false, false, scratch.clone());
    let steal0 = host::steal_seconds();
    let (outcome, wall) = time(|| run_workload(&args.workload, args.trace, &ctx));
    // Share of the vCPUs' time the hypervisor took during the run: the
    // host noise every number above carries.
    let steal = (host::steal_seconds() - steal0) / (wall * host::nproc() as f64);
    let capacity = host::parallel_capacity();
    eprintln!(
        "[perfbench] host {{\"nproc\": {}, \"cpu_model\": \"{}\", \"commit\": \"{}\", \
         \"parallel_capacity\": {capacity:.3}, \"steal_share\": {steal:.3}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host::nproc(),
        host::cpu_model().replace('"', "'"),
        host::commit(Path::new(".")),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    if args.trace {
        let path = root.join(format!("spans-{}-{}.json", args.workload, args.seed));
        match ctx.rec.write(&path) {
            Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
            Err(e) => eprintln!("[perfbench] warning: could not write spans: {e}"),
        }
        ctx.rec.print_self_times();
    }
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("[perfbench] warning: could not remove {}: {e}", scratch.display());
    }
    let mut metrics = outcome.unwrap_or_else(|why| {
        eprintln!("error: {} could not be measured: {why}", args.workload);
        std::process::exit(1);
    });
    let table = finish(&mut metrics, args.trace, capacity);
    println!("{}", result_line(&ctx.tally, table, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy-scale run of `workload`: its result line and failure count.
    fn toy(workload: &str, trace: bool, corrupt_entry: bool) -> (String, u64) {
        static RUN: AtomicU32 = AtomicU32::new(0);
        let n = RUN.fetch_add(1, Ordering::Relaxed);
        let scratch = PathBuf::from(".perfbench").join(format!("test-{}-{n}", std::process::id()));
        let ctx = Ctx::new(7, 1, true, corrupt_entry, scratch.clone());
        let mut metrics = run_workload(workload, trace, &ctx).expect("toy run measures");
        let table = finish(&mut metrics, trace, 1.0);
        let line = result_line(&ctx.tally, table, &metrics);
        std::fs::remove_dir_all(&scratch).expect("scratch removable");
        (line, ctx.tally.failed())
    }

    /// The unit printed for `name` in a result line.
    fn unit_of<'a>(line: &'a str, name: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
        let rest = &rest[rest.find("\"unit\": \"")? + 9..];
        rest.split('"').next()
    }

    #[test]
    fn toy_runs_print_every_metric_with_its_unit() {
        for workload in WORKLOADS {
            for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let (line, failed) = toy(workload, trace, false);
                assert_eq!(failed, 0, "{workload} (trace {trace}) failed checks: {line}");
                assert!(line.starts_with("{\"correct\": true, "), "{line}");
                for (name, unit) in table {
                    assert_eq!(unit_of(&line, name), Some(*unit), "{name} in {line}");
                }
            }
        }
    }

    #[test]
    fn a_corrupted_cache_entry_is_a_counted_failure() {
        let (line, failed) = toy("figures", false, true);
        assert!(failed > 0, "corruption went unnoticed: {line}");
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
    }
}
