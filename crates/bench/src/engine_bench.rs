//! Batch-engine throughput measurement behind `flov bench-engine`.
//!
//! Times the full `Engine::run_batch` path — key hashing, cache probing,
//! work-stealing scheduling, persistence — over a ~1000-run sweep of tiny
//! unique specs, in two lanes over the sharded binary cache:
//! `cold_binary_sharded` populates an empty cache, then
//! `warm_binary_sharded` replays it fully warm through a fresh index.
//!
//! Both lanes must produce byte-identical results (the cache is an
//! implementation detail, never a semantic one), and the warm lane must
//! serve every run from cache. The report lands in `BENCH_engine.json`;
//! `--min-warm-probe-rate` turns the warm lane's probes/sec into a CI
//! regression gate.

use crate::cache::ResultCache;
use crate::engine::Engine;
use crate::spec::RunSpec;
use serde::Serialize;
use std::time::Instant;

/// One timed lane.
#[derive(Clone, Debug, Serialize)]
pub struct EngineLane {
    pub name: String,
    pub runs: usize,
    pub cached: usize,
    pub simulated: usize,
    /// Wall seconds for the `run_batch` call (excludes the index scan,
    /// reported separately).
    pub wall_seconds: f64,
    pub runs_per_sec: f64,
    /// Cache probes served per second (warm lanes: every run is a probe).
    pub probes_per_sec: f64,
    /// One-time index build: directory-scan seconds and entries found
    /// (warm lane only; the cold lane starts from an empty directory).
    pub index_scan_seconds: f64,
    pub index_entries: usize,
    /// Scheduler counters (cold lanes; warm lanes simulate nothing).
    pub workers: usize,
    pub occupancy: f64,
    pub steals: u64,
    /// Cache footprint after the lane.
    pub bytes_on_disk: u64,
}

/// The full `BENCH_engine.json` payload.
#[derive(Clone, Debug, Serialize)]
pub struct EngineBenchReport {
    pub quick: bool,
    pub host_threads: usize,
    pub runs: usize,
    pub lanes: Vec<EngineLane>,
}

/// The sweep: `n` unique tiny specs. Short runs with a dense timeline
/// (~1200 interval samples, the payload shape of a long production run),
/// so warm-lane probes decode a realistic entry while the cold lane stays
/// cheap to simulate.
pub fn sweep_specs(n: usize) -> Vec<RunSpec> {
    (0..n)
        .map(|i| {
            RunSpec::builder()
                .mechanism(if i % 2 == 0 { "gFLOV" } else { "rFLOV" })
                .k(4)
                .rate(0.10)
                .gated_fraction(0.25)
                .seed(1_000 + i as u64)
                .warmup(0)
                .cycles(6_000)
                .timeline_width(5)
                .drain(5_000)
                .build()
        })
        .collect()
}

/// Run one lane: build an engine over `cache`, execute the sweep
/// `repeats` times keeping the fastest wall (warm lanes finish in
/// milliseconds, so a single shot is at the mercy of scheduler jitter),
/// and return the lane row plus a canonical digest of every result.
fn run_lane(
    name: &str,
    cache: ResultCache,
    specs: &[RunSpec],
    time_index_scan: bool,
    repeats: usize,
) -> (EngineLane, String) {
    let (index_entries, index_scan_seconds) =
        if time_index_scan { cache.prime_index() } else { (0, 0.0) };
    let mut wall = f64::INFINITY;
    let mut digest = String::new();
    let mut cached = 0;
    let mut simulated = 0;
    let mut sched = None;
    for rep in 0..repeats.max(1) {
        let engine = Engine::with_cache(cache.clone()).quiet();
        let t0 = Instant::now();
        let results = engine.run_batch(specs);
        let w = t0.elapsed().as_secs_f64();
        let d = serde_json::to_string(&results).expect("results serialize");
        assert!(rep == 0 || d == digest, "lane {name} not deterministic across repeats");
        digest = d;
        if w < wall {
            wall = w;
            let s = engine.stats();
            cached = s.cached;
            simulated = s.simulated;
            sched = engine.sched_stats();
        }
    }
    let lane = EngineLane {
        name: name.to_string(),
        runs: specs.len(),
        cached,
        simulated,
        wall_seconds: wall,
        runs_per_sec: specs.len() as f64 / wall.max(1e-9),
        probes_per_sec: cached as f64 / wall.max(1e-9),
        index_scan_seconds,
        index_entries,
        workers: sched.as_ref().map(|x| x.workers).unwrap_or(0),
        occupancy: sched.as_ref().map(|x| x.occupancy()).unwrap_or(0.0),
        steals: sched.as_ref().map(|x| x.steals).unwrap_or(0),
        bytes_on_disk: cache.stats().total_bytes,
    };
    (lane, digest)
}

/// Run the two lanes. Panics if the warm lane misses the cache, if its
/// results diverge from the cold lane's, or, when `min_warm_probe_rate`
/// is set, if the warm lane probes slower than that floor (probes/sec).
pub fn run_bench(
    quick: bool,
    runs: Option<usize>,
    min_warm_probe_rate: Option<f64>,
) -> EngineBenchReport {
    let n = runs.unwrap_or(if quick { 300 } else { 1_000 });
    let specs = sweep_specs(n);
    let dir = std::env::temp_dir().join(format!("flov-bench-engine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Fresh ResultCache per lane so the warm lane rebuilds its index from
    // a cold directory scan, the way a new `flov` invocation would.
    let (cold, cold_digest) =
        run_lane("cold_binary_sharded", ResultCache::new(&dir), &specs, false, 1);
    eprintln!(
        "[flov] bench-engine cold_binary_sharded: {:.2}s, {:.0} runs/s, \
         {} workers ({:.0}% busy, {} steals)",
        cold.wall_seconds,
        cold.runs_per_sec,
        cold.workers,
        cold.occupancy * 100.0,
        cold.steals,
    );
    let (warm, warm_digest) =
        run_lane("warm_binary_sharded", ResultCache::new(&dir), &specs, true, 3);
    eprintln!(
        "[flov] bench-engine warm_binary_sharded: {:.3}s, {:.0} probes/s \
         (index: {} entries in {:.3}s)",
        warm.wall_seconds, warm.probes_per_sec, warm.index_entries, warm.index_scan_seconds,
    );

    // The cache layer must be semantically invisible: the warm replay
    // yields byte-identical results to the cold run.
    assert_eq!(warm_digest, cold_digest, "binary warm replay diverged from cold run");
    assert_eq!(warm.cached, n, "warm binary lane missed the cache");
    assert_eq!(warm.index_entries, n, "index scan missed entries");
    if let Some(floor) = min_warm_probe_rate {
        assert!(
            warm.probes_per_sec >= floor,
            "engine-probe regression: warm binary lane at {:.0} probes/sec < floor {floor:.0}",
            warm.probes_per_sec
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    EngineBenchReport {
        quick,
        host_threads: std::thread::available_parallelism().map(|x| x.get()).unwrap_or(1),
        runs: n,
        lanes: vec![cold, warm],
    }
}
