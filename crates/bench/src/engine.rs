//! The sweep engine: deduplicating, caching, parallel batch execution.
//!
//! Callers submit batches of [`RunSpec`]s; the engine resolves each spec
//! to canonical form, deduplicates identical specs, serves previously
//! executed runs from the content-addressed [`ResultCache`], simulates
//! the rest across a work-stealing scheduler (streaming progress to
//! stderr), persists every fresh result, and hands back one [`RunResult`]
//! per submitted spec, in order. Every figure generator, study, and the
//! `flov` CLI run through here — a figure regenerated twice costs one
//! simulation sweep.
//!
//! Nested parallelism is arbitrated per job against the host's core budget
//! (`FLOV_THREADS`, else the available parallelism): while many runs are
//! live the requested in-run tiling (`FLOV_KERNEL=parallel`) is demoted to
//! the single-threaded active-set kernel — one core per run beats
//! oversubscribing — and as the batch drains to its last few stragglers,
//! each surviving run is granted a share of the freed cores. A one-run
//! batch gets every tile it asked for, up to the budget. All kernels
//! are bit-identical (enforced by the equivalence suite), so arbitration
//! can never change a result, only its wall-clock cost.

use crate::cache::{CacheEntry, ResultCache};
use crate::progress::Progress;
use crate::scheduler::{run_work_stealing, workers_for, SchedStats};
use crate::spec::{RunResult, RunSpec};
use flov_noc::network::KernelMode;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Salt mixed into every cache key. Bump this whenever a simulator or
/// power-model change alters results, so stale cache entries (same spec,
/// different behavior) stop matching.
///
/// v2: the synthetic workload switched from per-cycle Bernoulli draws to
/// geometric inter-arrival sampling — statistically the same process, but
/// a different RNG draw sequence, so every v1 result's injection timeline
/// differs. (The time-domain skip itself is result-neutral and needs no
/// salt: both kernel modes produce bit-identical results under v2.)
///
/// v3: `latency_percentiles` switched from bucket upper edges to lower
/// edges (the old convention overstated p50/p95/p99 by up to 2×), and
/// `RunSpec` grew the `audit` / `mech_switches` fields, which change
/// every spec's canonical serialization.
pub const KERNEL_VERSION: u32 = 3;

/// Cumulative accounting across every batch an engine has run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Specs submitted to `run_batch`, including duplicates.
    pub submitted: usize,
    /// Distinct specs after canonicalization.
    pub unique: usize,
    /// Unique specs served from the result cache.
    pub cached: usize,
    /// Unique specs actually simulated.
    pub simulated: usize,
}

/// `FLOV_QUIET` set to anything non-empty except `0` silences progress.
fn quiet_from_env() -> bool {
    std::env::var("FLOV_QUIET").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Demote or trim a run's requested in-run tiling against current batch
/// load: `live` not-yet-finished runs sharing `workers` cores. Only the
/// parallel kernel is affected, and only downward — a run never gets more
/// tiles than it asked for.
fn arbitrate(requested: KernelMode, live: usize, workers: usize) -> KernelMode {
    match requested {
        KernelMode::Parallel { tiles, grid } if tiles > 1 => {
            if live >= workers {
                // Saturated: one core per run, zero tiling overhead.
                return KernelMode::ActiveSet;
            }
            let share = (workers / live.max(1)).max(1);
            let t = tiles.min(share);
            if t <= 1 {
                KernelMode::ActiveSet
            } else if t == tiles {
                // Full grant: keep any explicitly pinned geometry.
                KernelMode::Parallel { tiles, grid }
            } else {
                // Partial grant: let the planner re-fit the smaller budget.
                KernelMode::Parallel { tiles: t, grid: None }
            }
        }
        other => other,
    }
}

/// See the module docs. Construct with [`Engine::new`] (caching, default
/// directory), [`Engine::with_cache_dir`], [`Engine::with_cache`], or
/// [`Engine::without_cache`].
pub struct Engine {
    cache: Option<ResultCache>,
    kernel_version: u32,
    verbose: bool,
    submitted: AtomicUsize,
    unique: AtomicUsize,
    cached: AtomicUsize,
    simulated: AtomicUsize,
    /// Scheduling counters from the most recent batch's compute phase.
    last_sched: Mutex<Option<SchedStats>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Caching engine rooted at [`ResultCache::default_dir`]
    /// (`$FLOV_CACHE_DIR` or `results/cache`), with progress output
    /// (unless `FLOV_QUIET` is set).
    pub fn new() -> Engine {
        Engine::with_cache_dir(ResultCache::default_dir())
    }

    /// Caching engine rooted at `dir`, with progress output (unless
    /// `FLOV_QUIET` is set).
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Engine {
        Engine::with_cache(ResultCache::new(dir))
    }

    /// Caching engine over an existing cache handle; engines built from
    /// clones of one handle share its lazily built index.
    pub fn with_cache(cache: ResultCache) -> Engine {
        Engine {
            cache: Some(cache),
            kernel_version: KERNEL_VERSION,
            verbose: !quiet_from_env(),
            submitted: AtomicUsize::new(0),
            unique: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            last_sched: Mutex::new(None),
        }
    }

    /// Engine that always simulates and never touches the filesystem;
    /// silent. Used by tests, benches, and `--no-cache`.
    pub fn without_cache() -> Engine {
        Engine {
            cache: None,
            kernel_version: KERNEL_VERSION,
            verbose: false,
            submitted: AtomicUsize::new(0),
            unique: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            simulated: AtomicUsize::new(0),
            last_sched: Mutex::new(None),
        }
    }

    /// Override the cache-key salt (tests exercise invalidation with this).
    pub fn with_kernel_version(mut self, v: u32) -> Engine {
        self.kernel_version = v;
        self
    }

    /// Suppress the stderr progress line and batch summary.
    pub fn quiet(mut self) -> Engine {
        self.verbose = false;
        self
    }

    /// Re-enable progress output (e.g. on a `without_cache` engine).
    pub fn verbose(mut self) -> Engine {
        self.verbose = true;
        self
    }

    /// The cache this engine reads and writes, if any.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// Cumulative stats across every batch run so far.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            unique: self.unique.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
        }
    }

    /// Scheduling counters (workers, steals, occupancy) from the most
    /// recent batch that simulated anything; `None` before that.
    pub fn sched_stats(&self) -> Option<SchedStats> {
        *self.last_sched.lock().expect("sched stats lock")
    }

    /// Convenience for a single spec.
    pub fn run_one(&self, spec: &RunSpec) -> RunResult {
        self.run_batch(std::slice::from_ref(spec)).pop().expect("one spec in, one result out")
    }

    /// Execute a batch: one result per submitted spec, in submission
    /// order. Duplicate specs are simulated once; cache hits are served
    /// without simulating; fresh results are persisted before return.
    pub fn run_batch(&self, specs: &[RunSpec]) -> Vec<RunResult> {
        if specs.is_empty() {
            return Vec::new();
        }
        let batch_start = std::time::Instant::now();
        let resolved: Vec<RunSpec> = specs.iter().map(|s| s.resolved()).collect();
        let keys: Vec<String> = resolved
            .iter()
            .map(|s| {
                let json = serde_json::to_string(s).expect("spec serializes");
                ResultCache::key(&json, self.kernel_version)
            })
            .collect();

        // Deduplicate by content address, keeping first-seen order.
        let mut slot_by_key: HashMap<&str, usize> = HashMap::new();
        let mut assignment = Vec::with_capacity(specs.len());
        let mut uniques: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let slot = *slot_by_key.entry(key).or_insert_with(|| {
                uniques.push(i);
                uniques.len() - 1
            });
            assignment.push(slot);
        }

        // Probe the cache across the scheduler — each probe is one
        // indexed read+decode, and a large fully-cached batch would
        // otherwise be single-thread-bound. Results come back in slot
        // order, so the miss list is deterministic.
        let progress = Progress::new(uniques.len(), self.verbose);
        let (probed, _) =
            run_work_stealing(uniques.len(), workers_for(uniques.len()), |slot, _| {
                let i = uniques[slot];
                let hit = self.cache.as_ref().and_then(|c| c.get(&keys[i], self.kernel_version));
                if hit.is_some() {
                    progress.tick(true);
                }
                hit
            });
        let mut slots: Vec<Option<RunResult>> = probed;
        let misses: Vec<usize> = (0..uniques.len()).filter(|&slot| slots[slot].is_none()).collect();
        let n_cached = uniques.len() - misses.len();

        // Simulate the misses; each job arbitrates the requested kernel
        // against the host's core budget at start.
        let requested_kernel = crate::kernel_from_env().unwrap_or_else(|e| panic!("{e}"));
        let jobs: Vec<usize> = misses.iter().map(|&slot| uniques[slot]).collect();
        let (computed, sched) = self.simulate(
            &resolved,
            &keys,
            &jobs,
            requested_kernel,
            workers_for(usize::MAX),
            &progress,
        );
        if !misses.is_empty() {
            *self.last_sched.lock().expect("sched stats lock") = Some(sched);
        }
        let (computed, granted): (Vec<RunResult>, Vec<KernelMode>) = computed.into_iter().unzip();
        let sim_cycles: u64 = computed.iter().map(|r| r.runtime_cycles).sum();
        for (&slot, result) in misses.iter().zip(computed) {
            slots[slot] = Some(result);
        }
        progress.clear_line();

        self.submitted.fetch_add(specs.len(), Ordering::Relaxed);
        self.unique.fetch_add(uniques.len(), Ordering::Relaxed);
        self.cached.fetch_add(n_cached, Ordering::Relaxed);
        self.simulated.fetch_add(misses.len(), Ordering::Relaxed);
        if self.verbose {
            // Keep this line's shape stable: CI greps it to assert hit
            // rates. New fields go at the end, after the grepped ones.
            let wall = batch_start.elapsed().as_secs_f64();
            // Under the parallel kernel, report the tile geometries the
            // runs were actually granted (batches can mix topologies,
            // hence the set) and how many runs got tiles at all.
            let geometry = match requested_kernel {
                KernelMode::Parallel { tiles, .. } if !jobs.is_empty() => {
                    let mut geoms: Vec<String> = jobs
                        .iter()
                        .zip(&granted)
                        .filter_map(|(&i, kernel)| {
                            kernel.planned_grid(resolved[i].cfg.kx(), resolved[i].cfg.ky())
                        })
                        .map(|(r, c)| format!("{r}x{c}"))
                        .collect();
                    let tiled = geoms.len();
                    geoms.sort();
                    geoms.dedup();
                    let geoms = if geoms.is_empty() { "none".to_string() } else { geoms.join("|") };
                    format!(
                        ", parallel tiles {geoms} on {tiled}/{} runs ({tiles} requested)",
                        jobs.len()
                    )
                }
                _ => String::new(),
            };
            let sched_note = if misses.is_empty() {
                String::new()
            } else {
                format!(
                    ", {} workers ({:.0}% busy, {} steals)",
                    sched.workers,
                    sched.occupancy() * 100.0,
                    sched.steals,
                )
            };
            eprintln!(
                "[flov] engine: {} specs ({} unique): {} cached, {} simulated, \
                 {wall:.1}s wall, {:.0} sim-cycles/sec{geometry}{sched_note}",
                specs.len(),
                uniques.len(),
                n_cached,
                misses.len(),
                if wall > 0.0 { sim_cycles as f64 / wall } else { 0.0 },
            );
        }

        // Hand each slot's result to its last user without cloning — a
        // dense timeline makes RunResult a multi-kilobyte value, and the
        // common case is one submission per unique spec.
        let mut last_use: Vec<usize> = vec![usize::MAX; slots.len()];
        for (i, &slot) in assignment.iter().enumerate() {
            last_use[slot] = i;
        }
        assignment
            .iter()
            .enumerate()
            .map(|(i, &slot)| {
                if last_use[slot] == i {
                    slots[slot].take().expect("every unique slot filled")
                } else {
                    slots[slot].clone().expect("every unique slot filled")
                }
            })
            .collect()
    }

    /// Simulate the specs at indices `jobs` over the work-stealing
    /// scheduler and persist each result. Each job arbitrates `requested`
    /// against the live-job count and the `budget` of cores it may fan out
    /// over — the host's, not the batch's worker count, since a one-job
    /// batch runs on one worker but may tile over every core. Returns
    /// each job's result and the kernel it ran on.
    fn simulate(
        &self,
        specs: &[RunSpec],
        keys: &[String],
        jobs: &[usize],
        requested: KernelMode,
        budget: usize,
        progress: &Progress,
    ) -> (Vec<(RunResult, KernelMode)>, SchedStats) {
        run_work_stealing(jobs.len(), workers_for(jobs.len()), |j, ctx| {
            let i = jobs[j];
            let kernel = arbitrate(requested, ctx.live_jobs(), budget);
            let result = crate::run_kernel(&specs[i], kernel);
            if let Some(cache) = &self.cache {
                let entry = CacheEntry {
                    kernel_version: self.kernel_version,
                    spec: specs[i].clone(),
                    result: result.clone(),
                };
                if let Err(e) = cache.put(&keys[i], &entry) {
                    eprintln!("[flov] warning: could not persist {}: {e}", &keys[i]);
                }
            }
            progress.tick(false);
            (result, kernel)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mech: &str, fraction: f64) -> RunSpec {
        RunSpec::builder()
            .mechanism(mech)
            .k(4)
            .gated_fraction(fraction)
            .warmup(500)
            .cycles(3_000)
            .drain(10_000)
            .build()
    }

    #[test]
    fn dedup_simulates_each_unique_spec_once() {
        let e = Engine::without_cache();
        let specs =
            vec![tiny("gFLOV", 0.0), tiny("gFLOV", 0.5), tiny("gFLOV", 0.0), tiny("gFLOV", 0.0)];
        let results = e.run_batch(&specs);
        assert_eq!(results.len(), 4);
        let s = e.stats();
        assert_eq!(s, EngineStats { submitted: 4, unique: 2, cached: 0, simulated: 2 });
        // Duplicates get the same numbers, in submission order.
        assert_eq!(results[0].avg_latency, results[2].avg_latency);
        assert_eq!(results[0].packets, results[3].packets);
        assert_ne!(results[0].power.static_w, results[1].power.static_w);
    }

    #[test]
    fn batch_preserves_submission_order() {
        let e = Engine::without_cache();
        let specs: Vec<RunSpec> =
            ["Baseline", "RP", "gFLOV"].iter().map(|m| tiny(m, 0.4)).collect();
        let results = e.run_batch(&specs);
        let mechs: Vec<&str> = results.iter().map(|r| r.mechanism.as_str()).collect();
        assert_eq!(mechs, ["Baseline", "RP", "gFLOV"]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let e = Engine::without_cache();
        assert!(e.run_batch(&[]).is_empty());
        assert_eq!(e.stats(), EngineStats::default());
    }

    #[test]
    fn batch_records_scheduler_stats() {
        let e = Engine::without_cache();
        assert!(e.sched_stats().is_none());
        let specs: Vec<RunSpec> = (0..4).map(|i| tiny("gFLOV", i as f64 * 0.1)).collect();
        e.run_batch(&specs);
        let s = e.sched_stats().expect("compute phase ran");
        assert_eq!(s.jobs, 4);
        assert!(s.workers >= 1);
        assert!(s.occupancy() > 0.0 && s.occupancy() <= 1.0);
    }

    #[test]
    fn arbitrate_demotes_under_load_and_grants_on_drain() {
        let req = KernelMode::Parallel { tiles: 8, grid: None };
        // Saturated batch: every run single-threaded.
        assert_eq!(arbitrate(req, 16, 8), KernelMode::ActiveSet);
        assert_eq!(arbitrate(req, 8, 8), KernelMode::ActiveSet);
        // Draining: the share grows; never beyond the request.
        assert_eq!(arbitrate(req, 4, 8), KernelMode::Parallel { tiles: 2, grid: None });
        assert_eq!(arbitrate(req, 1, 8), KernelMode::Parallel { tiles: 8, grid: None });
        let pinned = KernelMode::Parallel { tiles: 4, grid: Some((2, 2)) };
        // Full grant keeps a pinned geometry; partial grant re-plans.
        assert_eq!(arbitrate(pinned, 1, 8), pinned);
        assert_eq!(arbitrate(pinned, 2, 8), KernelMode::Parallel { tiles: 4, grid: Some((2, 2)) });
        assert_eq!(arbitrate(pinned, 3, 8), KernelMode::Parallel { tiles: 2, grid: None });
        // Non-parallel kernels pass through untouched.
        assert_eq!(arbitrate(KernelMode::ActiveSet, 1, 8), KernelMode::ActiveSet);
        assert_eq!(arbitrate(KernelMode::Reference, 1, 8), KernelMode::Reference);
    }

    #[test]
    fn a_one_job_batch_gets_its_requested_tiles() {
        // One job runs on one scheduler worker, but the core budget (here
        // 2) is what its tiles may use.
        let e = Engine::without_cache();
        let requested = KernelMode::Parallel { tiles: 2, grid: None };
        let specs = [tiny("rFLOV", 0.3).resolved()];
        let progress = Progress::new(1, false);
        let (out, sched) = e.simulate(&specs, &[String::new()], &[0], requested, 2, &progress);
        assert_eq!(sched.workers, 1);
        assert_eq!(out[0].1, requested);
    }

    #[test]
    fn arbitration_never_changes_results() {
        // The same batch, saturated (ActiveSet) vs fully granted parallel
        // tiles, must be bit-identical — the kernel-equivalence guarantee
        // the arbiter relies on.
        let spec = tiny("rFLOV", 0.3);
        let a = crate::run_kernel(
            &spec,
            arbitrate(KernelMode::Parallel { tiles: 4, grid: None }, 16, 4),
        );
        let b = crate::run_kernel(
            &spec,
            arbitrate(KernelMode::Parallel { tiles: 4, grid: None }, 1, 4),
        );
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.power.total_w, b.power.total_w);
    }
}
