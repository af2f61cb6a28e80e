//! Work-stealing job scheduler for the batch engine.
//!
//! `Engine::run_batch` used to hand the compat-rayon pool a fixed-chunk
//! fork-join: worker `w` owned jobs `[w*n/W, (w+1)*n/W)` and idled once
//! its chunk drained, even while a neighbor still held a deep queue of
//! slow simulations. This module replaces that with per-worker deques:
//! each worker pops its own queue from the front (cache-friendly, keeps
//! the submission-contiguous chunks together) and, when empty, steals
//! from the *back* of a neighbor's queue — the classic Chase–Lev shape,
//! here with a `Mutex<VecDeque>` per worker since job bodies are whole
//! simulations (microseconds to seconds) and lock traffic is noise.
//!
//! Determinism: results are written into a slot vector indexed by
//! submission order, so callers observe exactly the sequential ordering
//! no matter which worker ran which job or in what order. The job body
//! receives a [`JobCtx`] exposing the live (not-yet-finished) job count,
//! which the engine uses to arbitrate nested parallelism — many runnable
//! jobs → each run stays single-threaded; a dwindling tail → runs may
//! fan out over in-run tiles.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handed to each job; describes scheduler state at the moment the job
/// starts.
pub struct JobCtx<'a> {
    remaining: &'a AtomicUsize,
    /// Worker threads serving this batch.
    pub workers: usize,
}

impl JobCtx<'_> {
    /// Jobs not yet completed, including those currently running. An
    /// over-estimate is fine: it only makes nested-parallelism
    /// arbitration more conservative.
    pub fn live_jobs(&self) -> usize {
        self.remaining.load(Ordering::Relaxed)
    }
}

/// Counters describing how a batch was scheduled.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedStats {
    pub workers: usize,
    pub jobs: usize,
    /// Jobs executed by a worker other than the one they were seeded to.
    pub steals: u64,
    /// Total nanoseconds workers spent inside job bodies.
    pub busy_nanos: u64,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_nanos: u64,
}

impl SchedStats {
    /// Fraction of worker-time spent inside job bodies, in [0, 1].
    pub fn occupancy(&self) -> f64 {
        let capacity = self.wall_nanos.saturating_mul(self.workers as u64);
        if capacity == 0 {
            return 0.0;
        }
        (self.busy_nanos as f64 / capacity as f64).min(1.0)
    }
}

/// Worker count for a batch of `jobs`: one thread per job up to the core
/// budget ([`crate::Switches::threads`], else the host's parallelism).
pub fn workers_for(jobs: usize) -> usize {
    let host = crate::Switches::get()
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    host.min(jobs).max(1)
}

/// Run `f(job_index, ctx)` for every job in `0..jobs` across `workers`
/// threads with work stealing; returns results in submission order plus
/// scheduling counters. Panics in job bodies propagate to the caller.
pub fn run_work_stealing<R, F>(jobs: usize, workers: usize, f: F) -> (Vec<R>, SchedStats)
where
    R: Send,
    F: Fn(usize, &JobCtx) -> R + Sync,
{
    let start = Instant::now();
    let mut stats = SchedStats { workers: workers.max(1), jobs, ..SchedStats::default() };
    if jobs == 0 {
        return (Vec::new(), stats);
    }
    if workers <= 1 || jobs == 1 {
        stats.workers = 1;
        let remaining = AtomicUsize::new(jobs);
        let ctx = JobCtx { remaining: &remaining, workers: 1 };
        let mut out = Vec::with_capacity(jobs);
        for i in 0..jobs {
            out.push(f(i, &ctx));
            remaining.fetch_sub(1, Ordering::Relaxed);
        }
        stats.wall_nanos = start.elapsed().as_nanos() as u64;
        stats.busy_nanos = stats.wall_nanos;
        return (out, stats);
    }

    // Seed each worker's deque with a contiguous chunk of submission
    // indices, same assignment the old fork-join used, so the no-steal
    // fast path touches jobs in the same order.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * jobs / workers;
            let hi = (w + 1) * jobs / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    let remaining = AtomicUsize::new(jobs);
    let steals = AtomicU64::new(0);
    let busy = AtomicU64::new(0);

    // Each worker collects (slot, result) pairs locally; merged after
    // join so `R` needs no Default and slots are written exactly once.
    let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let remaining = &remaining;
                let steals = &steals;
                let busy = &busy;
                let f = &f;
                scope.spawn(move || {
                    let ctx = JobCtx { remaining, workers };
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut busy_local = 0u64;
                    loop {
                        // Own queue first (front = submission order)...
                        let mut job = queues[w].lock().expect("deque lock").pop_front();
                        let mut stolen = false;
                        if job.is_none() {
                            // ...then sweep neighbors, stealing from the back.
                            for step in 1..workers {
                                let v = (w + step) % workers;
                                if let Some(j) = queues[v].lock().expect("deque lock").pop_back() {
                                    job = Some(j);
                                    stolen = true;
                                    break;
                                }
                            }
                        }
                        let Some(j) = job else { break };
                        if stolen {
                            steals.fetch_add(1, Ordering::Relaxed);
                        }
                        let t0 = Instant::now();
                        let r = f(j, &ctx);
                        busy_local += t0.elapsed().as_nanos() as u64;
                        remaining.fetch_sub(1, Ordering::Relaxed);
                        local.push((j, r));
                    }
                    busy.fetch_add(busy_local, Ordering::Relaxed);
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("scheduler worker panicked")).collect()
    });

    // Merge worker-local results into submission-order slots.
    let mut slots: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    for pairs in collected.drain(..) {
        for (slot, r) in pairs {
            debug_assert!(slots[slot].is_none(), "job {slot} ran twice");
            slots[slot] = Some(r);
        }
    }
    let out: Vec<R> = slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} never ran")))
        .collect();

    stats.steals = steals.load(Ordering::Relaxed);
    stats.busy_nanos = busy.load(Ordering::Relaxed);
    stats.wall_nanos = start.elapsed().as_nanos() as u64;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_arrive_in_submission_order() {
        for workers in [1, 2, 3, 8] {
            let (out, stats) = run_work_stealing(100, workers, |i, _| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.jobs, 100);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        let (out, _) = run_work_stealing(counters.len(), 4, |i, _| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), counters.len());
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn live_jobs_counts_down() {
        let min_seen = AtomicUsize::new(usize::MAX);
        let (_, _) = run_work_stealing(50, 2, |_, ctx| {
            let live = ctx.live_jobs();
            min_seen.fetch_min(live, Ordering::Relaxed);
            assert!(live >= 1, "a running job counts as live");
        });
        assert!(min_seen.load(Ordering::Relaxed) <= 8, "tail should drain");
    }

    #[test]
    fn imbalanced_jobs_get_stolen() {
        // One pathological chunk: jobs 0..50 are slow, the rest instant.
        // With 4 workers the fast workers must steal from the slow chunk
        // owner for the batch to finish; just check totals stay correct.
        let (out, stats) = run_work_stealing(64, 4, |i, _| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(stats.workers, 4);
        assert!(stats.wall_nanos > 0 && stats.busy_nanos > 0);
        assert!(stats.occupancy() <= 1.0);
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        let (out, stats) = run_work_stealing(0, 4, |i, _| i);
        assert!(out.is_empty());
        assert_eq!(stats.jobs, 0);
        let (out, stats) = run_work_stealing(1, 4, |i, _| i + 10);
        assert_eq!(out, vec![10]);
        assert_eq!(stats.workers, 1, "single job runs inline");
    }

    #[test]
    fn workers_for_is_clamped() {
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(10_000) >= 1);
    }
}
