//! Host facts stored with every result set, and process counters read
//! from `/proc`.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out at `root`, read from `.git` without running git.
/// Outside a git checkout it is `src-<hash>`, a 64-bit FNV-1a digest of
/// the workspace sources, so two trees with equal sources share it.
pub fn commit(root: &Path) -> String {
    git_head(root).unwrap_or_else(|| {
        let mut files = Vec::new();
        for top in ["Cargo.toml", "Cargo.lock", "crates", "compat"] {
            collect_files(&root.join(top), &mut files);
        }
        files.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in &files {
            let bytes = std::fs::read(f).unwrap_or_default();
            for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        format!("src-{h:016x}")
    })
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(path) {
        for e in rd.flatten() {
            if e.file_name() != "target" {
                collect_files(&e.path(), out);
            }
        }
    }
}

/// User plus system CPU seconds of this process, every thread included
/// (`/proc/self/stat` reports clock ticks of 1/100 s).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// CPU seconds the hypervisor has taken from this machine's vCPUs, summed
/// over vCPUs (`steal` in `/proc/stat`, in ticks of 1/100 s).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat.lines().next().and_then(|l| l.split_whitespace().nth(8));
    ticks.and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0) / 100.0
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Spin for `d`, returning how many work blocks were completed.
fn spin(d: Duration) -> u64 {
    let t0 = Instant::now();
    let (mut blocks, mut x) = (0u64, 1u64);
    while t0.elapsed() < d {
        for _ in 0..1_000 {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        blocks += 1;
    }
    black_box(x);
    blocks
}

/// Work two spinning threads complete relative to one: 1.0 means the
/// second core was absent or busy, 2.0 that it was fully free.
pub fn parallel_capacity() -> f64 {
    let d = Duration::from_millis(150);
    let spin_on = |threads: usize| -> u64 {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| spin(d))).collect();
            handles.into_iter().map(|h| h.join().expect("calibration thread panicked")).sum()
        })
    };
    // The better of two single-thread spins, so a slow first spin (clock
    // ramp-up, a preempted thread) does not inflate the ratio.
    let one = spin_on(1).max(spin_on(1));
    spin_on(2) as f64 / one.max(1) as f64
}
