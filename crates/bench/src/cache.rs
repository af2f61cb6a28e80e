//! Content-addressed on-disk result cache: sharded, indexed, binary.
//!
//! Every completed simulation is persisted under `results/cache/`, keyed
//! by a 128-bit hash of the run's *canonical spec JSON* plus the engine's
//! kernel-version salt. Canonical means: declaration-ordered map keys and
//! shortest-roundtrip float formatting (see the workspace `serde_json`
//! shim), so equal specs always hash identically. Bumping
//! [`crate::engine::KERNEL_VERSION`] changes every key, which is how
//! simulator-behavior changes invalidate stale results without touching
//! the cache directory.
//!
//! Layout: entries fan out into 256 hash-prefix shard subdirectories
//! (`<dir>/<first two hex chars>/<key>.bin`), created lazily and written
//! atomically (temp file + `sync_all` + same-directory rename), so a
//! killed sweep never leaves a partial entry behind. Every entry is the
//! compact binary container of [`crate::binfmt`].
//!
//! Probing is O(1): the first probe scans the directory tree once into an
//! in-memory index (key → path), after which a warm 10k-run sweep never
//! stats a file that is not there. Corrupt or truncated entries (bad
//! magic, CRC mismatch, a result section that does not decode) are
//! treated as misses and moved to `<dir>/quarantine/` for inspection —
//! never a panic. Cache hits bump the entry's access time (best-effort)
//! so `flov cache gc` can evict least-recently-used entries first.

use crate::binfmt;
use crate::spec::{RunResult, RunSpec};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Subdirectory corrupt entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What one cache file holds: enough to audit a result without re-running
/// it (the spec is stored alongside, not just its hash).
#[derive(Clone, Debug)]
pub struct CacheEntry {
    pub kernel_version: u32,
    pub spec: RunSpec,
    pub result: RunResult,
}

/// Summary of what's on disk, for `flov cache stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Binary entries in shard subdirectories.
    pub entries: usize,
    pub total_bytes: u64,
    /// Shard subdirectories present.
    pub shard_dirs: usize,
    /// Files parked in `quarantine/`.
    pub quarantined: usize,
    pub quarantined_bytes: u64,
    /// Temp files of writes in flight or of killed writers, in shard
    /// subdirectories.
    pub temp_files: usize,
    pub temp_bytes: u64,
}

/// Knobs for [`ResultCache::gc`]. Unset fields do not evict.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcOptions {
    /// Evict least-recently-used entries until the cache fits.
    pub max_bytes: Option<u64>,
    /// Evict entries not touched within this window.
    pub max_age: Option<Duration>,
}

/// What [`ResultCache::gc`] did, counting entries and temp files alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    pub scanned: usize,
    pub scanned_bytes: u64,
    pub removed: usize,
    pub removed_bytes: u64,
}

/// What [`ResultCache::verify`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    pub checked: usize,
    pub ok: usize,
    /// Entries that failed structural or content-hash checks and were
    /// moved to `quarantine/`.
    pub quarantined: usize,
}

/// A directory of content-addressed cache entries. Cloning shares the
/// in-memory index.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// Lazily built key → path map; `None` until the first probe.
    index: Arc<Mutex<Option<HashMap<String, PathBuf>>>>,
}

/// Temp files written so far by this process: with the pid, it makes
/// every write's temp name unique, so two writers of one key never share
/// (and truncate) one temp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// 64-bit FNV-1a over `bytes`, from a caller-chosen basis.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// True when `key` is 32 lowercase hex characters.
fn is_key(key: &str) -> bool {
    key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
}

/// `Some(key)` when `name` is `<32 lowercase hex>.bin`.
fn entry_key(name: &str) -> Option<&str> {
    name.strip_suffix(".bin").filter(|key| is_key(key))
}

/// True when `name` is a temp file [`ResultCache::put`] writes:
/// `.<key>.tmp-<pid>-<n>`.
fn is_temp(name: &str) -> bool {
    name.strip_prefix('.').and_then(|n| n.split_once(".tmp-")).is_some_and(|(key, _)| is_key(key))
}

/// Every `<key>.bin` file directly inside `dir`, as `(key, path)`.
fn entries_in(dir: &Path) -> impl Iterator<Item = (String, PathBuf)> {
    fs::read_dir(dir).into_iter().flatten().flatten().filter_map(|f| {
        let name = f.file_name();
        let key = entry_key(name.to_str()?)?.to_string();
        Some((key, f.path()))
    })
}

impl ResultCache {
    /// A sharded cache rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache { dir: dir.into(), index: Arc::new(Mutex::new(None)) }
    }

    /// The default location: `$FLOV_CACHE_DIR`, or `results/cache`.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("FLOV_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results/cache"))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of a run: 128-bit hex over the canonical spec
    /// JSON, salted by the kernel version. Two independent FNV-1a streams
    /// (distinct bases, salt mixed in differently) make accidental
    /// collisions across a realistic sweep negligible.
    pub fn key(canonical_spec_json: &str, kernel_version: u32) -> String {
        let bytes = canonical_spec_json.as_bytes();
        let salt = kernel_version as u64;
        let h1 = fnv1a(0xcbf29ce484222325 ^ salt, bytes);
        let h2 = fnv1a(0x6c62272e07bb0142 ^ salt.rotate_left(32), bytes);
        format!("{h1:016x}{h2:016x}")
    }

    /// Shard subdirectory for `key`: its first two hex characters.
    fn shard_dir(&self, key: &str) -> PathBuf {
        self.dir.join(&key[..2])
    }

    /// Shard subdirectories present on disk.
    fn shards(&self) -> impl Iterator<Item = PathBuf> {
        fs::read_dir(&self.dir).into_iter().flatten().flatten().map(|e| e.path()).filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()) && p.is_dir()
        })
    }

    // ------------------------------------------------------------- index

    /// One directory scan building the key → path map over the binary
    /// entries in shard subdirectories; tmp files, any other file and
    /// `quarantine/` are skipped.
    fn scan(&self) -> HashMap<String, PathBuf> {
        self.shards().flat_map(|s| entries_in(&s)).collect()
    }

    /// Build the index now (normally it builds on the first probe) and
    /// report `(entries, seconds)` — `flov cache stats` and
    /// `bench-engine` surface the scan cost.
    pub fn prime_index(&self) -> (usize, f64) {
        let t0 = std::time::Instant::now();
        let mut guard = self.index.lock().expect("cache index lock");
        if guard.is_none() {
            *guard = Some(self.scan());
        }
        (guard.as_ref().map(|m| m.len()).unwrap_or(0), t0.elapsed().as_secs_f64())
    }

    /// Indexed keys, sorted (test/diagnostic surface).
    pub fn known_keys(&self) -> Vec<String> {
        self.prime_index();
        let guard = self.index.lock().expect("cache index lock");
        let mut keys: Vec<String> =
            guard.as_ref().map(|m| m.keys().cloned().collect()).unwrap_or_default();
        keys.sort();
        keys
    }

    fn index_lookup(&self, key: &str) -> Option<PathBuf> {
        let mut guard = self.index.lock().expect("cache index lock");
        if guard.is_none() {
            *guard = Some(self.scan());
        }
        guard.as_ref().and_then(|m| m.get(key).cloned())
    }

    fn index_insert(&self, key: &str, path: PathBuf) {
        let mut guard = self.index.lock().expect("cache index lock");
        if let Some(m) = guard.as_mut() {
            m.insert(key.to_string(), path);
        }
    }

    fn index_forget(&self, key: &str) {
        let mut guard = self.index.lock().expect("cache index lock");
        if let Some(m) = guard.as_mut() {
            m.remove(key);
        }
    }

    /// Drop the in-memory index (after gc/verify/clear rearrange disk);
    /// the next probe rescans.
    fn index_reset(&self) {
        *self.index.lock().expect("cache index lock") = None;
    }

    // ------------------------------------------------------------ probing

    /// Fetch the result stored under `key`, verifying the salt. Corrupt
    /// or truncated entries read as misses and are quarantined; a hit
    /// bumps the entry's access time for LRU eviction.
    pub fn get(&self, key: &str, kernel_version: u32) -> Option<RunResult> {
        let path = self.index_lookup(key)?;
        // One open serves both the read and, on a hit, the LRU atime bump
        // (the probe path runs thousands of times per warm sweep, so the
        // second path lookup a reopen would cost is worth avoiding).
        let Ok(mut file) = fs::File::open(&path) else {
            // Deleted since the scan (concurrent gc/clear): a plain miss.
            self.index_forget(key);
            return None;
        };
        let mut bytes =
            Vec::with_capacity(file.metadata().map(|m| m.len() as usize + 1).unwrap_or(0));
        if file.read_to_end(&mut bytes).is_err() {
            self.index_forget(key);
            return None;
        }
        match binfmt::decode_result(&bytes, key, kernel_version) {
            Ok(Some(result)) => {
                // Best effort, for LRU order only. A bump that never lands
                // (a read-only mount, an entry another user owns) leaves
                // the entry's recency, max(atime, mtime), no older than its
                // write, so `gc` then orders it by when it was written.
                let _ = file.set_times(fs::FileTimes::new().set_accessed(SystemTime::now()));
                Some(result)
            }
            Ok(None) => None,
            Err(e) => {
                drop(file);
                self.quarantine(&path, &e.0);
                None
            }
        }
    }

    /// Persist `entry` under `key` atomically: the shard directory is
    /// created lazily, the bytes land in a same-directory temp file that is
    /// synced to disk, and a rename publishes the entry — a crashed or
    /// concurrent run never leaves a half-written entry under a probed
    /// name. On failure the temp file is removed.
    pub fn put(&self, key: &str, entry: &CacheEntry) -> std::io::Result<()> {
        let shard = self.shard_dir(key);
        fs::create_dir_all(&shard)?;
        let spec_json = serde_json::to_string(&entry.spec).expect("spec serializes");
        let bytes = binfmt::encode_entry(key, entry.kernel_version, &spec_json, &entry.result);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = shard.join(format!(".{key}.tmp-{}-{seq}", std::process::id()));
        let path = shard.join(format!("{key}.bin"));
        let published = fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&bytes)?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, &path));
        if let Err(e) = published {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.index_insert(key, path);
        Ok(())
    }

    /// Move a corrupt entry to `quarantine/` (fall back to deleting it),
    /// so it stops being probed but stays available for inspection.
    fn quarantine(&self, path: &Path, reason: &str) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = fs::create_dir_all(&qdir);
        let moved = match path.file_name() {
            Some(name) => fs::rename(path, qdir.join(name)).is_ok(),
            None => false,
        };
        if !moved {
            let _ = fs::remove_file(path);
        }
        eprintln!("[flov] cache: quarantined {} ({reason})", path.display());
        if let Some(key) = path.file_name().and_then(|n| n.to_str()).and_then(entry_key) {
            self.index_forget(key);
        }
    }

    // -------------------------------------------------------- maintenance

    /// Every entry on disk as `(key, path, bytes, last use)`, where last
    /// use is the newer of the access time a hit bumps and the write time.
    fn inventory(&self) -> Vec<(String, PathBuf, u64, SystemTime)> {
        self.index_reset();
        self.scan()
            .into_iter()
            .map(|(key, path)| {
                let meta = fs::metadata(&path).ok();
                let len = meta.as_ref().map(|m| m.len()).unwrap_or(0);
                let recency = meta
                    .map(|m| {
                        let modified = m.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        m.accessed().unwrap_or(SystemTime::UNIX_EPOCH).max(modified)
                    })
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                (key, path, len, recency)
            })
            .collect()
    }

    /// Every temp file in a shard directory as `(name, path, bytes, last
    /// write)`.
    fn temp_files(&self) -> Vec<(String, PathBuf, u64, SystemTime)> {
        let files = self.shards().flat_map(|s| fs::read_dir(s).into_iter().flatten().flatten());
        files
            .filter_map(|f| {
                let name = f.file_name().into_string().ok().filter(|n| is_temp(n))?;
                let meta = f.metadata().ok();
                let len = meta.as_ref().map(|m| m.len()).unwrap_or(0);
                let written =
                    meta.and_then(|m| m.modified().ok()).unwrap_or(SystemTime::UNIX_EPOCH);
                Some((name, f.path(), len, written))
            })
            .collect()
    }

    /// Count the entries, temp files (and bytes) currently on disk.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for shard in self.shards() {
            s.shard_dirs += 1;
            for (_, path) in entries_in(&shard) {
                s.entries += 1;
                s.total_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
        }
        for (_, _, len, _) in self.temp_files() {
            s.temp_files += 1;
            s.temp_bytes += len;
        }
        if let Ok(q) = fs::read_dir(self.dir.join(QUARANTINE_DIR)) {
            for f in q.flatten() {
                s.quarantined += 1;
                s.quarantined_bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        s
    }

    /// Remove every shard directory with all it holds (entries and the
    /// temp files of killed writers) and `quarantine/`; other files in the
    /// cache directory stay. Returns how many entries were removed.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut n = 0;
        for shard in self.shards() {
            n += entries_in(&shard).count();
            fs::remove_dir_all(&shard)?;
        }
        match fs::remove_dir_all(self.dir.join(QUARANTINE_DIR)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        self.index_reset();
        Ok(n)
    }

    /// Evict entries per `opts`: first everything older than `max_age`,
    /// then — least-recently-used first — until the survivors fit in
    /// `max_bytes`. Cache hits bump access times, so recently replayed
    /// entries survive. Temp files are evicted alike, aged by their last
    /// write (a live writer whose temp file goes fails its `put`), and
    /// shard directories left empty are removed.
    pub fn gc(&self, opts: &GcOptions) -> std::io::Result<GcReport> {
        let mut entries = self.inventory();
        entries.extend(self.temp_files());
        let mut report = GcReport {
            scanned: entries.len(),
            scanned_bytes: entries.iter().map(|(_, _, len, _)| len).sum(),
            ..GcReport::default()
        };
        let evict = |path: &Path, len: u64, report: &mut GcReport| -> std::io::Result<()> {
            match fs::remove_file(path) {
                // Published or removed since the scan.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
                Ok(()) => {
                    report.removed += 1;
                    report.removed_bytes += len;
                }
            }
            Ok(())
        };
        if let Some(age) = opts.max_age {
            let cutoff = SystemTime::now().checked_sub(age).unwrap_or(SystemTime::UNIX_EPOCH);
            let mut kept = Vec::with_capacity(entries.len());
            for (key, path, len, recency) in entries {
                if recency < cutoff {
                    evict(&path, len, &mut report)?;
                } else {
                    kept.push((key, path, len, recency));
                }
            }
            entries = kept;
        }
        if let Some(budget) = opts.max_bytes {
            // Most-recently-used first; evict from the tail once over budget.
            entries.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
            let mut used = 0u64;
            for (_, path, len, _) in entries {
                used += len;
                if used > budget {
                    evict(&path, len, &mut report)?;
                }
            }
        }
        for shard in self.shards() {
            // Fails, and keeps the directory, unless it is empty.
            let _ = fs::remove_dir(shard);
        }
        self.index_reset();
        Ok(report)
    }

    /// Re-read every entry, re-deriving its content hash from the stored
    /// spec: structural corruption (bad magic/CRC/result layout) and hash
    /// mismatches (entry filed under a key its spec does not hash to)
    /// both quarantine the file.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (key, path, _, _) in self.inventory() {
            report.checked += 1;
            match self.verify_one(&key, &path) {
                Ok(()) => report.ok += 1,
                Err(reason) => {
                    self.quarantine(&path, &reason);
                    report.quarantined += 1;
                }
            }
        }
        self.index_reset();
        report
    }

    fn verify_one(&self, key: &str, path: &Path) -> Result<(), String> {
        let bytes = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
        let entry = binfmt::decode_entry(&bytes).map_err(|e| e.0)?;
        if entry.key != key {
            return Err(format!("stored hash {} does not match filename", entry.key));
        }
        let derived = ResultCache::key(&entry.spec_json, entry.kernel_version);
        if derived != key {
            return Err(format!("spec hashes to {derived}, filed under {key}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical(spec: &RunSpec) -> String {
        serde_json::to_string(spec).unwrap()
    }

    #[test]
    fn key_is_stable_and_salt_sensitive() {
        let json = canonical(&RunSpec::builder().seed(1).build());
        let a = ResultCache::key(&json, 1);
        let b = ResultCache::key(&json, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, ResultCache::key(&json, 2), "salt must change the key");
        let other = canonical(&RunSpec::builder().seed(2).build());
        assert_ne!(a, ResultCache::key(&other, 1), "spec must change the key");
    }

    #[test]
    fn equal_specs_share_a_key() {
        let a = RunSpec::builder().mechanism("rFLOV").rate(0.08).build();
        let b = RunSpec::builder().rate(0.08).mechanism("rFLOV").build();
        assert_eq!(ResultCache::key(&canonical(&a), 1), ResultCache::key(&canonical(&b), 1),);
    }

    fn tiny_entry(seed: u64) -> (String, CacheEntry) {
        let spec = RunSpec::builder().k(2).seed(seed).warmup(50).cycles(300).drain(5_000).build();
        let result = crate::run_kernel(&spec, crate::KernelMode::ActiveSet);
        let key = ResultCache::key(&canonical(&spec), 1);
        (key, CacheEntry { kernel_version: 1, spec, result })
    }

    fn temp_cache(tag: &str) -> (PathBuf, ResultCache) {
        let dir =
            std::env::temp_dir().join(format!("flov-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (dir.clone(), ResultCache::new(dir))
    }

    #[cfg(unix)]
    #[test]
    fn probes_survive_a_read_only_shard_dir() {
        use std::os::unix::fs::PermissionsExt;
        let (dir, cache) = temp_cache("readonly");
        let (key, entry) = tiny_entry(4);
        cache.put(&key, &entry).unwrap();
        let shard = cache.shard_dir(&key);
        let entry_path = cache.index_lookup(&key).unwrap();
        let restore = |p: &Path, mode: u32| {
            let mut perm = fs::metadata(p).unwrap().permissions();
            perm.set_mode(mode);
            fs::set_permissions(p, perm).unwrap();
        };
        restore(&entry_path, 0o444);
        restore(&shard, 0o555);
        // A read-only layout must never fail the probe, whether or not the
        // atime bump lands (root may set times regardless).
        assert!(cache.get(&key, 1).is_some(), "read-only shard broke probing");
        restore(&shard, 0o755);
        restore(&entry_path, 0o644);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_key_accepts_entries_and_rejects_noise() {
        let key = "0123456789abcdef0123456789abcdef";
        assert_eq!(entry_key(&format!("{key}.bin")), Some(key));
        assert_eq!(entry_key(&format!("{key}.json")), None);
        assert_eq!(entry_key(&format!("{key}bin")), None);
        assert_eq!(entry_key(&format!(".{key}.tmp-123-0")), None);
        assert_eq!(entry_key("0123456789ABCDEF0123456789ABCDEF.bin"), None);
        assert_eq!(entry_key("short.bin"), None);
        assert_eq!(entry_key("notes.txt"), None);
    }

    #[test]
    fn is_temp_matches_only_put_temp_names() {
        let key = "0123456789abcdef0123456789abcdef";
        assert!(is_temp(&format!(".{key}.tmp-123-0")));
        assert!(!is_temp(&format!("{key}.tmp-123-0")));
        assert!(!is_temp(&format!(".{key}.bin")));
        assert!(!is_temp(".short.tmp-1-0"));
        assert!(!is_temp(".notes.txt"));
    }
}
