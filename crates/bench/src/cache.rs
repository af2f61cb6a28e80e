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
//! compact binary container of [`crate::binfmt`]. JSON entries that older
//! builds wrote (flat `<dir>/<key>.json` or sharded) are never probed:
//! `flov cache migrate` is the one reader of them, and rewrites each as a
//! binary entry without changing its content hash.
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
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

/// Subdirectory corrupt entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// What one cache file holds: enough to audit a result without re-running
/// it (the spec is stored alongside, not just its hash).
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// JSON entries older builds wrote (flat or sharded). Probes ignore
    /// them until `flov cache migrate` rewrites them as binary.
    pub awaiting_migrate: usize,
    /// Shard subdirectories present.
    pub shard_dirs: usize,
    /// Files parked in `quarantine/`.
    pub quarantined: usize,
    pub quarantined_bytes: u64,
    /// LRU atime bumps that failed since this cache handle was created
    /// (noatime/read-only mounts). Non-zero means access times are stale
    /// and GC recency falls back to modification times.
    pub atime_bump_failures: u64,
}

/// Knobs for [`ResultCache::gc`]. Unset fields do not evict.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcOptions {
    /// Evict least-recently-used entries until the cache fits.
    pub max_bytes: Option<u64>,
    /// Evict entries not touched within this window.
    pub max_age: Option<Duration>,
}

/// What [`ResultCache::gc`] did.
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

/// What [`ResultCache::migrate`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrateReport {
    /// JSON entries rewritten as sharded binary (hash-preserving).
    pub migrated: usize,
    /// Binary entries already present, left alone.
    pub already_binary: usize,
    /// JSON entries deleted because their key already has a binary entry.
    pub superseded: usize,
    /// Unreadable or hash-mismatched JSON entries moved to `quarantine/`.
    pub quarantined: usize,
}

/// A directory of content-addressed cache entries. Cloning shares the
/// in-memory index.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// Lazily built key → path map; `None` until the first probe.
    index: Arc<Mutex<Option<HashMap<String, PathBuf>>>>,
    /// How many LRU atime bumps have failed (shared across clones, like
    /// the index). The first failure also latches `atime_unreliable`.
    atime_failures: Arc<AtomicU64>,
    /// Once an atime bump fails (noatime/read-only mount), access times
    /// can no longer be trusted to reflect use: recency ordering falls
    /// back to modification times for the rest of this handle's life.
    atime_unreliable: Arc<AtomicBool>,
    /// Test-only failure injection: filesystem-owner semantics let root
    /// set times even on read-only files, so the failure path cannot be
    /// provoked from the outside in a root-run test suite.
    #[cfg(test)]
    fail_atime_bumps: Arc<AtomicBool>,
}

/// 64-bit FNV-1a over `bytes`, from a caller-chosen basis.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// `Some(key)` when `name` is `<32 lowercase hex>.<ext>`.
fn entry_key<'a>(name: &'a str, ext: &str) -> Option<&'a str> {
    let key = name.strip_suffix(ext)?.strip_suffix('.')?;
    (key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()))
        .then_some(key)
}

/// Every `<key>.<ext>` file directly inside `dir`, as `(key, path)`.
fn entries_in<'a>(dir: &Path, ext: &'a str) -> impl Iterator<Item = (String, PathBuf)> + 'a {
    fs::read_dir(dir).into_iter().flatten().flatten().filter_map(move |f| {
        let name = f.file_name();
        let key = entry_key(name.to_str()?, ext)?.to_string();
        Some((key, f.path()))
    })
}

impl ResultCache {
    /// A sharded cache rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache {
            dir: dir.into(),
            index: Arc::new(Mutex::new(None)),
            atime_failures: Arc::new(AtomicU64::new(0)),
            atime_unreliable: Arc::new(AtomicBool::new(false)),
            #[cfg(test)]
            fail_atime_bumps: Arc::new(AtomicBool::new(false)),
        }
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

    /// JSON entries older builds wrote, flat or sharded, as `(key, path)`.
    /// Only [`ResultCache::migrate`] reads them.
    fn json_entries(&self) -> Vec<(String, PathBuf)> {
        let sharded = self.shards().flat_map(|s| entries_in(&s, "json"));
        entries_in(&self.dir, "json").chain(sharded).collect()
    }

    // ------------------------------------------------------------- index

    /// One directory scan building the key → path map over the binary
    /// entries in shard subdirectories; tmp files, JSON leftovers and
    /// `quarantine/` are skipped.
    fn scan(&self) -> HashMap<String, PathBuf> {
        self.shards().flat_map(|s| entries_in(&s, "bin")).collect()
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

    /// Drop the in-memory index (after gc/migrate/clear rearrange disk);
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
                self.bump_atime(&file);
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

    /// Bump `file`'s access time so `gc` can evict least-recently-*used*
    /// first. LRU accuracy only — a failure (noatime or read-only mount)
    /// never fails the probe — but failures are *counted*, surfaced in
    /// [`ResultCache::stats`], and latch the mtime-ordering fallback for
    /// [`ResultCache::gc`] recency (stale access times would otherwise
    /// make "LRU" eviction arbitrary).
    fn bump_atime(&self, file: &fs::File) {
        #[cfg(test)]
        let outcome = if self.fail_atime_bumps.load(Ordering::Relaxed) {
            Err(std::io::Error::other("injected atime failure"))
        } else {
            file.set_times(fs::FileTimes::new().set_accessed(SystemTime::now()))
        };
        #[cfg(not(test))]
        let outcome = file.set_times(fs::FileTimes::new().set_accessed(SystemTime::now()));
        if outcome.is_err() {
            self.atime_failures.fetch_add(1, Ordering::Relaxed);
            self.atime_unreliable.store(true, Ordering::Relaxed);
        }
    }

    /// LRU atime bumps that failed through this handle (and its clones).
    pub fn atime_bump_failures(&self) -> u64 {
        self.atime_failures.load(Ordering::Relaxed)
    }

    /// Whether GC recency has fallen back to modification-time ordering
    /// (latched by the first failed atime bump).
    pub fn atime_unreliable(&self) -> bool {
        self.atime_unreliable.load(Ordering::Relaxed)
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
        let tmp = shard.join(format!(".{key}.tmp-{}", std::process::id()));
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
        if let Some(key) =
            path.file_name().and_then(|n| n.to_str()).and_then(|n| entry_key(n, "bin"))
        {
            self.index_forget(key);
        }
    }

    // -------------------------------------------------------- maintenance

    /// Every entry on disk as `(key, path, bytes, last use)`.
    fn inventory(&self) -> Vec<(String, PathBuf, u64, SystemTime)> {
        self.index_reset();
        // Once a bump has failed, access times no longer track use: an
        // entry replayed a thousand times can look untouched. Ordering by
        // modification time alone is then the honest recency signal.
        let trust_atime = !self.atime_unreliable();
        self.scan()
            .into_iter()
            .map(|(key, path)| {
                let meta = fs::metadata(&path).ok();
                let len = meta.as_ref().map(|m| m.len()).unwrap_or(0);
                let recency = meta
                    .map(|m| {
                        let modi = m.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        if trust_atime {
                            m.accessed().unwrap_or(SystemTime::UNIX_EPOCH).max(modi)
                        } else {
                            modi
                        }
                    })
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                (key, path, len, recency)
            })
            .collect()
    }

    /// Count the entries (and bytes) currently on disk.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            awaiting_migrate: self.json_entries().len(),
            atime_bump_failures: self.atime_bump_failures(),
            ..Default::default()
        };
        for shard in self.shards() {
            s.shard_dirs += 1;
            for (_, path) in entries_in(&shard, "bin") {
                s.entries += 1;
                s.total_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            }
        }
        if let Ok(q) = fs::read_dir(self.dir.join(QUARANTINE_DIR)) {
            for f in q.flatten() {
                s.quarantined += 1;
                s.quarantined_bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        s
    }

    /// Delete every entry, JSON entry awaiting migrate and quarantined
    /// file; returns how many entries (binary or JSON) were removed.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut n = 0;
        for path in self.scan().into_values().chain(self.json_entries().into_iter().map(|e| e.1)) {
            fs::remove_file(&path)?;
            n += 1;
        }
        let qdir = self.dir.join(QUARANTINE_DIR);
        if let Ok(q) = fs::read_dir(&qdir) {
            for f in q.flatten() {
                let _ = fs::remove_file(f.path());
            }
            let _ = fs::remove_dir(&qdir);
        }
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for e in rd.flatten() {
                if e.path().is_dir() {
                    let _ = fs::remove_dir(e.path()); // only if now empty
                }
            }
        }
        self.index_reset();
        Ok(n)
    }

    /// Evict entries per `opts`: first everything older than `max_age`,
    /// then — least-recently-used first — until the survivors fit in
    /// `max_bytes`. Cache hits bump access times, so recently replayed
    /// entries survive.
    pub fn gc(&self, opts: &GcOptions) -> std::io::Result<GcReport> {
        let mut entries = self.inventory();
        let mut report = GcReport {
            scanned: entries.len(),
            scanned_bytes: entries.iter().map(|(_, _, len, _)| len).sum(),
            ..GcReport::default()
        };
        let evict = |path: &Path, len: u64, report: &mut GcReport| -> std::io::Result<()> {
            fs::remove_file(path)?;
            report.removed += 1;
            report.removed_bytes += len;
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

    /// Rewrite every JSON entry older builds left (flat or sharded) as a
    /// binary entry through [`ResultCache::put`], then delete the JSON —
    /// preserving every content hash, so a warm sweep replays identically
    /// before and after. A key that already has a binary entry keeps it.
    /// Unreadable or hash-mismatched JSON entries are quarantined.
    pub fn migrate(&self) -> std::io::Result<MigrateReport> {
        self.index_reset();
        let mut report =
            MigrateReport { already_binary: self.prime_index().0, ..Default::default() };
        for (key, path) in self.json_entries() {
            if self.index_lookup(&key).is_some() {
                fs::remove_file(&path)?;
                report.superseded += 1;
                continue;
            }
            match read_json_entry(&key, &path) {
                Ok(entry) => {
                    self.put(&key, &entry)?;
                    fs::remove_file(&path)?;
                    report.migrated += 1;
                }
                Err(reason) => {
                    self.quarantine(&path, &reason);
                    report.quarantined += 1;
                }
            }
        }
        self.index_reset();
        Ok(report)
    }
}

/// Parse one JSON entry and check that its spec hashes to `key`.
fn read_json_entry(key: &str, path: &Path) -> Result<CacheEntry, String> {
    let bytes = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    let entry: CacheEntry =
        serde_json::from_slice(&bytes).map_err(|e| format!("JSON entry does not parse: {e}"))?;
    let spec_json = serde_json::to_string(&entry.spec).expect("spec serializes");
    let derived = ResultCache::key(&spec_json, entry.kernel_version);
    if derived != key {
        return Err(format!("spec hashes to {derived}, filed under {key}"));
    }
    Ok(entry)
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

    #[test]
    fn atime_bump_failures_are_counted_and_surfaced() {
        let (dir, cache) = temp_cache("atime");
        let (key, entry) = tiny_entry(1);
        cache.put(&key, &entry).unwrap();

        assert!(cache.get(&key, 1).is_some());
        assert_eq!(cache.atime_bump_failures(), 0);
        assert!(!cache.atime_unreliable());

        cache.fail_atime_bumps.store(true, Ordering::Relaxed);
        // A failed bump never fails the probe itself...
        assert!(cache.get(&key, 1).is_some(), "hit must survive a failed atime bump");
        assert!(cache.get(&key, 1).is_some());
        // ...but it is counted, latches the unreliable flag, and shows up
        // in `cache stats` (the satellite bug: `let _ =` swallowed it all).
        assert_eq!(cache.atime_bump_failures(), 2);
        assert!(cache.atime_unreliable());
        assert_eq!(cache.stats().atime_bump_failures, 2);
        // Clones share the counters, like the index.
        assert_eq!(cache.clone().atime_bump_failures(), 2);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_recency_falls_back_to_mtime_when_atime_unreliable() {
        let (dir, cache) = temp_cache("recency");
        let (key_a, entry_a) = tiny_entry(2);
        let (key_b, entry_b) = tiny_entry(3);
        cache.put(&key_a, &entry_a).unwrap();
        cache.put(&key_b, &entry_b).unwrap();

        let stamp = |key: &str, mtime_s: u64, atime_s: u64| {
            let path = cache.index_lookup(key).expect("entry indexed");
            let at = |s| SystemTime::UNIX_EPOCH + Duration::from_secs(s);
            let f = fs::File::options().write(true).open(path).unwrap();
            f.set_times(fs::FileTimes::new().set_modified(at(mtime_s)).set_accessed(at(atime_s)))
                .unwrap();
        };
        // A: written long ago but heavily replayed (fresh atime).
        // B: written later, never replayed.
        stamp(&key_a, 1_000, 9_000);
        stamp(&key_b, 5_000, 5_000);

        let recency = |cache: &ResultCache| -> HashMap<String, SystemTime> {
            cache.inventory().into_iter().map(|(k, _, _, r)| (k, r)).collect()
        };
        // Healthy atimes: replay recency counts, A is the fresher entry.
        let r = recency(&cache);
        assert!(r[&key_a] > r[&key_b], "atime-trusting recency inverted");

        // After a bump failure, access times are stale by assumption:
        // ordering must degrade to modification times (B is fresher).
        cache.fail_atime_bumps.store(true, Ordering::Relaxed);
        assert!(cache.get(&key_a, 1).is_some());
        assert!(cache.atime_unreliable());
        let r = recency(&cache);
        assert!(r[&key_a] < r[&key_b], "mtime fallback not applied");

        let _ = fs::remove_dir_all(&dir);
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
        // A read-only layout must never fail the probe. (Whether the bump
        // itself fails is owner-dependent — root may set times regardless
        // — so the counter is exercised via injection above, not here.)
        assert!(cache.get(&key, 1).is_some(), "read-only shard broke probing");
        restore(&shard, 0o755);
        restore(&entry_path, 0o644);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_key_accepts_entries_and_rejects_noise() {
        let key = "0123456789abcdef0123456789abcdef";
        assert_eq!(entry_key(&format!("{key}.bin"), "bin"), Some(key));
        assert_eq!(entry_key(&format!("{key}.json"), "json"), Some(key));
        assert_eq!(entry_key(&format!("{key}.json"), "bin"), None);
        assert_eq!(entry_key(&format!("{key}bin"), "bin"), None);
        assert_eq!(entry_key(&format!(".{key}.tmp-123"), "bin"), None);
        assert_eq!(entry_key("0123456789ABCDEF0123456789ABCDEF.bin", "bin"), None);
        assert_eq!(entry_key("short.json", "json"), None);
        assert_eq!(entry_key("notes.txt", "bin"), None);
    }
}
