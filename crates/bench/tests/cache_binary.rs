//! The sharded binary cache: format round-trips, decoder robustness,
//! index correctness, corruption quarantine, GC eviction order, `clear`,
//! concurrent writers, and work-stealing determinism.

use flov_bench::cache::QUARANTINE_DIR;
use flov_bench::{
    binfmt, CacheEntry, Engine, GcOptions, ResultCache, RunResult, RunSpec, KERNEL_VERSION,
};
use flov_noc::stats::IntervalSample;
use proptest::prelude::*;
use std::fs::{self, FileTimes};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, SystemTime};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh cache directory per test, safe under parallel test threads.
fn temp_cache_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("flov-cache-bin-test-{}-{n}", std::process::id()))
}

fn tiny_spec(fraction: f64, seed: u64) -> RunSpec {
    RunSpec::builder()
        .k(4)
        .gated_fraction(fraction)
        .seed(seed)
        .warmup(200)
        .cycles(1_500)
        .drain(8_000)
        .build()
}

/// Canonical spec JSON + content key for `spec` under the current salt.
fn key_of(spec: &RunSpec) -> String {
    let json = serde_json::to_string(&spec.resolved()).unwrap();
    ResultCache::key(&json, KERNEL_VERSION)
}

/// The on-disk path of a sharded entry.
fn entry_path(dir: &Path, key: &str, ext: &str) -> PathBuf {
    dir.join(&key[..2]).join(format!("{key}.{ext}"))
}

fn binary_engine(dir: &Path) -> Engine {
    Engine::with_cache(ResultCache::new(dir)).quiet()
}

/// `body` with a freshly computed trailing CRC, so a corruption reaches
/// the decoder instead of being caught by the checksum.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = binfmt::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Offset of the result section in an entry whose spec JSON is
/// `spec_len` bytes (magic, kernel version, hash, spec length, spec,
/// result length).
fn result_offset(spec_len: usize) -> usize {
    8 + 4 + 16 + 4 + spec_len + 4
}

/// The result section of a well-framed entry.
fn result_section(entry: &[u8]) -> &[u8] {
    let spec_len = u32::from_le_bytes(entry[28..32].try_into().unwrap()) as usize;
    &entry[result_offset(spec_len)..entry.len() - 4]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A simulated `RunResult` survives JSON ⇄ binary bit-identically:
    /// decoding the binary container yields exactly the result the JSON
    /// round trip yields, down to every float bit (canonical JSON uses
    /// shortest-roundtrip floats, so string equality is bit equality).
    #[test]
    fn runresult_roundtrips_json_and_binary_bit_identically(
        fraction in 0.0f64..0.8,
        seed in 0u64..1_000_000,
    ) {
        let spec = tiny_spec(fraction, seed).resolved();
        let result = flov_bench::run(&spec);
        let json = serde_json::to_string(&result).unwrap();
        let via_json: RunResult = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&serde_json::to_string(&via_json).unwrap(), &json);

        let spec_json = serde_json::to_string(&spec).unwrap();
        let key = ResultCache::key(&spec_json, KERNEL_VERSION);
        let bytes = binfmt::encode_entry(&key, KERNEL_VERSION, &spec_json, &result);
        let entry = binfmt::decode_entry(&bytes).unwrap();
        prop_assert_eq!(&entry.key, &key);
        prop_assert_eq!(entry.kernel_version, KERNEL_VERSION);
        prop_assert_eq!(&entry.spec_json, &spec_json);
        prop_assert_eq!(&serde_json::to_string(&entry.result).unwrap(), &json);

        // The fast probe path decodes the same result...
        let probed = binfmt::decode_result(&bytes, &key, KERNEL_VERSION).unwrap().unwrap();
        prop_assert_eq!(&serde_json::to_string(&probed).unwrap(), &json);
        // ...and a salt mismatch is a plain miss, not an error.
        prop_assert!(binfmt::decode_result(&bytes, &key, KERNEL_VERSION + 1).unwrap().is_none());
    }
}

#[test]
fn truncated_entry_is_a_quarantined_miss() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.4, 7);
    binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    let path = entry_path(&dir, &key, "bin");
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let cache = ResultCache::new(&dir);
    assert!(cache.get(&key, KERNEL_VERSION).is_none(), "truncated entry must miss");
    assert!(!path.exists(), "truncated entry must be moved out of the shard");
    assert!(dir.join(QUARANTINE_DIR).join(format!("{key}.bin")).exists());
    let s = cache.stats();
    assert_eq!(s.entries, 0);
    assert_eq!(s.quarantined, 1);

    // The engine recovers transparently: the run is simulated afresh and
    // re-persisted under the same key.
    let engine = binary_engine(&dir);
    engine.run_one(&spec);
    assert_eq!(engine.stats().simulated, 1);
    assert!(path.exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_entry_is_a_quarantined_miss() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.2, 8);
    binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    let path = entry_path(&dir, &key, "bin");
    let mut bytes = fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).unwrap();

    let cache = ResultCache::new(&dir);
    assert!(cache.get(&key, KERNEL_VERSION).is_none(), "corrupt entry must miss, not crash");
    assert_eq!(cache.stats().quarantined, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn index_rebuild_from_scan_matches_incremental_index() {
    let dir = temp_cache_dir();
    let specs: Vec<RunSpec> = (0..6).map(|i| tiny_spec(i as f64 * 0.1, 100 + i)).collect();
    let engine = binary_engine(&dir);
    engine.run_batch(&specs);

    // The engine's cache indexed each entry incrementally as it was
    // written; a fresh cache over the same directory must scan to the
    // exact same key set.
    let incremental = engine.cache().unwrap().known_keys();
    let rescanned = ResultCache::new(&dir).known_keys();
    assert_eq!(incremental.len(), specs.len());
    assert_eq!(incremental, rescanned);
    let mut expected: Vec<String> = specs.iter().map(key_of).collect();
    expected.sort();
    assert_eq!(rescanned, expected);
    let _ = fs::remove_dir_all(&dir);
}

/// Pin an entry's access+modify times (GC orders by the newer of the two).
fn set_entry_times(path: &Path, t: SystemTime) {
    let f = fs::File::options().write(true).open(path).unwrap();
    f.set_times(FileTimes::new().set_accessed(t).set_modified(t)).unwrap();
}

/// Four entries written into `dir`, last used 4, 3, 2 and 1 hours ago;
/// their keys, oldest first.
fn aged_entries(dir: &Path, seed: u64) -> Vec<String> {
    let specs: Vec<RunSpec> = (0..4).map(|i| tiny_spec(0.1 * i as f64, seed + i)).collect();
    binary_engine(dir).run_batch(&specs);
    let now = SystemTime::now();
    let keys: Vec<String> = specs.iter().map(key_of).collect();
    for (i, key) in keys.iter().enumerate() {
        let age = Duration::from_secs(3600 * (keys.len() - i) as u64);
        set_entry_times(&entry_path(dir, key, "bin"), now - age);
    }
    keys
}

#[test]
fn gc_max_bytes_keeps_most_recently_used_entries() {
    let dir = temp_cache_dir();
    let keys = aged_entries(&dir, 200);
    let cache = ResultCache::new(&dir);
    let sizes: Vec<u64> =
        keys.iter().map(|k| fs::metadata(entry_path(&dir, k, "bin")).unwrap().len()).collect();
    // Budget for exactly the two most recently used entries.
    let budget = sizes[2] + sizes[3];
    let report = cache.gc(&GcOptions { max_bytes: Some(budget), max_age: None }).unwrap();
    assert_eq!(report.scanned, 4);
    assert_eq!(report.removed, 2);
    assert!(!entry_path(&dir, &keys[0], "bin").exists(), "LRU entry must be evicted");
    assert!(!entry_path(&dir, &keys[1], "bin").exists());
    assert!(entry_path(&dir, &keys[2], "bin").exists(), "MRU entries must survive");
    assert!(entry_path(&dir, &keys[3], "bin").exists());
    let _ = fs::remove_dir_all(&dir);
}

/// The recency `flov cache gc` orders by is what probes leave behind: a
/// hit through one handle must save its entry from a budget eviction run
/// later through a fresh handle, as two `flov` invocations would.
#[test]
fn gc_keeps_the_entry_a_probe_read() {
    let dir = temp_cache_dir();
    let keys = aged_entries(&dir, 250);
    assert!(ResultCache::new(&dir).get(&keys[0], KERNEL_VERSION).is_some());
    let budget = fs::metadata(entry_path(&dir, &keys[0], "bin")).unwrap().len();
    let report =
        ResultCache::new(&dir).gc(&GcOptions { max_bytes: Some(budget), max_age: None }).unwrap();
    assert_eq!((report.scanned, report.removed), (4, 3));
    assert!(entry_path(&dir, &keys[0], "bin").exists(), "the entry just read was evicted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn gc_max_age_evicts_only_stale_entries() {
    let dir = temp_cache_dir();
    let fresh = tiny_spec(0.3, 300);
    let stale = tiny_spec(0.6, 301);
    binary_engine(&dir).run_batch(&[fresh.clone(), stale.clone()]);
    set_entry_times(
        &entry_path(&dir, &key_of(&stale), "bin"),
        SystemTime::now() - Duration::from_secs(48 * 3600),
    );

    let cache = ResultCache::new(&dir);
    let report = cache
        .gc(&GcOptions { max_bytes: None, max_age: Some(Duration::from_secs(24 * 3600)) })
        .unwrap();
    assert_eq!(report.removed, 1);
    assert!(entry_path(&dir, &key_of(&fresh), "bin").exists());
    assert!(!entry_path(&dir, &key_of(&stale), "bin").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verify_quarantines_entries_filed_under_the_wrong_key() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.5, 500);
    binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    // File a byte-for-byte copy of a valid entry under a different key:
    // structurally sound, wrong address.
    let prefix = if &key[..2] == "ff" { "00" } else { "ff" };
    let bogus = format!("{prefix}{}", &key[2..]);
    let from = entry_path(&dir, &key, "bin");
    let to = entry_path(&dir, &bogus, "bin");
    fs::create_dir_all(to.parent().unwrap()).unwrap();
    fs::copy(&from, &to).unwrap();

    let cache = ResultCache::new(&dir);
    let report = cache.verify();
    assert_eq!(report.checked, 2);
    assert_eq!(report.ok, 1);
    assert_eq!(report.quarantined, 1);
    assert!(from.exists());
    assert!(!to.exists());

    // The misfiled copy is also a hard miss on the probe path (hash
    // mismatch inside the container is corruption, not a silent hit).
    let dir2 = temp_cache_dir();
    let bytes = fs::read(&from).unwrap();
    let c2 = ResultCache::new(&dir2);
    let dest = dir2.join(&bogus[..2]).join(format!("{bogus}.bin"));
    fs::create_dir_all(dest.parent().unwrap()).unwrap();
    fs::write(&dest, &bytes).unwrap();
    assert!(c2.get(&bogus, KERNEL_VERSION).is_none());
    assert_eq!(c2.stats().quarantined, 1);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

#[test]
fn work_stealing_batch_matches_sequential_execution() {
    let dir = temp_cache_dir();
    // A mixed batch with duplicates, big enough to spread across workers.
    let mut specs: Vec<RunSpec> = (0..10).map(|i| tiny_spec(0.08 * i as f64, 600 + i)).collect();
    specs.push(specs[2].clone());
    specs.push(specs[0].clone());

    let engine = binary_engine(&dir);
    let batch = engine.run_batch(&specs);

    // Sequential ground truth: each spec simulated in submission order,
    // no scheduler, no cache.
    let sequential: Vec<RunResult> = specs.iter().map(flov_bench::run).collect();
    assert_eq!(
        serde_json::to_string(&batch).unwrap(),
        serde_json::to_string(&sequential).unwrap(),
        "work-stealing execution changed results vs sequential order"
    );

    // And the cache keys are exactly the canonical per-spec hashes.
    let mut expected: Vec<String> = specs.iter().map(key_of).collect();
    expected.sort();
    expected.dedup();
    assert_eq!(engine.cache().unwrap().known_keys(), expected);
    let _ = fs::remove_dir_all(&dir);
}

/// With the CRC recomputed after every corruption, only the decoder
/// stands between a damaged result section and a wrong answer. Every
/// truncation of the result section, and a trailing byte after it, must
/// fail to decode. Every flipped byte must fail, read as a miss, or decode
/// to exactly what the damaged bytes encode (a flip inside a float's raw
/// bits is a valid, different float) — never a panic, never a result whose
/// encoding differs from the bytes on disk.
#[test]
fn decoders_reject_or_faithfully_read_every_corruption_under_a_valid_crc() {
    let spec = RunSpec { timeline_width: 400, ..tiny_spec(0.4, 800) }.resolved();
    let mut result = flov_bench::run(&spec);
    assert!(result.timeline.len() >= 3, "the fixture must exercise the timeline decoder");
    // 100 encodes as [0xC8, 0x01], so a flip can turn it into a padded
    // varint; u64::MAX takes the wide path.
    result.timeline.push(IntervalSample { start: 100, packets: 100, latency_sum: u64::MAX });
    let spec_json = serde_json::to_string(&spec).unwrap();
    let key = ResultCache::key(&spec_json, KERNEL_VERSION);
    let bytes = binfmt::encode_entry(&key, KERNEL_VERSION, &spec_json, &result);
    let body = &bytes[..bytes.len() - 4];
    let start = result_offset(spec_json.len());

    for cut in 0..body.len() - start {
        let mut b = body[..start + cut].to_vec();
        b[start - 4..start].copy_from_slice(&(cut as u32).to_le_bytes());
        let b = reseal(b);
        assert!(binfmt::decode_result(&b, &key, KERNEL_VERSION).is_err(), "cut at {cut} decoded");
        assert!(binfmt::decode_entry(&b).is_err(), "cut at {cut} decoded as an entry");
    }
    // A byte past the end of a complete result is no more acceptable.
    let mut b = body.to_vec();
    let longer = (body.len() - start + 1) as u32;
    b[start - 4..start].copy_from_slice(&longer.to_le_bytes());
    b.push(0);
    let b = reseal(b);
    assert!(binfmt::decode_result(&b, &key, KERNEL_VERSION).is_err(), "trailing byte decoded");
    assert!(binfmt::decode_entry(&b).is_err(), "trailing byte decoded as an entry");

    let mut rejected = 0;
    for i in 0..body.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut b = body.to_vec();
            b[i] ^= mask;
            let b = reseal(b);
            match binfmt::decode_result(&b, &key, KERNEL_VERSION) {
                Err(_) => rejected += 1,
                Ok(None) => {}
                Ok(Some(r)) => {
                    let again = binfmt::encode_entry(&key, KERNEL_VERSION, &spec_json, &r);
                    assert_eq!(
                        result_section(&again),
                        result_section(&b),
                        "byte {i} ^ {mask:#04x}: decode_result returned a result the bytes do not hold"
                    );
                }
            }
            if let Ok(e) = binfmt::decode_entry(&b) {
                let again = binfmt::encode_entry(&e.key, e.kernel_version, &e.spec_json, &e.result);
                assert!(
                    again == b,
                    "byte {i} ^ {mask:#04x}: decode_entry is not the inverse of encode_entry"
                );
            }
        }
    }
    assert!(rejected > body.len(), "only {rejected} corruptions were rejected");
}

/// Floats come back bit for bit, NaN payload and signed zero included,
/// and integers at the top of the u64 range take the decoder's wide path.
#[test]
fn extreme_values_roundtrip_bit_exactly() {
    let spec = tiny_spec(0.2, 900).resolved();
    let mut r = flov_bench::run(&spec);
    let nan = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
    r.packets = u64::MAX;
    r.avg_latency = nan;
    r.max_latency = u64::MAX;
    r.latency_percentiles = (0, u64::MAX, u64::MAX - 1);
    r.breakdown = [-0.0, nan, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE];
    r.throughput = -0.0;
    r.power.cycles = u64::MAX;
    r.power.static_w = nan;
    r.power.dynamic_energy.gating = -0.0;
    r.runtime_cycles = u64::MAX;
    r.vnet_latency[2] = (u64::MAX, -0.0);
    r.timeline.push(IntervalSample { start: u64::MAX, packets: u64::MAX, latency_sum: u64::MAX });
    let spec_json = serde_json::to_string(&spec).unwrap();
    let key = ResultCache::key(&spec_json, KERNEL_VERSION);
    let bytes = binfmt::encode_entry(&key, KERNEL_VERSION, &spec_json, &r);

    let probed = binfmt::decode_result(&bytes, &key, KERNEL_VERSION).unwrap().unwrap();
    let full = binfmt::decode_entry(&bytes).unwrap().result;
    for back in [&probed, &full] {
        assert_eq!(binfmt::encode_entry(&key, KERNEL_VERSION, &spec_json, back), bytes);
        assert_eq!(back.avg_latency.to_bits(), nan.to_bits());
        assert_eq!(back.throughput.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.packets, u64::MAX);
        assert_eq!(back.timeline.last().unwrap().latency_sum, u64::MAX);
    }
}

/// `clear` removes each shard directory whole, so a temp file a killed
/// writer left goes with it, and leaves files outside the shards alone.
#[test]
fn clear_removes_shard_dirs_with_stray_temp_files() {
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.25, 450);
    binary_engine(&dir).run_one(&spec);
    let key = key_of(&spec);
    let shard = dir.join(&key[..2]);
    fs::write(shard.join(format!(".{key}.tmp-1")), b"torn").unwrap();
    let flat = dir.join(format!("{key}.json"));
    fs::write(&flat, b"{}").unwrap();

    let cache = ResultCache::new(&dir);
    assert_eq!(cache.clear().unwrap(), 1);
    assert!(!shard.exists(), "clear left the shard directory");
    assert_eq!(cache.stats(), Default::default());
    assert!(flat.exists(), "clear removed a file outside the shards");
    let _ = fs::remove_dir_all(&dir);
}

/// `stats` counts the temp files killed writers leave on a line of their
/// own, and `gc` evicts them like entries, aged by their last write, then
/// removes the shard directories it emptied.
#[test]
fn gc_evicts_temp_files_and_the_shard_dirs_it_empties() {
    let dir = temp_cache_dir();
    let specs = [tiny_spec(0.1, 470), tiny_spec(0.2, 471)];
    binary_engine(&dir).run_batch(&specs);
    let key = key_of(&specs[0]);
    let temp = dir.join(&key[..2]).join(format!(".{key}.tmp-4242-0"));
    fs::write(&temp, vec![0u8; 40_000]).unwrap();
    set_entry_times(&temp, SystemTime::now() - Duration::from_secs(3600));

    let cache = ResultCache::new(&dir);
    let s = cache.stats();
    assert_eq!((s.entries, s.temp_files, s.temp_bytes), (2, 1, 40_000));
    let half_hour = Some(Duration::from_secs(1800));
    let report = cache.gc(&GcOptions { max_bytes: None, max_age: half_hour }).unwrap();
    assert_eq!((report.scanned, report.removed, report.removed_bytes), (3, 1, 40_000));
    assert!(!temp.exists(), "gc --max-age kept a stale temp file");
    assert_eq!(cache.stats().entries, 2);

    fs::write(&temp, b"torn").unwrap();
    let report = cache.gc(&GcOptions { max_bytes: Some(0), max_age: None }).unwrap();
    assert_eq!((report.scanned, report.removed), (3, 3));
    assert_eq!(cache.stats(), Default::default(), "gc left a file or a shard directory");
    let _ = fs::remove_dir_all(&dir);
}

/// Writers of one key in one process (engines over clones of one handle)
/// each publish through a temp file of their own, so no `put` fails and
/// no reader ever sees a torn entry.
#[test]
fn concurrent_puts_of_one_key_never_tear_the_entry() {
    const WRITERS: usize = 4;
    const PUTS: usize = 50;
    let dir = temp_cache_dir();
    let spec = tiny_spec(0.3, 460).resolved();
    let key = key_of(&spec);
    let entry = CacheEntry { kernel_version: KERNEL_VERSION, result: flov_bench::run(&spec), spec };
    let cache = ResultCache::new(&dir);
    let start = Barrier::new(WRITERS + 1);
    let done = AtomicBool::new(false);
    let failed = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let (cache, entry, key, start) = (cache.clone(), &entry, &key, &start);
                s.spawn(move || {
                    start.wait();
                    (0..PUTS).filter(|_| cache.put(key, entry).is_err()).count()
                })
            })
            .collect();
        // A reader probes through fresh handles, as another `flov` would.
        let reader = s.spawn(|| {
            start.wait();
            while !done.load(Ordering::SeqCst) {
                ResultCache::new(&dir).get(&key, KERNEL_VERSION);
            }
        });
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        joined.into_iter().map(|j| j.unwrap()).sum::<usize>()
    });
    assert_eq!(failed, 0, "{failed} of {} puts failed", WRITERS * PUTS);
    assert_eq!(cache.stats().quarantined, 0, "a reader saw a torn entry");
    assert!(ResultCache::new(&dir).get(&key, KERNEL_VERSION).is_some());
    let _ = fs::remove_dir_all(&dir);
}
