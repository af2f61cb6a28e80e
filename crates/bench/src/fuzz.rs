//! Differential fuzzer: random [`RunSpec`]s through the cycle kernels
//! (active-set, reference, and the sharded parallel kernel) with the
//! invariant auditor attached, results diffed bit-for-bit.
//!
//! Release builds compile out every `debug_assert!` in the simulator, so
//! a protocol bug that only trips an assertion ships silently. This
//! module closes that gap three ways, all release-capable:
//!
//! 1. every sampled run executes with the [`flov_noc::audit::Auditor`]
//!    attached, so the global invariants (flit/credit conservation, gated
//!    residency, ring conservation, per-mechanism state legality, and the
//!    no-progress watchdog) are checked structurally;
//! 2. every sampled run executes under **all three** [`KernelMode`]s (the
//!    parallel kernel at a spec-derived 2-D tile geometry between 1×2 and
//!    3×3, clamped to the fabric) and the serialized
//!    [`RunResult`](crate::RunResult)s must match byte-for-byte — the
//!    active-set, time-skip, and tile-sharding optimizations are only
//!    correct if invisible;
//! 3. panics (from either kernel) are caught and reported as findings
//!    instead of killing the campaign.
//!
//! Any failure is shrunk greedily (halve cycles, drop gating changes and
//! mechanism switches, zero the gated fraction, shrink the mesh) to a
//! minimal spec that still fails *the same way*, then written to
//! `results/fuzz/repro-<hash>.json` as a replayable [`Repro`]. Replay
//! with `flov fuzz --replay <file>`.

use crate::cache::ResultCache;
use crate::spec::{RunSpec, WorkloadSpec};
use crate::{run_kernel_audited, KernelMode, KERNEL_VERSION};
use flov_noc::rng::Rng;
use flov_noc::types::{Cycle, NodeId};
use flov_noc::{NocConfig, TopologySpec};
use flov_workloads::Pattern;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Campaign parameters; see [`fuzz`].
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Specs to sample.
    pub runs: u64,
    /// Campaign seed; each case derives its own deterministic PRNG.
    pub seed: u64,
    /// Upper bound on a sampled spec's `cycles` (smoke budgets cap this).
    pub max_cycles: Cycle,
    /// Where minimized repros are written.
    pub out_dir: PathBuf,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            runs: 25,
            seed: 0xF1E5,
            max_cycles: 20_000,
            out_dir: PathBuf::from("results/fuzz"),
        }
    }
}

/// A minimal replayable reproduction of one finding.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Repro {
    /// [`KERNEL_VERSION`] at write time; a replay under a different
    /// version may legitimately behave differently.
    pub kernel_version: u32,
    /// Failure class (stable across shrinking): `panic:<kernel>`,
    /// `audit:<kernel>`, or `divergence`.
    pub kind: String,
    /// Human-readable evidence from the original (pre-shrink) failure.
    pub detail: String,
    pub spec: RunSpec,
}

/// One failing case, after shrinking.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Index of the sampled case within the campaign.
    pub case: u64,
    pub kind: String,
    pub detail: String,
    pub spec: RunSpec,
    /// Where the repro was written (`None` if the write failed).
    pub path: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    pub cases: u64,
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

const RATES: [f64; 7] = [0.0, 0.005, 0.02, 0.05, 0.08, 0.15, 0.30];
const GATED: [f64; 5] = [0.0, 0.1, 0.3, 0.5, 0.8];

/// Sample one random spec. Every sampled spec is *legal by construction*
/// (NoRD only lands on ring-admitting topologies, PowerPunch never on a
/// torus, hotspots land inside the core space, mechanism switches only
/// loosen the protocol), so any failure is a simulator bug, never a
/// malformed input.
pub fn sample_spec(rng: &mut Rng, max_cycles: Cycle) -> RunSpec {
    let mechanism = *rng.pick(&flov_core::mechanism::NAMES);
    let mut k = *rng.pick(&[2u16, 3, 4, 4, 5, 6, 8]);
    // Topology draw (mesh-weighted), constrained by the mechanism: a torus
    // needs its escape VCs (which PowerPunch models away), and NoRD's
    // bypass ring needs a Hamiltonian cycle.
    let topology = match rng.below(8) {
        0 if mechanism != "PowerPunch" => Some(TopologySpec::Torus { k }),
        1 => {
            if mechanism == "NoRD" && !k.is_multiple_of(2) {
                k += 1;
            }
            Some(TopologySpec::CMesh { k, c: if rng.chance(0.5) { 2 } else { 4 } })
        }
        2 => {
            let mut ky = *rng.pick(&[2u16, 3, 4, 5]);
            if mechanism == "NoRD" && !k.is_multiple_of(2) && !ky.is_multiple_of(2) {
                ky += 1;
            }
            Some(TopologySpec::RectMesh { kx: k, ky })
        }
        _ => {
            if mechanism == "NoRD" && !k.is_multiple_of(2) {
                k += 1;
            }
            None
        }
    };
    let cores = topology.unwrap_or(TopologySpec::Mesh { k }).cores() as u64;
    let pattern = match rng.below(6) {
        0 => Pattern::Tornado,
        1 => Pattern::Transpose,
        2 => Pattern::BitComplement,
        3 => Pattern::Neighbor,
        4 => Pattern::Hotspot {
            hotspot: rng.below(cores) as NodeId,
            p_hot_pct: 5 + rng.below(30) as u8,
        },
        _ => Pattern::UniformRandom,
    };
    let cycles = 2_000 + rng.below(max_cycles.saturating_sub(2_000).max(1));
    let mut cfg = NocConfig { k, topology, ..NocConfig::default() };
    cfg.vnets = if rng.chance(0.25) { 3 } else { 1 };
    // Short fuse on the no-progress watchdog: a deadlock must surface as a
    // structured NoProgress violation *within* the drain window.
    cfg.watchdog_cycles = 10_000;
    let mut changes = Vec::new();
    for _ in 0..rng.below(3) {
        changes.push(rng.below(cycles.max(1)));
    }
    changes.sort_unstable();
    changes.dedup();
    // Mid-run mechanism switches, only in the legal "loosening" direction.
    let mut mech_switches: Vec<(Cycle, String)> = Vec::new();
    if rng.chance(0.5) {
        let at = rng.below(cycles.max(1));
        match mechanism {
            "Baseline" => {
                let to = if rng.chance(0.5) { "rFLOV" } else { "gFLOV" };
                mech_switches.push((at, to.into()));
            }
            "rFLOV" => mech_switches.push((at, "gFLOV".into())),
            _ => {}
        }
    }
    let mut builder = RunSpec::builder()
        .cfg(cfg)
        .mechanism(mechanism)
        .pattern(pattern)
        .rate(*rng.pick(&RATES))
        .gated_fraction(*rng.pick(&GATED))
        .changes(changes)
        .mech_switches(mech_switches)
        .seed(rng.next_u64())
        .warmup(cycles / 5)
        .cycles(cycles)
        .drain(30_000)
        .audit(true);
    // Bursty lanes: a slice of the campaign drives the same fabric through
    // the MMPP / diurnal load modulators instead of a stationary rate —
    // their quiet phases are where the time-skip kernels earn their keep,
    // so that is where divergence would hide.
    match rng.below(8) {
        0 => {
            let n = 2 + rng.below(2) as usize;
            let phase_rates: Vec<f64> = (0..n).map(|_| *rng.pick(&RATES)).collect();
            builder = builder.mmpp(phase_rates, 1 + rng.below(2_000));
        }
        1 => {
            let n = 2 + rng.below(2) as usize;
            let phase_rates: Vec<f64> = (0..n).map(|_| *rng.pick(&RATES)).collect();
            builder = builder.diurnal(phase_rates, 1 + rng.below(2_000));
        }
        _ => {}
    }
    builder.build()
}

/// Sample a trace-replay spec: record a (small) sampled run into a trace
/// file under `dir`, then return a spec that replays that file with the
/// recorded run's exact shape. Differential failures on such a spec are
/// record/replay bugs by construction. Returns `None` when recording
/// itself fails (the plain sampled spec already covers that case).
pub fn sample_trace_spec(rng: &mut Rng, max_cycles: Cycle, dir: &Path) -> Option<RunSpec> {
    let source = sample_spec(rng, max_cycles.min(6_000)).resolved();
    let recorded =
        catch_unwind(AssertUnwindSafe(|| crate::record_trace(&source, KernelMode::ActiveSet)));
    let (_, data) = recorded.ok()?.ok()?;
    let json = serde_json::to_string(&source).expect("spec serializes");
    let bytes = crate::tracefmt::encode_trace(KERNEL_VERSION, &json, &data);
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("trace-{crc:08x}.flovtrace"));
    std::fs::write(&path, &bytes).ok()?;
    let mut spec = source;
    spec.workload =
        WorkloadSpec::Trace { path: path.to_string_lossy().into_owned(), crc, closed_loop: false };
    Some(spec)
}

/// Run `spec` through all three kernels — active-set, reference, and the
/// sharded parallel kernel at a spec-derived tile count — auditor
/// attached, and classify the outcome: `None` means clean,
/// `Some((kind, detail))` is a finding. Failure precedence:
/// panic > audit violation > kernel divergence.
pub fn check_spec(spec: &RunSpec) -> Option<(String, String)> {
    // 2-D tile geometry sampled deterministically from the workload seed,
    // so a replayed repro exercises the same kernel trio that found it.
    // The explicit grid is allowed to exceed the fabric (the planner
    // clamps per axis), which keeps the clamping path under test too.
    let seed = match &spec.workload {
        WorkloadSpec::Synthetic { seed, .. }
        | WorkloadSpec::Parsec { seed, .. }
        | WorkloadSpec::Mmpp { seed, .. }
        | WorkloadSpec::Diurnal { seed, .. } => *seed,
        // Trace replays have no workload seed; the content CRC is just as
        // good a deterministic geometry picker.
        WorkloadSpec::Trace { crc, .. } => *crc as u64,
    };
    let (rows, cols) = (1 + (seed >> 1) % 3, 1 + (seed >> 3) % 3);
    let rows = if rows * cols == 1 { 2 } else { rows } as u16;
    let cols = cols as u16;
    let parallel_name = format!("parallel{rows}x{cols}");
    let parallel =
        KernelMode::Parallel { tiles: rows as usize * cols as usize, grid: Some((rows, cols)) };
    let mut outcomes = Vec::with_capacity(3);
    for (name, mode) in [
        ("active", KernelMode::ActiveSet),
        ("reference", KernelMode::Reference),
        (parallel_name.as_str(), parallel),
    ] {
        let run = catch_unwind(AssertUnwindSafe(|| run_kernel_audited(spec, mode)));
        match run {
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Some((format!("panic:{name}"), msg));
            }
            Ok(run) => outcomes.push((name, run)),
        }
    }
    for (name, run) in &outcomes {
        if !run.violations.is_empty() {
            let detail =
                run.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ");
            return Some((format!("audit:{name}"), detail));
        }
    }
    let a = serde_json::to_string(&outcomes[0].1.result).expect("result serializes");
    for (name, run) in &outcomes[1..] {
        let b = serde_json::to_string(&run.result).expect("result serializes");
        if a != b {
            return Some((
                "divergence".into(),
                format!(
                    "kernels disagree: active {} bytes vs {name} {} bytes of JSON",
                    a.len(),
                    b.len()
                ),
            ));
        }
    }
    None
}

/// Shrink candidates for `spec`, most aggressive first. Each candidate is
/// legal by construction (same guarantees as [`sample_spec`]).
fn shrink_candidates(spec: &RunSpec) -> Vec<RunSpec> {
    let mut out = Vec::new();
    let WorkloadSpec::Synthetic { pattern, rate, gated_fraction, seed, changes } = &spec.workload
    else {
        return out;
    };
    let rebuild = |cycles: Cycle,
                   k: u16,
                   topology: Option<TopologySpec>,
                   gated: f64,
                   changes: Vec<Cycle>,
                   switches: Vec<(Cycle, String)>| {
        let mut cfg = spec.cfg.clone();
        cfg.k = k;
        cfg.topology = topology;
        let cores = cfg.cores() as NodeId;
        let pattern = match *pattern {
            // Keep the hotspot inside a shrunken fabric.
            Pattern::Hotspot { hotspot, p_hot_pct } => {
                Pattern::Hotspot { hotspot: hotspot % cores, p_hot_pct }
            }
            p => p,
        };
        RunSpec::builder()
            .cfg(cfg)
            .mechanism(&spec.mechanism)
            .pattern(pattern)
            .rate(*rate)
            .gated_fraction(gated)
            .changes(changes.iter().copied().filter(|&c| c < cycles).collect())
            .mech_switches(switches.into_iter().filter(|(c, _)| *c < cycles).collect())
            .seed(*seed)
            .warmup(spec.warmup.min(cycles / 5))
            .cycles(cycles)
            .drain(spec.drain)
            .audit(true)
            .build()
    };
    let topo = spec.cfg.topology;
    if topo.is_some() {
        // Try the plain mesh first: most bugs are not topology-specific.
        let mut k = spec.cfg.kx().max(spec.cfg.ky());
        if spec.mechanism == "NoRD" && !k.is_multiple_of(2) {
            k += 1;
        }
        out.push(rebuild(
            spec.cycles,
            k,
            None,
            *gated_fraction,
            changes.clone(),
            spec.mech_switches.clone(),
        ));
    }
    if spec.cycles > 2_000 {
        out.push(rebuild(
            (spec.cycles / 2).max(2_000),
            spec.cfg.k,
            topo,
            *gated_fraction,
            changes.clone(),
            spec.mech_switches.clone(),
        ));
    }
    if topo.is_none() && spec.cfg.k > 2 {
        // NoRD's ring needs an even radix; everything else can step by 1.
        let k = if spec.mechanism == "NoRD" { spec.cfg.k - 2 } else { spec.cfg.k - 1 };
        if k >= 2 {
            out.push(rebuild(
                spec.cycles,
                k,
                None,
                *gated_fraction,
                changes.clone(),
                spec.mech_switches.clone(),
            ));
        }
    }
    if !spec.mech_switches.is_empty() {
        let mut s = spec.mech_switches.clone();
        s.pop();
        out.push(rebuild(spec.cycles, spec.cfg.k, topo, *gated_fraction, changes.clone(), s));
    }
    if !changes.is_empty() {
        let mut c = changes.clone();
        c.pop();
        out.push(rebuild(
            spec.cycles,
            spec.cfg.k,
            topo,
            *gated_fraction,
            c,
            spec.mech_switches.clone(),
        ));
    }
    if *gated_fraction > 0.0 {
        out.push(rebuild(
            spec.cycles,
            spec.cfg.k,
            topo,
            0.0,
            changes.clone(),
            spec.mech_switches.clone(),
        ));
    }
    out
}

/// Greedy shrink: repeatedly accept the first candidate that still fails
/// with `kind`, spending at most `budget` candidate evaluations (each of
/// which is two full simulations, so the budget is the cost knob).
pub fn shrink_with(
    spec: &RunSpec,
    kind: &str,
    check: &dyn Fn(&RunSpec) -> Option<String>,
    mut budget: u32,
) -> RunSpec {
    let mut cur = spec.clone();
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&cur) {
            if budget == 0 {
                return cur;
            }
            budget -= 1;
            if check(&cand).as_deref() == Some(kind) {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// Content-addressed repro filename stem for `spec` (shortened cache key:
/// equal minimized specs collide on purpose, so re-finding a known bug
/// overwrites its repro instead of piling up duplicates).
pub fn repro_stem(spec: &RunSpec) -> String {
    let json = serde_json::to_string(spec).expect("spec serializes");
    let key = ResultCache::key(&json, KERNEL_VERSION);
    format!("repro-{}", &key[..16])
}

fn write_repro(dir: &Path, finding: &Repro) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", repro_stem(&finding.spec)));
    let json = serde_json::to_string(finding).expect("repro serializes");
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Re-run a stored repro. Returns the finding if it still fails, `None`
/// if the bug no longer reproduces, or an error for unreadable files.
pub fn replay(path: &Path) -> Result<Option<(String, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let repro: Repro = serde_json::from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
    if repro.kernel_version != KERNEL_VERSION {
        eprintln!(
            "[flov] fuzz: repro was written under kernel version {} (now {}); \
             a changed outcome may be expected",
            repro.kernel_version, KERNEL_VERSION
        );
    }
    Ok(check_spec(&repro.spec))
}

/// Run a fuzzing campaign: sample, differentially execute, shrink, and
/// persist repros. Cases run in parallel; the report lists findings in
/// case order.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    let cases: Vec<u64> = (0..opts.runs).collect();
    let mut findings: Vec<Finding> = cases
        .par_iter()
        .map(|&case| {
            let mut rng = Rng::new(opts.seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            // Every fifth case exercises the record→replay path end to end;
            // the rest sample live workloads (synthetic, MMPP, diurnal).
            let spec = if case % 5 == 4 {
                sample_trace_spec(&mut rng, opts.max_cycles, &opts.out_dir)
                    .unwrap_or_else(|| sample_spec(&mut rng, opts.max_cycles))
            } else {
                sample_spec(&mut rng, opts.max_cycles)
            };
            let (kind, detail) = check_spec(&spec)?;
            eprintln!("[flov] fuzz: case {case} failed ({kind}); shrinking");
            let minimized = shrink_with(&spec, &kind, &|s| check_spec(s).map(|(k, _)| k), 32);
            let repro = Repro {
                kernel_version: KERNEL_VERSION,
                kind: kind.clone(),
                detail: detail.clone(),
                spec: minimized.clone(),
            };
            let path = match write_repro(&opts.out_dir, &repro) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("[flov] fuzz: could not write repro: {e}");
                    None
                }
            };
            Some(Finding { case, kind, detail, spec: minimized, path })
        })
        .collect::<Vec<Option<Finding>>>()
        .into_iter()
        .flatten()
        .collect();
    findings.sort_by_key(|f| f.case);
    FuzzReport { cases: opts.runs, findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flov_core::mechanism;

    #[test]
    fn sampled_specs_are_legal_by_construction() {
        let mut rng = Rng::new(7);
        let mut modulated = 0;
        for _ in 0..200 {
            let spec = sample_spec(&mut rng, 20_000).resolved();
            assert_eq!(spec.cfg.validate(), Ok(()), "invalid sample: {}", spec.mechanism);
            assert_eq!(spec.validate(), Ok(()), "spec-level invalid sample: {}", spec.mechanism);
            if matches!(spec.workload, WorkloadSpec::Mmpp { .. } | WorkloadSpec::Diurnal { .. }) {
                modulated += 1;
            }
            assert!(
                mechanism::by_name(&spec.mechanism, &spec.cfg).is_some(),
                "unconstructible sample: {} on {}",
                spec.mechanism,
                spec.cfg.topology_spec().label()
            );
            if spec.mechanism == "NoRD" {
                assert!(
                    spec.cfg.topology_spec().admits_ring(),
                    "NoRD sampled on a ring-less topology"
                );
            }
            if spec.mechanism == "PowerPunch" {
                assert!(!spec.cfg.topology_spec().wraps(), "PowerPunch sampled on a torus");
            }
            if let WorkloadSpec::Synthetic { pattern: Pattern::Hotspot { hotspot, .. }, .. } =
                &spec.workload
            {
                assert!((*hotspot as usize) < spec.cfg.cores(), "hotspot off-fabric");
            }
            for (at, to) in &spec.mech_switches {
                assert!(*at < spec.cycles);
                assert!(
                    matches!(
                        (spec.mechanism.as_str(), to.as_str()),
                        ("Baseline", "rFLOV" | "gFLOV") | ("rFLOV", "gFLOV")
                    ),
                    "illegal sampled switch {} -> {to}",
                    spec.mechanism
                );
            }
            assert!(spec.audit, "fuzz specs must audit");
        }
        // The bursty lanes actually fire (~25% of 200 draws).
        assert!(modulated >= 20, "only {modulated}/200 modulated samples");
    }

    #[test]
    fn trace_samples_replay_clean_across_kernels() {
        let dir = std::env::temp_dir().join("flov-fuzz-trace-test");
        let mut rng = Rng::new(0x7ACE);
        let spec = sample_trace_spec(&mut rng, 4_000, &dir).expect("recording failed");
        assert!(matches!(spec.workload, WorkloadSpec::Trace { .. }));
        assert_eq!(check_spec(&spec), None, "trace replay diverged across kernels");
    }

    #[test]
    fn shrinker_minimizes_against_a_synthetic_predicate() {
        // Stand-in for a real failure: "fails" iff the run is long and the
        // mesh is bigger than 3. The shrinker should strip everything else
        // (switches, changes, gating) and walk both knobs to their floor.
        let mut rng = Rng::new(3);
        let mut spec = sample_spec(&mut rng, 64_000);
        while spec.cfg.k <= 3
            || spec.mechanism == "NoRD"
            || !matches!(spec.workload, WorkloadSpec::Synthetic { .. })
        {
            spec = sample_spec(&mut rng, 64_000);
        }
        let pred = |s: &RunSpec| (s.cycles >= 2_000 && s.cfg.k > 3).then(|| "synthetic".into());
        let min = shrink_with(&spec, "synthetic", &pred, 64);
        assert_eq!(min.cycles, 2_000, "cycles not minimized: {}", min.cycles);
        assert_eq!(min.cfg.k, 4, "radix not minimized: {}", min.cfg.k);
        assert!(min.mech_switches.is_empty());
        if let WorkloadSpec::Synthetic { gated_fraction, changes, .. } = &min.workload {
            assert_eq!(*gated_fraction, 0.0);
            assert!(changes.is_empty());
        } else {
            panic!("shrunk spec is not synthetic");
        }
        // The shrinker never crosses failure classes.
        assert_eq!(pred(&min).as_deref(), Some("synthetic"));
    }

    #[test]
    fn repro_round_trips_through_json() {
        let mut rng = Rng::new(11);
        let spec = sample_spec(&mut rng, 10_000);
        let repro = Repro {
            kernel_version: KERNEL_VERSION,
            kind: "divergence".into(),
            detail: "example".into(),
            spec: spec.clone(),
        };
        let json = serde_json::to_string(&repro).unwrap();
        let back: Repro = serde_json::from_str(&json).unwrap();
        assert_eq!(back.spec, spec);
        assert_eq!(back.kind, "divergence");
        // Equal specs address the same repro file.
        assert_eq!(repro_stem(&spec), repro_stem(&back.spec));
    }

    #[test]
    fn healthy_build_fuzzes_clean() {
        // A tiny campaign (deterministic seed) on the real simulator: both
        // kernels, auditor on. Anything it finds is a real bug.
        let dir = std::env::temp_dir().join("flov-fuzz-test");
        let opts = FuzzOptions { runs: 3, seed: 0xACE5, max_cycles: 6_000, out_dir: dir };
        let report = fuzz(&opts);
        assert_eq!(report.cases, 3);
        assert!(
            report.clean(),
            "fuzz findings on a healthy build: {:?}",
            report.findings.iter().map(|f| (&f.kind, &f.detail)).collect::<Vec<_>>()
        );
    }
}
