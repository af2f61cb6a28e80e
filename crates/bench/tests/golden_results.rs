//! Golden `RunResult` digests: the bits of a fixed quick matrix of specs,
//! pinned across commits.
//!
//! Every kernel calls the same router-pipeline code, so the equivalence
//! suite compares an allocator with itself; only a stored fixture can
//! catch a change that moves every kernel at once. Each spec's digest is
//! the CRC-32C of its serialized `RunResult`. Runs go through
//! [`flov_bench::run`], so `FLOV_KERNEL=parallel` checks the parallel
//! kernel against the same stored bits.
//!
//! An intended result change must bump `KERNEL_VERSION` and regenerate
//! the fixture with
//! `cargo test --release -p flov-bench --test golden_results -- --ignored`.

use flov_bench::{binfmt, run, RunSpec};
use flov_noc::TopologySpec;
use flov_workloads::Pattern;
use std::path::PathBuf;

/// Every name `mechanism::by_name` accepts.
const MECHANISMS: [&str; 7] =
    ["Baseline", "RP", "RP-aggressive", "rFLOV", "gFLOV", "NoRD", "PowerPunch"];

/// Idle, mid and saturated uniform-random load on mesh8x8, in
/// flits/cycle/node.
const LOADS: [(&str, f64); 3] = [("idle", 0.005), ("mid", 0.08), ("saturated", 0.4)];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_results.txt")
}

fn synthetic(mech: &str, rate: f64) -> flov_bench::RunSpecBuilder {
    RunSpec::builder()
        .mechanism(mech)
        .pattern(Pattern::UniformRandom)
        .rate(rate)
        .gated_fraction(0.5)
        .seed(0x601D)
        .warmup(300)
        .cycles(1_500)
        .drain(2_500)
}

/// The fixed matrix, as `(name, spec)` in fixture order.
fn specs() -> Vec<(String, RunSpec)> {
    let mut out = Vec::new();
    for mech in MECHANISMS {
        for (load, rate) in LOADS {
            out.push((format!("mesh8x8/{mech}/{load}"), synthetic(mech, rate).build()));
        }
    }
    let topologies = [
        ("torus8", TopologySpec::Torus { k: 8 }),
        ("cmesh4c4", TopologySpec::CMesh { k: 4, c: 4 }),
        ("rect5x7", TopologySpec::RectMesh { kx: 5, ky: 7 }),
    ];
    for (tname, topology) in topologies {
        for mech in ["rFLOV", "gFLOV"] {
            let spec = synthetic(mech, 0.08).topology(topology).build();
            out.push((format!("{tname}/{mech}/mid"), spec));
        }
    }
    // NoRD's ring on every non-serpentine construction (the torus
    // "tornado" cycle, the transposed weave of an odd-height rectangle,
    // a concentrated mesh), and the baseline's wrap-minimal routing.
    let rows = [
        ("torus5", TopologySpec::Torus { k: 5 }, "NoRD"),
        ("rect4x3", TopologySpec::RectMesh { kx: 4, ky: 3 }, "NoRD"),
        ("cmesh4c4", TopologySpec::CMesh { k: 4, c: 4 }, "NoRD"),
        ("torus8", TopologySpec::Torus { k: 8 }, "Baseline"),
    ];
    for (tname, topology, mech) in rows {
        let spec = synthetic(mech, 0.08).topology(topology).build();
        out.push((format!("{tname}/{mech}/mid"), spec));
    }
    let parsec = RunSpec::builder().mechanism("gFLOV").parsec("swaptions").seed(0x51).build();
    out.push(("parsec/swaptions/gFLOV".into(), parsec));
    let mmpp = synthetic("rFLOV", 0.0).cycles(4_000).mmpp(vec![0.002, 0.15], 1_000).build();
    out.push(("mmpp/rFLOV".into(), mmpp));
    out
}

/// CRC-32C of the spec's serialized `RunResult`.
fn digest(spec: &RunSpec) -> u32 {
    let json = serde_json::to_string(&run(spec)).expect("serialize RunResult");
    binfmt::crc32(json.as_bytes())
}

/// `name digest` lines for the whole matrix, in fixture order. One spec at
/// a time: under `FLOV_KERNEL=parallel` each run already spins its own
/// tile pool.
fn digests() -> Vec<(String, u32)> {
    specs().into_iter().map(|(name, spec)| (name, digest(&spec))).collect()
}

fn render(rows: &[(String, u32)]) -> String {
    rows.iter().map(|(name, d)| format!("{name} {d:08x}\n")).collect()
}

#[test]
fn results_match_the_golden_digests() {
    let text = std::fs::read_to_string(fixture_path()).expect("read golden_results.txt");
    let stored: Vec<(&str, &str)> =
        text.lines().map(|l| l.split_once(' ').expect("fixture line is `name digest`")).collect();
    let fresh = digests();
    let names: Vec<&str> = fresh.iter().map(|(n, _)| n.as_str()).collect();
    let stored_names: Vec<&str> = stored.iter().map(|(n, _)| *n).collect();
    assert_eq!(stored_names, names, "the spec matrix changed; regenerate the fixture");
    let mismatches: Vec<String> = fresh
        .iter()
        .zip(&stored)
        .filter(|((_, d), (_, want))| format!("{d:08x}") != *want)
        .map(|((name, d), (_, want))| format!("{name}: digest {d:08x}, fixture {want}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "RunResult bits moved for {} spec(s):\n{}\nIf the change is intended, bump \
         KERNEL_VERSION and regenerate the fixture (see the module docs).",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "writes the fixture; run only to regenerate it"]
fn write_golden_digests() {
    std::fs::write(fixture_path(), render(&digests())).expect("write golden_results.txt");
}
