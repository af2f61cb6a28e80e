//! Beyond-the-paper studies: the NoRD critique quantified, the §II
//! related-work landscape, and mesh-size scaling. Formerly standalone
//! binaries; now library generators driven by `flov {nord,related,scaling}`
//! through a caching [`Engine`].

use crate::engine::{batch, Engine};
use crate::report::{f2, mw, Table};
use crate::spec::RunSpec;

/// The six-mechanism §II landscape (Baseline, RP, NoRD, PowerPunch,
/// rFLOV, gFLOV).
pub const LANDSCAPE_MECHS: [&str; 6] = ["Baseline", "RP", "NoRD", "PowerPunch", "rFLOV", "gFLOV"];

fn sweep_spec(mech: &str, k: u16, rate: f64, fraction: f64, cycles: u64) -> RunSpec {
    RunSpec::builder()
        .mechanism(mech)
        .k(k)
        .rate(rate)
        .gated_fraction(fraction)
        .warmup(cycles / 10)
        .cycles(cycles)
        .drain(cycles * 2)
        .build()
}

/// NoRD vs FLOV — quantifying the paper's §II critique of node-router
/// decoupling: a bypass ring is not scalable to large network sizes, and
/// only exists for even `k`. Returns the 8x8 gated-fraction sweep and the
/// mesh-scaling comparison at 75% gated.
pub fn nord_study(engine: &Engine, quick: bool) -> Vec<Table> {
    let cycles = if quick { 12_000 } else { 100_000 };
    let mechs = ["Baseline", "RP", "gFLOV", "NoRD"];

    // Experiment 1: gated-fraction sweep at 8x8.
    let fractions: &[f64] = if quick { &[0.0, 0.5] } else { &[0.0, 0.2, 0.4, 0.6, 0.8] };
    let mut t = Table::new(
        "NoRD vs FLOV — 8x8 UR 0.02, latency / static / total power",
        &["gated %", "mech", "avg lat", "ring flits", "static [mW]", "total [mW]"],
    );
    let cells: Vec<(f64, &str)> = fractions.iter().flat_map(|&f| mechs.map(|m| (f, m))).collect();
    for ((f, _), r) in batch(engine, &cells, |(f, m)| sweep_spec(m, 8, 0.02, f, cycles)) {
        t.row(vec![
            format!("{:.0}", f * 100.0),
            r.mechanism.clone(),
            if r.packets == 0 { "n/a".into() } else { f2(r.avg_latency) },
            r.ring_flits.to_string(),
            mw(r.power.static_w),
            mw(r.power.total_w),
        ]);
    }

    // Experiment 2: mesh scaling at 75% gated.
    let ks: &[u16] = if quick { &[4, 8] } else { &[4, 8, 12, 16] };
    let mut t2 = Table::new(
        "NoRD scalability — UR 0.02, 75% gated: ring latency grows with k",
        &["k", "mech", "avg lat", "p95 lat", "static [mW]"],
    );
    let cells: Vec<(u16, &str)> =
        ks.iter().flat_map(|&k| ["gFLOV", "NoRD"].map(|m| (k, m))).collect();
    for ((k, _), r) in batch(engine, &cells, |(k, m)| sweep_spec(m, k, 0.02, 0.75, cycles)) {
        t2.row(vec![
            k.to_string(),
            r.mechanism.clone(),
            f2(r.avg_latency),
            r.latency_percentiles.1.to_string(),
            mw(r.power.static_w),
        ]);
    }
    vec![t, t2]
}

/// The full §II landscape in one table: all six mechanisms under the
/// paper's synthetic methodology.
pub fn related_landscape(engine: &Engine, quick: bool) -> Table {
    let cycles = if quick { 12_000 } else { 100_000 };
    let fractions: &[f64] = if quick { &[0.5] } else { &[0.2, 0.5, 0.8] };
    let mut t = Table::new(
        "related-work landscape — 8x8, UR 0.02 flits/cycle/node",
        &[
            "gated %",
            "mech",
            "avg lat",
            "p95",
            "static [mW]",
            "dynamic [mW]",
            "total [mW]",
            "gating events",
        ],
    );
    let cells: Vec<(f64, &str)> =
        fractions.iter().flat_map(|&f| LANDSCAPE_MECHS.map(|m| (f, m))).collect();
    for ((f, _), r) in batch(engine, &cells, |(f, m)| sweep_spec(m, 8, 0.02, f, cycles)) {
        t.row(vec![
            format!("{:.0}", f * 100.0),
            r.mechanism.clone(),
            f2(r.avg_latency),
            r.latency_percentiles.1.to_string(),
            mw(r.power.static_w),
            mw(r.power.dynamic_w),
            mw(r.power.total_w),
            r.gating_events.to_string(),
        ]);
    }
    t
}

/// Mesh-size scaling (beyond the paper's 8x8): gFLOV vs RP vs Baseline on
/// 4x4 … 16x16 meshes at 50% gated, with one mid-run reconfiguration.
pub fn mesh_scaling(engine: &Engine, quick: bool) -> Table {
    let (cycles, warmup) = if quick { (12_000, 2_000) } else { (100_000, 10_000) };
    let ks: &[u16] = if quick { &[4, 8] } else { &[4, 8, 12, 16] };
    let mechs = ["Baseline", "RP", "gFLOV"];
    let mut t = Table::new(
        "mesh-size scaling: UR 0.02 flits/cycle/node, 50% cores gated",
        &["k", "mech", "avg lat", "avg hops", "flov hops", "static [mW]", "total [mW]", "stall cy"],
    );
    let cells: Vec<(u16, &str)> = ks.iter().flat_map(|&k| mechs.map(|m| (k, m))).collect();
    let spec = |(k, m): (u16, &str)| {
        RunSpec::builder()
            .mechanism(m)
            .k(k)
            .gated_fraction(0.5)
            .seed(0xF10F ^ k as u64)
            .changes(vec![cycles / 2])
            .warmup(warmup)
            .cycles(cycles)
            .drain(cycles * 2)
            .build()
    };
    for ((k, _), r) in batch(engine, &cells, spec) {
        t.row(vec![
            k.to_string(),
            r.mechanism.clone(),
            f2(r.avg_latency),
            f2(r.avg_hops),
            f2(r.avg_flov_hops),
            mw(r.power.static_w),
            mw(r.power.total_w),
            r.stalled_injection_cycles.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_scaling_submits_its_table_as_one_batch() {
        let engine = Engine::without_cache();
        let t = mesh_scaling(&engine, true);
        assert_eq!(t.rows.len(), 6); // two radices x three mechanisms
        assert_eq!(engine.sched_stats().expect("the batch simulated").jobs, 6);
    }

    #[test]
    fn related_landscape_covers_all_mechanisms() {
        let t = related_landscape(&Engine::without_cache(), true);
        assert_eq!(t.rows.len(), LANDSCAPE_MECHS.len()); // one fraction x 6 mechs
        for (row, mech) in t.rows.iter().zip(LANDSCAPE_MECHS) {
            assert_eq!(row[1], mech);
        }
    }
}
