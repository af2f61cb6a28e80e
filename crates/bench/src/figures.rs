//! One generator per paper table/figure. The `flov` CLI runs these at
//! paper scale through a caching [`Engine`] (`--quick` at reduced scale);
//! the tests below run each at reduced scale, cacheless.

use crate::engine::Engine;
use crate::report::{f2, f3, mw, Table};
use crate::spec::{RunResult, RunSpec};
use flov_noc::config::ROUTER_STAGES;
use flov_noc::NocConfig;
use flov_power::{AreaModel, PowerParams};
use flov_workloads::{Pattern, PARSEC_BENCHMARKS};

/// The four mechanisms in presentation order for the synthetic figures.
pub const SYNTH_MECHS: [&str; 4] = ["Baseline", "RP", "rFLOV", "gFLOV"];
/// Fig. 9 uses aggressive RP (workload-independent parking).
pub const STATIC_MECHS: [&str; 4] = ["Baseline", "RP-aggressive", "rFLOV", "gFLOV"];

/// Run length and sweep axes of the synthetic figures, so `--quick`,
/// tests and perfbench can run miniatures of each.
#[derive(Clone, Debug)]
pub struct SynthScale {
    pub warmup: u64,
    pub cycles: u64,
    pub drain: u64,
    pub fractions: Vec<f64>,
    pub rates: Vec<f64>,
    pub seed: u64,
}

impl SynthScale {
    /// Paper methodology: 10k warmup, 100k cycles, gated 0..80%,
    /// rates 0.02 and 0.08.
    pub fn paper() -> SynthScale {
        SynthScale {
            warmup: 10_000,
            cycles: 100_000,
            drain: 100_000,
            fractions: crate::axes::GATED_FRACTIONS.to_vec(),
            rates: crate::axes::INJECTION_RATES.to_vec(),
            seed: 0xF10F,
        }
    }

    /// Miniature for `--quick` and smoke tests.
    pub fn quick() -> SynthScale {
        SynthScale {
            warmup: 2_000,
            cycles: 12_000,
            drain: 30_000,
            fractions: vec![0.0, 0.4, 0.8],
            rates: vec![0.02],
            seed: 0xF10F,
        }
    }
}

fn synth_spec(
    mech: &str,
    pattern: Pattern,
    rate: f64,
    fraction: f64,
    scale: &SynthScale,
) -> RunSpec {
    RunSpec::builder()
        .mechanism(mech)
        .pattern(pattern)
        .rate(rate)
        .gated_fraction(fraction)
        .seed(scale.seed)
        .warmup(scale.warmup)
        .cycles(scale.cycles)
        .drain(scale.drain)
        .build()
}

/// Figs. 6 & 7: for each injection rate, three tables — average latency,
/// dynamic power, total power — across gated fractions and mechanisms.
pub fn fig_synthetic(engine: &Engine, pattern: Pattern, scale: &SynthScale) -> Vec<Table> {
    let mut tables = Vec::new();
    for &rate in &scale.rates {
        let specs: Vec<RunSpec> = scale
            .fractions
            .iter()
            .flat_map(|&f| SYNTH_MECHS.iter().map(move |&m| (f, m)))
            .map(|(f, m)| synth_spec(m, pattern, rate, f, scale))
            .collect();
        let results = engine.run_batch(&specs);
        let chunk = SYNTH_MECHS.len();
        // A sweep point can have no measurable traffic (e.g. Tornado at 80%
        // gating may leave no active pair): render latency as "n/a".
        let lat = |r: &RunResult| -> String {
            if r.packets == 0 {
                "n/a".into()
            } else {
                f2(r.avg_latency)
            }
        };
        for (what, get) in [
            ("avg latency [cycles]", lat as fn(&RunResult) -> String),
            ("dynamic power [mW]", |r: &RunResult| mw(r.power.dynamic_w)),
            ("total power [mW]", |r: &RunResult| mw(r.power.total_w)),
        ] {
            let mut headers = vec!["gated %".to_string()];
            headers.extend(SYNTH_MECHS.iter().map(|m| m.to_string()));
            let mut t = Table {
                title: format!("{} — {} traffic, {} flits/cycle/node", what, pattern.name(), rate),
                headers,
                rows: Vec::new(),
            };
            for (i, &f) in scale.fractions.iter().enumerate() {
                let mut row = vec![format!("{:.0}", f * 100.0)];
                for j in 0..chunk {
                    row.push(get(&results[i * chunk + j]));
                }
                t.row(row);
            }
            tables.push(t);
        }
    }
    tables
}

/// Fig. 8(a)/(b): latency breakdown (router / link / serialization /
/// contention / FLOV) per mechanism and gated fraction, at the lower rate.
pub fn fig_breakdown(engine: &Engine, pattern: Pattern, scale: &SynthScale) -> Table {
    let rate = scale.rates[0];
    let specs: Vec<RunSpec> = scale
        .fractions
        .iter()
        .flat_map(|&f| SYNTH_MECHS.iter().map(move |&m| (f, m)))
        .map(|(f, m)| synth_spec(m, pattern, rate, f, scale))
        .collect();
    let results = engine.run_batch(&specs);
    let mut t = Table::new(
        &format!(
            "latency breakdown [cycles/packet] — {} traffic, {} flits/cycle/node",
            pattern.name(),
            rate
        ),
        &["gated %", "mech", "router", "link", "serial", "contention", "flov", "total"],
    );
    let chunk = SYNTH_MECHS.len();
    for (i, &f) in scale.fractions.iter().enumerate() {
        for j in 0..chunk {
            let r = &results[i * chunk + j];
            let b = r.breakdown;
            t.row(vec![
                format!("{:.0}", f * 100.0),
                r.mechanism.clone(),
                f2(b[0]),
                f2(b[1]),
                f2(b[2]),
                f2(b[3]),
                f2(b[4]),
                f2(b.iter().sum()),
            ]);
        }
    }
    t
}

/// Fig. 9: static power vs gated fraction (aggressive RP; workload- and
/// rate-independent for FLOV by construction).
pub fn fig_static(engine: &Engine, scale: &SynthScale) -> Table {
    let rate = scale.rates[0];
    let specs: Vec<RunSpec> = scale
        .fractions
        .iter()
        .flat_map(|&f| STATIC_MECHS.iter().map(move |&m| (f, m)))
        .map(|(f, m)| synth_spec(m, Pattern::UniformRandom, rate, f, scale))
        .collect();
    let results = engine.run_batch(&specs);
    let mut headers = vec!["gated %".to_string()];
    headers.extend(STATIC_MECHS.iter().map(|m| m.to_string()));
    let mut t = Table {
        title: "static power [mW] vs fraction of power-gated cores".into(),
        headers,
        rows: Vec::new(),
    };
    let chunk = STATIC_MECHS.len();
    for (i, &f) in scale.fractions.iter().enumerate() {
        let mut row = vec![format!("{:.0}", f * 100.0)];
        for j in 0..chunk {
            row.push(mw(results[i * chunk + j].power.static_w));
        }
        t.row(row);
    }
    t
}

/// Fig. 10: average-latency timeline under gating reconfigurations at 50%
/// and 60% of the run, UR traffic at 0.02, 10% gated — gFLOV vs RP.
pub fn fig_timeline(engine: &Engine, scale: &SynthScale) -> Table {
    let changes = vec![scale.cycles / 2, scale.cycles * 6 / 10];
    let bucket = (scale.cycles / 50).max(100);
    let mechs = ["gFLOV", "RP"];
    let specs: Vec<RunSpec> = mechs
        .iter()
        .map(|&m| {
            RunSpec::builder()
                .mechanism(m)
                .gated_fraction(0.1)
                .seed(scale.seed)
                .changes(changes.clone())
                .warmup(scale.warmup)
                .cycles(scale.cycles)
                .drain(scale.drain)
                .timeline_width(bucket)
                .build()
        })
        .collect();
    let results = engine.run_batch(&specs);
    let mut t = Table::new(
        &format!(
            "avg packet latency [cycles] over time (reconfigurations at {} and {})",
            changes[0], changes[1]
        ),
        &["cycle", "gFLOV", "RP", "gFLOV pkts", "RP pkts"],
    );
    let n = results[0].timeline.len().max(results[1].timeline.len());
    for b in 0..n {
        let g = results[0].timeline.get(b);
        let r = results[1].timeline.get(b);
        t.row(vec![
            format!("{}", b as u64 * bucket),
            g.map_or("-".into(), |s| f2(s.avg_latency())),
            r.map_or("-".into(), |s| f2(s.avg_latency())),
            g.map_or("-".into(), |s| s.packets.to_string()),
            r.map_or("-".into(), |s| s.packets.to_string()),
        ]);
    }
    t
}

/// Summary statistics of the full-system comparison (paper's headline).
#[derive(Clone, Copy, Debug, Default)]
pub struct ParsecSummary {
    /// gFLOV vs RP total energy (negative = savings), geometric mean.
    pub flov_vs_rp_total: f64,
    /// gFLOV vs RP static energy.
    pub flov_vs_rp_static: f64,
    /// gFLOV vs Baseline static energy.
    pub flov_vs_base_static: f64,
    /// gFLOV vs Baseline runtime (positive = slowdown).
    pub flov_vs_base_runtime: f64,
}

/// Fig. 8(c)/(d): full-system PARSEC-proxy runs — runtime and energy,
/// normalized to Baseline. Returns the table and the headline summary.
pub fn fig_parsec(
    engine: &Engine,
    benches: &[&str],
    seed: u64,
    mechs: &[&str],
) -> (Table, ParsecSummary) {
    let specs: Vec<RunSpec> = benches
        .iter()
        .flat_map(|&b| mechs.iter().map(move |&m| (b, m)))
        .map(|(b, m)| RunSpec::parsec(m, b, seed))
        .collect();
    let results = engine.run_batch(&specs);
    let chunk = mechs.len();
    let mut t = Table::new(
        "PARSEC full-system: runtime and energy normalized to Baseline",
        &["benchmark", "mech", "runtime", "static E", "dynamic E", "total E", "cycles"],
    );
    let base_idx = mechs.iter().position(|&m| m == "Baseline").expect("Baseline required");
    let mut geo = ParsecSummary::default();
    let mut n_ok = 0usize;
    let rp_idx = mechs.iter().position(|&m| m == "RP");
    let flov_idx = mechs.iter().position(|&m| m == "gFLOV");
    let (mut s_rp_t, mut s_rp_s, mut s_b_s, mut s_b_r) = (0.0f64, 0.0, 0.0, 0.0);
    for (bi, &b) in benches.iter().enumerate() {
        let base = &results[bi * chunk + base_idx];
        let bs = base.power.static_j();
        let bd = base.power.dynamic_j();
        let bt = base.power.total_j();
        let br = base.runtime_cycles as f64;
        for (mi, &m) in mechs.iter().enumerate() {
            let r = &results[bi * chunk + mi];
            t.row(vec![
                b.into(),
                m.into(),
                f3(r.runtime_cycles as f64 / br),
                f3(r.power.static_j() / bs),
                f3(r.power.dynamic_j() / bd),
                f3(r.power.total_j() / bt),
                r.runtime_cycles.to_string(),
            ]);
        }
        if let (Some(ri), Some(fi)) = (rp_idx, flov_idx) {
            let rp = &results[bi * chunk + ri];
            let fl = &results[bi * chunk + fi];
            s_rp_t += (fl.power.total_j() / rp.power.total_j()).ln();
            s_rp_s += (fl.power.static_j() / rp.power.static_j()).ln();
            s_b_s += (fl.power.static_j() / bs).ln();
            s_b_r += (fl.runtime_cycles as f64 / br).ln();
            n_ok += 1;
        }
    }
    if n_ok > 0 {
        let n = n_ok as f64;
        geo.flov_vs_rp_total = (s_rp_t / n).exp() - 1.0;
        geo.flov_vs_rp_static = (s_rp_s / n).exp() - 1.0;
        geo.flov_vs_base_static = (s_b_s / n).exp() - 1.0;
        geo.flov_vs_base_runtime = (s_b_r / n).exp() - 1.0;
    }
    (t, geo)
}

/// The default benchmark set (all nine) and mechanisms for Fig. 8(c)/(d).
pub fn parsec_default() -> (Vec<&'static str>, Vec<&'static str>) {
    (PARSEC_BENCHMARKS.iter().map(|b| b.name).collect(), vec!["Baseline", "RP", "rFLOV", "gFLOV"])
}

/// Table I: the simulation testbed parameters.
pub fn table1() -> Table {
    let cfg = NocConfig::paper_table1();
    let p = PowerParams::default();
    let mut t = Table::new("Table I — simulation testbed parameters", &["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("Network Topology", {
            use flov_noc::TopologySpec as T;
            match cfg.topology {
                T::Mesh { k } => format!("{k}x{k} Mesh"),
                T::RectMesh { kx, ky } => format!("{kx}x{ky} Mesh"),
                T::Torus { k } => format!("{k}x{k} Torus"),
                T::CMesh { k, c } => format!("{k}x{k} CMesh, {c} cores/router"),
            }
        }),
        ("Input Buffer Depth", format!("{} flits", cfg.buf_depth)),
        ("Router", format!("{ROUTER_STAGES}-stage ({ROUTER_STAGES} cycles) router")),
        (
            "Virtual Channel",
            format!(
                "{} regular VCs and {} escape VC per vnet, {} vnets",
                cfg.regular_vcs, cfg.escape_vcs, cfg.vnets
            ),
        ),
        ("Packet Size", format!("{} flits/packet for synthetic workload", cfg.synth_packet_len)),
        (
            "Memory Hierarchy",
            "32KB L1 I/D $, 8MB L2 $, MESI, 4 MCs at 4 corners (traffic model)".into(),
        ),
        ("Technology", "32nm".into()),
        ("Clock Frequency", format!("{} GHz", p.clock_hz / 1e9)),
        ("Link", format!("1mm, {} cycle, 16B width", cfg.link_latency)),
        (
            "Power-Gating Parameters",
            format!(
                "overhead = {} pJ, wakeup latency = {} cycles",
                p.e_gating_event * 1e12,
                cfg.wakeup_latency
            ),
        ),
        ("Baseline Routing", "YX Routing".into()),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v]);
    }
    t
}

/// §V-A overhead analysis.
pub fn overhead() -> Table {
    let m = AreaModel::default();
    let mut t = Table::new("FLOV router overhead analysis (paper §V-A)", &["quantity", "value"]);
    t.row(vec!["PSR storage".into(), format!("{} bits (2 sets x 4 entries x 2 bits)", m.psr_bits)]);
    t.row(vec!["HSC wires per neighbor".into(), format!("{} bits", AreaModel::HSC_WIRE_BITS)]);
    t.row(vec![
        "HSC wiring area".into(),
        format!(
            "{:.1e} mm^2 ({:.2}% of baseline router)",
            m.hsc_wires_mm2,
            m.hsc_wire_fraction() * 100.0
        ),
    ]);
    t.row(vec!["FLOV additions total".into(), format!("{:.2e} mm^2", m.flov_overhead_mm2())]);
    t.row(vec![
        "relative to baseline router".into(),
        format!("{:.1}%", m.flov_overhead_fraction() * 100.0),
    ]);
    t.row(vec!["baseline router area".into(), format!("{:.4} mm^2", m.baseline_router_mm2)]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_synthetic_quick_has_expected_shape() {
        let tables =
            fig_synthetic(&Engine::without_cache(), Pattern::UniformRandom, &SynthScale::quick());
        assert_eq!(tables.len(), 3); // one rate x 3 metrics
        for t in &tables {
            assert_eq!(t.rows.len(), 3); // three fractions
            assert_eq!(t.headers.len(), 5); // fraction + 4 mechanisms
        }
    }

    /// Two gated fractions over a short window: enough for each figure's
    /// shape.
    fn mini() -> SynthScale {
        SynthScale {
            warmup: 1_000,
            cycles: 6_000,
            drain: 20_000,
            fractions: vec![0.0, 0.8],
            rates: vec![0.02],
            seed: 0xF10F,
        }
    }

    fn num(cell: &str) -> f64 {
        cell.parse().unwrap_or_else(|_| panic!("not a number: {cell:?}"))
    }

    #[test]
    fn fig_breakdown_components_sum_to_the_total() {
        let t = fig_breakdown(&Engine::without_cache(), Pattern::UniformRandom, &mini());
        assert_eq!(t.rows.len(), 2 * SYNTH_MECHS.len());
        for row in &t.rows {
            let parts: f64 = row[2..7].iter().map(|c| num(c)).sum();
            assert!((parts - num(&row[7])).abs() < 0.05, "components do not sum: {row:?}");
        }
    }

    #[test]
    fn fig_static_baseline_is_flat_and_gflov_falls_with_gating() {
        let t = fig_static(&Engine::without_cache(), &mini());
        let (none, most) = (&t.rows[0], &t.rows[1]);
        // Baseline never gates, so its static power ignores the fraction.
        assert_eq!(none[1], most[1]);
        assert!(num(&most[4]) < num(&none[4]), "gFLOV 80% {} vs 0% {}", most[4], none[4]);
    }

    #[test]
    fn fig_timeline_measures_packets_for_both_mechanisms() {
        let t = fig_timeline(&Engine::without_cache(), &mini());
        for col in [3, 4] {
            let packets: u64 = t.rows.iter().filter_map(|r| r[col].parse::<u64>().ok()).sum();
            assert!(packets > 0, "{} column is empty", t.headers[col]);
        }
    }

    #[test]
    fn fig_parsec_normalizes_to_baseline() {
        let engine = Engine::without_cache();
        let (t, summary) =
            fig_parsec(&engine, &["swaptions"], 0xF10F, &["Baseline", "RP", "gFLOV"]);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0][1], "Baseline");
        assert!(t.rows[0][2..6].iter().all(|c| c == "1.000"), "{:?}", t.rows[0]);
        assert!(summary.flov_vs_base_static < 0.0, "{summary:?}");
    }

    #[test]
    fn table1_lists_all_parameters() {
        let t = table1();
        assert_eq!(t.rows.len(), 11);
        let text = t.render();
        assert!(text.contains("8x8 Mesh"));
        assert!(text.contains("YX Routing"));
        assert!(text.contains("17.7 pJ"));
    }

    #[test]
    fn overhead_matches_paper() {
        let text = overhead().render();
        assert!(text.contains("16 bits"));
        assert!(text.contains("6 bits"));
        assert!(text.contains("3.0%") || text.contains("2.9%") || text.contains("3.1%"));
    }

    #[test]
    fn smoke_runs_for_every_mechanism() {
        for m in SYNTH_MECHS {
            let spec = synth_spec(m, Pattern::UniformRandom, 0.02, 0.3, &SynthScale::quick());
            let r = crate::run(&spec);
            assert!(r.delivered_all, "{m} left packets in flight");
        }
    }
}
