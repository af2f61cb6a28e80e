//! Property-based tests (proptest): packet conservation, integrity and
//! determinism hold for *arbitrary* seeds, rates, gating fractions and
//! mechanisms. Flit payload integrity and in-order reassembly are asserted
//! inside the NIC on every delivery, so "everything delivered" implies
//! "everything delivered intact".

use flov_core::mechanism;
use flov_noc::network::Simulation;
use flov_noc::NocConfig;
use flov_workloads::{GatingSchedule, Pattern, SyntheticWorkload};
use proptest::prelude::*;

fn small_cfg() -> NocConfig {
    NocConfig { watchdog_cycles: 30_000, ..NocConfig::small_test() }
}

fn run_case(mech_name: &str, pattern: Pattern, rate: f64, fraction: f64, seed: u64) -> Simulation {
    let mut cfg = small_cfg();
    if mech_name == "NoRD" {
        cfg.enable_ring = true;
    }
    if mech_name == "PowerPunch" {
        cfg = flov_core::punch_config(&cfg);
    }
    let mech = mechanism::by_name(mech_name, &cfg).unwrap();
    let w = SyntheticWorkload::new(
        cfg.kx(),
        pattern,
        rate,
        cfg.synth_packet_len,
        6_000,
        GatingSchedule::static_fraction(cfg.nodes(), fraction, seed, &[]),
        seed ^ 0xBEEF,
    );
    let mut sim = Simulation::new(cfg, mech, Box::new(w));
    sim.run(6_000);
    sim.drain(60_000);
    sim
}

const MECHS: [&str; 6] = ["Baseline", "RP", "rFLOV", "gFLOV", "NoRD", "PowerPunch"];

fn mech_from(idx: u8) -> &'static str {
    MECHS[(idx as usize) % MECHS.len()]
}

fn pattern_from(idx: u8) -> Pattern {
    [
        Pattern::UniformRandom,
        Pattern::Tornado,
        Pattern::Transpose,
        Pattern::BitComplement,
        Pattern::Neighbor,
    ][(idx as usize) % 5]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Conservation: every generated packet is delivered exactly once, with
    /// payload integrity, under any mechanism/pattern/gating/seed.
    #[test]
    fn packets_conserved(
        mech_idx in 0u8..6,
        pat_idx in 0u8..5,
        rate in 0.01f64..0.10,
        fraction in 0.0f64..0.85,
        seed in 0u64..1_000_000,
    ) {
        let sim = run_case(mech_from(mech_idx), pattern_from(pat_idx), rate, fraction, seed);
        prop_assert!(sim.core.is_empty(), "{} packets undelivered", sim.core.in_flight_packets);
        prop_assert_eq!(sim.core.activity.packets_injected, sim.core.activity.packets_delivered);
        prop_assert_eq!(sim.core.activity.flits_injected, sim.core.activity.flits_delivered);
        prop_assert_eq!(sim.core.flits_in_network(), 0);
    }

    /// Determinism: identical inputs give identical results.
    #[test]
    fn deterministic(
        mech_idx in 0u8..6,
        fraction in 0.0f64..0.8,
        seed in 0u64..100_000,
    ) {
        let a = run_case(mech_from(mech_idx), Pattern::UniformRandom, 0.04, fraction, seed);
        let b = run_case(mech_from(mech_idx), Pattern::UniformRandom, 0.04, fraction, seed);
        prop_assert_eq!(a.core.activity, b.core.activity);
        prop_assert_eq!(a.core.stats.latency_sum, b.core.stats.latency_sum);
        prop_assert_eq!(a.core.cycle, b.core.cycle);
    }

    /// Latency floor: no packet beats the physically minimal latency
    /// (its flits must traverse at least two routers and two links).
    #[test]
    fn latency_floor_respected(
        mech_idx in 0u8..6,
        seed in 0u64..100_000,
    ) {
        let sim = run_case(mech_from(mech_idx), Pattern::UniformRandom, 0.02, 0.3, seed);
        if sim.core.stats.packets > 0 {
            // 2 routers x 3 stages + 2 links + (4-1) serialization = 11.
            prop_assert!(sim.core.stats.avg_latency() >= 11.0,
                "impossible latency {}", sim.core.stats.avg_latency());
        }
    }

    /// Residency conservation: powered + gated cycles equal the wall clock
    /// for every router, and the baseline never gates.
    #[test]
    fn residency_conserved(
        mech_idx in 0u8..6,
        fraction in 0.0f64..0.8,
        seed in 0u64..100_000,
    ) {
        let mut sim = run_case(mech_from(mech_idx), Pattern::UniformRandom, 0.03, fraction, seed);
        let total = sim.core.cycle;
        for r in sim.core.residency() {
            prop_assert_eq!(r.powered + r.gated, total);
        }
        if mech_from(mech_idx) == "Baseline" {
            prop_assert!(sim.core.residency().iter().all(|r| r.gated == 0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Gating monotonicity: under gFLOV, more gated cores never increases
    /// total powered residency.
    #[test]
    fn more_gating_less_powered_residency(seed in 0u64..50_000) {
        let mut lo = run_case("gFLOV", Pattern::UniformRandom, 0.02, 0.2, seed);
        let mut hi = run_case("gFLOV", Pattern::UniformRandom, 0.02, 0.7, seed);
        let powered = |s: &mut Simulation| -> u64 {
            s.core.residency().iter().map(|r| r.powered).sum()
        };
        // Normalize per cycle (runs may end at different cycles).
        let lo_frac = powered(&mut lo) as f64 / (lo.core.cycle * lo.core.nodes() as u64) as f64;
        let hi_frac = powered(&mut hi) as f64 / (hi.core.cycle * hi.core.nodes() as u64) as f64;
        prop_assert!(hi_frac < lo_frac + 0.02,
            "powered fraction rose with gating: {lo_frac} -> {hi_frac}");
    }
}
