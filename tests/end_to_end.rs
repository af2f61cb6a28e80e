//! End-to-end integration: every mechanism delivers every packet, with the
//! expected relative behaviors, across traffic patterns and gating levels.

use flov_core::mechanism;
use flov_noc::network::Simulation;
use flov_noc::NocConfig;
use flov_workloads::{GatingSchedule, Pattern, SyntheticWorkload};

fn sim_with(
    mech_name: &str,
    pattern: Pattern,
    rate: f64,
    fraction: f64,
    cycles: u64,
    seed: u64,
) -> Simulation {
    let cfg = NocConfig::paper_table1();
    let mech = mechanism::by_name(mech_name, &cfg).unwrap();
    let w = SyntheticWorkload::new(
        cfg.kx(),
        pattern,
        rate,
        cfg.synth_packet_len,
        cycles,
        GatingSchedule::static_fraction(cfg.nodes(), fraction, seed, &[]),
        seed ^ 0x55,
    );
    Simulation::new(cfg, mech, Box::new(w))
}

fn run_and_check(mech_name: &str, pattern: Pattern, fraction: f64) -> Simulation {
    let cycles = 20_000;
    let mut sim = sim_with(mech_name, pattern, 0.02, fraction, cycles, 11);
    sim.measure_from(2_000);
    sim.run(cycles);
    sim.drain(80_000);
    assert!(
        sim.core.is_empty(),
        "{mech_name}/{}/{fraction}: {} packets undelivered",
        pattern.name(),
        sim.core.in_flight_packets
    );
    assert_eq!(
        sim.core.activity.packets_injected, sim.core.activity.packets_delivered,
        "{mech_name}: packet conservation violated"
    );
    assert_eq!(sim.core.flits_in_network(), 0);
    assert!(sim.core.stats.packets > 0, "{mech_name}: nothing measured");
    sim
}

#[test]
fn all_mechanisms_all_patterns_deliver_everything() {
    for mech in mechanism::ALL {
        for pattern in [Pattern::UniformRandom, Pattern::Tornado, Pattern::Transpose] {
            for fraction in [0.0, 0.5] {
                run_and_check(mech, pattern, fraction);
            }
        }
    }
}

#[test]
fn heavy_gating_still_delivers() {
    for mech in ["rFLOV", "gFLOV", "RP"] {
        run_and_check(mech, Pattern::UniformRandom, 0.8);
    }
}

#[test]
fn flov_latency_tracks_baseline_rp_does_not() {
    let base = run_and_check("Baseline", Pattern::UniformRandom, 0.5);
    let g = run_and_check("gFLOV", Pattern::UniformRandom, 0.5);
    let r = run_and_check("rFLOV", Pattern::UniformRandom, 0.5);
    let rp = run_and_check("RP", Pattern::UniformRandom, 0.5);
    let b_lat = base.core.stats.avg_latency();
    // FLOV within ~25% of baseline (paper: minimal degradation)...
    assert!(
        g.core.stats.avg_latency() < b_lat * 1.25,
        "gFLOV {} vs {}",
        g.core.stats.avg_latency(),
        b_lat
    );
    assert!(r.core.stats.avg_latency() < b_lat * 1.25);
    // ...while RP pays for detours.
    assert!(
        rp.core.stats.avg_latency() > g.core.stats.avg_latency(),
        "RP {} should exceed gFLOV {}",
        rp.core.stats.avg_latency(),
        g.core.stats.avg_latency()
    );
}

#[test]
fn only_flov_mechanisms_use_flov_links() {
    let g = run_and_check("gFLOV", Pattern::UniformRandom, 0.6);
    assert!(g.core.activity.flov_latch_flits > 0, "gFLOV never flew over");
    let rp = run_and_check("RP", Pattern::UniformRandom, 0.6);
    assert_eq!(rp.core.activity.flov_latch_flits, 0, "RP must not fly over");
    let base = run_and_check("Baseline", Pattern::UniformRandom, 0.6);
    assert_eq!(base.core.activity.flov_latch_flits, 0);
    assert_eq!(base.core.activity.gating_events, 0, "baseline must not gate");
}

#[test]
fn tornado_flov_beats_baseline_latency() {
    // Paper §VI-B-1: under Tornado, FLOV outperforms even the Baseline
    // because row traffic flies over gated routers in 1 cycle instead of
    // paying the 3-cycle pipeline.
    let base = run_and_check("Baseline", Pattern::Tornado, 0.6);
    let g = run_and_check("gFLOV", Pattern::Tornado, 0.6);
    assert!(
        g.core.stats.avg_latency() < base.core.stats.avg_latency(),
        "gFLOV {} should beat baseline {} under tornado",
        g.core.stats.avg_latency(),
        base.core.stats.avg_latency()
    );
    assert!(g.core.stats.avg_flov_hops() > 0.5);
}

#[test]
fn gflov_gates_more_routers_than_rflov_under_load() {
    let mut g = run_and_check("gFLOV", Pattern::UniformRandom, 0.7);
    let mut r = run_and_check("rFLOV", Pattern::UniformRandom, 0.7);
    // Compare gated residency over the run.
    let gated = |s: &mut Simulation| -> u64 { s.core.residency().iter().map(|r| r.gated).sum() };
    assert!(
        gated(&mut g) > gated(&mut r),
        "gFLOV gated-residency {} should exceed rFLOV {}",
        gated(&mut g),
        gated(&mut r)
    );
}

#[test]
fn zero_gating_makes_all_mechanisms_equivalent_to_baseline_power() {
    let mut base = run_and_check("Baseline", Pattern::UniformRandom, 0.0);
    for mech in ["rFLOV", "gFLOV", "RP"] {
        let mut m = run_and_check(mech, Pattern::UniformRandom, 0.0);
        // No router ever gates when every core is active.
        assert_eq!(m.core.activity.gating_events, 0, "{mech} gated with 0% idle");
        let b: u64 = base.core.residency().iter().map(|r| r.gated).sum();
        let g: u64 = m.core.residency().iter().map(|r| r.gated).sum();
        assert_eq!(b, 0);
        assert_eq!(g, 0, "{mech} has gated residency at 0% idle");
    }
}

#[test]
fn deterministic_across_runs() {
    let a = run_and_check("gFLOV", Pattern::UniformRandom, 0.4);
    let b = run_and_check("gFLOV", Pattern::UniformRandom, 0.4);
    assert_eq!(a.core.stats.latency_sum, b.core.stats.latency_sum);
    assert_eq!(a.core.activity, b.core.activity);
}

#[test]
fn rp_concentrates_traffic_into_hotspots() {
    // Paper §VI-B-1: "certain routers, connecting different network
    // partitions ... become network hotspots in RP". Compare the
    // link-utilization inequality (Gini) of RP vs gFLOV at 50% gating.
    let rp = run_and_check("RP", Pattern::UniformRandom, 0.5);
    let g = run_and_check("gFLOV", Pattern::UniformRandom, 0.5);
    let (rp_max, rp_mean, rp_gini) = flov_noc::render::link_util_summary(&rp.core);
    let (g_max, g_mean, g_gini) = flov_noc::render::link_util_summary(&g.core);
    assert!(rp_gini > g_gini, "RP gini {rp_gini:.3} should exceed gFLOV {g_gini:.3}");
    // Peak-to-mean is also worse under RP.
    assert!(
        rp_max as f64 / rp_mean > g_max as f64 / g_mean * 0.9,
        "RP peak/mean {:.1} vs gFLOV {:.1}",
        rp_max as f64 / rp_mean,
        g_max as f64 / g_mean
    );
}

#[test]
fn higher_rate_increases_contention_not_structure() {
    let lo = {
        let mut s = sim_with("gFLOV", Pattern::UniformRandom, 0.02, 0.3, 20_000, 5);
        s.measure_from(2_000);
        s.run(20_000);
        s.drain(50_000);
        s
    };
    let hi = {
        let mut s = sim_with("gFLOV", Pattern::UniformRandom, 0.08, 0.3, 20_000, 5);
        s.measure_from(2_000);
        s.run(20_000);
        s.drain(50_000);
        s
    };
    assert!(hi.core.is_empty() && lo.core.is_empty());
    let lo_b = &lo.core.stats.breakdown;
    let hi_b = &hi.core.stats.breakdown;
    let lo_cont = lo_b.contention as f64 / lo.core.stats.packets as f64;
    let hi_cont = hi_b.contention as f64 / hi.core.stats.packets as f64;
    assert!(hi_cont > lo_cont, "contention must grow with load: {lo_cont} -> {hi_cont}");
    // Serialization is structural: identical per packet.
    let lo_ser = lo_b.serialization as f64 / lo.core.stats.packets as f64;
    let hi_ser = hi_b.serialization as f64 / hi.core.stats.packets as f64;
    assert_eq!(lo_ser, 3.0);
    assert_eq!(hi_ser, 3.0);
}
