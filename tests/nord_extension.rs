//! Integration tests for the NoRD extension baseline across the full stack:
//! synthetic sweeps, the PARSEC proxy, and the paper's §II positioning
//! claims (lowest static power, non-scalable ring latency).

use flov_bench::{run, RunSpec, WorkloadSpec};
use flov_noc::{NocConfig, TopologySpec};
use flov_power::PowerParams;
use flov_workloads::Pattern;

fn spec(mech: &str, k: u16, fraction: f64) -> RunSpec {
    RunSpec {
        cfg: NocConfig { topology: TopologySpec::Mesh { k }, ..NocConfig::paper_table1() },
        mechanism: mech.into(),
        workload: WorkloadSpec::Synthetic {
            pattern: Pattern::UniformRandom,
            rate: 0.02,
            gated_fraction: fraction,
            seed: 31,
            changes: vec![],
        },
        warmup: 2_000,
        cycles: 18_000,
        drain: 60_000,
        timeline_width: 0,
        power_params: PowerParams::default(),
        audit: false,
        mech_switches: vec![],
    }
}

#[test]
fn nord_delivers_everything_at_every_gating_level() {
    for fraction in [0.0, 0.4, 0.8] {
        let r = run(&spec("NoRD", 8, fraction));
        assert!(r.delivered_all, "NoRD lost packets at {fraction}");
        assert!(r.packets > 100);
    }
}

#[test]
fn nord_has_lowest_static_power() {
    // No AON column, no adjacency restriction, no delivery wakeups: NoRD
    // gates more router-cycles than every other mechanism.
    let frac = 0.6;
    let nord = run(&spec("NoRD", 8, frac));
    for other in ["gFLOV", "rFLOV", "RP-aggressive", "Baseline"] {
        let r = run(&spec(other, 8, frac));
        assert!(
            nord.power.static_w < r.power.static_w,
            "NoRD static {} !< {other} {}",
            nord.power.static_w,
            r.power.static_w
        );
    }
}

#[test]
fn nord_pays_latency_for_ring_trips_at_8x8() {
    let frac = 0.6;
    let nord = run(&spec("NoRD", 8, frac));
    let g = run(&spec("gFLOV", 8, frac));
    assert!(
        nord.avg_latency > g.avg_latency * 1.3,
        "expected a clear ring latency penalty: NoRD {} vs gFLOV {}",
        nord.avg_latency,
        g.avg_latency
    );
    assert!(nord.ring_flits > 0, "NoRD never used its ring");
    assert_eq!(g.ring_flits, 0, "gFLOV must not have a ring");
}

#[test]
fn ring_latency_penalty_grows_with_mesh_size() {
    // The paper's scalability critique as a regression test.
    let penalty = |k: u16| {
        let nord = run(&spec("NoRD", k, 0.75));
        let g = run(&spec("gFLOV", k, 0.75));
        nord.avg_latency / g.avg_latency
    };
    let p4 = penalty(4);
    let p8 = penalty(8);
    assert!(p8 > p4 + 0.3, "ring penalty should grow with k: k=4 ratio {p4:.2}, k=8 ratio {p8:.2}");
}

#[test]
fn nord_runs_the_full_system_proxy() {
    let r = run(&RunSpec::parsec("NoRD", "swaptions", 9));
    assert!(r.delivered_all, "NoRD failed the PARSEC proxy");
    assert!(r.packets > 9_000);
    // With phased idle sets, gating events and ring traffic both occur.
    assert!(r.gating_events > 0);
    assert!(r.ring_flits > 0);
}

#[test]
fn nord_energy_positioning_vs_flov() {
    // FLOV's pitch vs NoRD: comparable static savings at far better
    // latency. Check both directions of the trade at 8x8.
    let frac = 0.8;
    let nord = run(&spec("NoRD", 8, frac));
    let g = run(&spec("gFLOV", 8, frac));
    // NoRD's static power is lower, but within ~25% of gFLOV's.
    assert!(nord.power.static_w < g.power.static_w);
    assert!(g.power.static_w < nord.power.static_w * 1.35);
    // gFLOV's latency is far lower.
    assert!(g.avg_latency < nord.avg_latency);
}
