//! Quickstart: simulate an 8x8 mesh with half the cores power-gated, under
//! each of the four mechanisms of the paper (Baseline, Router Parking,
//! rFLOV, gFLOV), and print latency + power side by side.
//!
//! Run with: `cargo run --release --example quickstart`

use flov_core::mechanism;
use flov_noc::network::Simulation;
use flov_noc::NocConfig;
use flov_power::{GatedResidual, PowerParams};
use flov_workloads::{GatingSchedule, Pattern, SyntheticWorkload};

fn main() {
    let cfg = NocConfig::paper_table1(); // Table I: 8x8, 3-stage, 6-flit buffers...
    let warmup = 5_000u64;
    let cycles = 50_000u64;
    let gated_fraction = 0.5;
    let rate = 0.02; // flits/cycle/node

    println!(
        "FLOV quickstart: {}x{} mesh, {:.0}% cores gated, uniform random @ {rate} flits/cycle/node\n",
        cfg.kx(),
        cfg.kx(),
        gated_fraction * 100.0
    );
    println!(
        "{:>10}  {:>12} {:>10} {:>11} {:>12} {:>10}",
        "mechanism", "avg lat [cy]", "flov hops", "static [mW]", "dynamic [mW]", "total [mW]"
    );

    for name in mechanism::ALL {
        let mech = mechanism::by_name(name, &cfg).unwrap();
        let workload = SyntheticWorkload::new(
            cfg.kx(),
            Pattern::UniformRandom,
            rate,
            cfg.synth_packet_len,
            cycles,
            GatingSchedule::static_fraction(cfg.nodes(), gated_fraction, 7, &[]),
            42,
        );
        let mut sim = Simulation::new(cfg.clone(), mech, Box::new(workload));
        sim.measure_from(warmup);
        sim.run(warmup);
        let act0 = sim.core.activity.clone();
        let res0 = sim.core.residency().to_vec();
        sim.run(cycles - warmup);
        let window = sim.core.cycle - warmup;
        sim.drain(50_000); // let in-flight packets finish

        let activity = sim.core.activity.delta_since(&act0);
        let residency = flov_power::residency_delta(sim.core.residency(), &res0);
        let power = flov_power::compute(
            &PowerParams::dsent_32nm(),
            cfg.kx(),
            &activity,
            &residency,
            window,
            GatedResidual::for_mechanism(name),
        );
        let s = &sim.core.stats;
        println!(
            "{:>10}  {:>12.2} {:>10.2} {:>11.1} {:>12.1} {:>10.1}",
            name,
            s.avg_latency(),
            s.avg_flov_hops(),
            power.static_w * 1e3,
            power.dynamic_w * 1e3,
            power.total_w * 1e3,
        );
        assert!(sim.core.is_empty(), "{name}: packets left undelivered");
    }

    println!("\ngFLOV should show the lowest total power; RP the highest latency (detours).");
}
