//! Time-domain skipping must never step over a scheduled event. The
//! deliberately nasty case: a completely silent network (zero injection
//! rate) whose [`GatingSchedule`] flips power states mid-run. The active
//! kernel sees a quiescent fabric and wants to jump the clock all the way
//! to the run deadline — the workload horizon must truncate the jump at
//! the gating boundary so the flip (and every mechanism transition it
//! triggers: drain, handshake, sleep) lands on exactly the same cycle as
//! in the never-jumping reference kernel.

use flov_core::mechanism;
use flov_noc::network::{KernelMode, Simulation};
use flov_noc::NocConfig;
use flov_workloads::{GatingSchedule, Pattern, SyntheticWorkload};

const RUN_CYCLES: u64 = 100_000;
const BOUNDARY: u64 = 50_000;

/// Zero-traffic sim whose only event is a gating flip at `BOUNDARY`.
fn silent_sim_with_boundary(mech_name: &str, kernel: KernelMode) -> Simulation {
    let cfg = NocConfig::default();
    let gated: Vec<u16> = (0..cfg.nodes() as u16).step_by(2).collect();
    let gating = GatingSchedule::explicit(vec![(0, Vec::new()), (BOUNDARY, gated)]);
    let workload = SyntheticWorkload::new(
        cfg.kx(),
        Pattern::UniformRandom,
        0.0,
        cfg.synth_packet_len,
        RUN_CYCLES,
        gating,
        7,
    );
    let mech = mechanism::by_name(mech_name, &cfg).expect("known mechanism");
    let mut sim = Simulation::new(cfg, mech, Box::new(workload));
    sim.core.kernel = kernel;
    sim
}

fn digest(sim: &mut Simulation) -> String {
    let residency = sim.core.residency().to_vec();
    serde_json::to_string(&(&sim.core.activity, &sim.core.stats, &residency))
        .expect("digest serialization")
}

#[test]
fn gating_boundary_truncates_the_jump() {
    for mech in ["gFLOV", "rFLOV", "RP"] {
        let mut active = silent_sim_with_boundary(mech, KernelMode::ActiveSet);
        active.run(RUN_CYCLES);

        // The flip itself was not stepped over: even-numbered cores are
        // gated after the boundary.
        assert!(!active.core.core_active[0], "{mech}: node 0 should be gated after boundary");
        assert!(active.core.core_active[1], "{mech}: node 1 should stay active");

        // The run is silent, so almost everything outside the boundary's
        // transition window should have been jumped over.
        let skipped = active.core.cycles_skipped;
        assert!(
            skipped > RUN_CYCLES / 2,
            "{mech}: only {skipped}/{RUN_CYCLES} cycles skipped on a silent run"
        );
        assert!(
            skipped < RUN_CYCLES,
            "{mech}: the entire run was skipped — the gating boundary was jumped over"
        );

        // And the jumps are invisible: residency (which integrates *when*
        // each power transition happened), activity, and stats all match
        // the reference kernel bit-for-bit.
        let mut reference = silent_sim_with_boundary(mech, KernelMode::Reference);
        reference.run(RUN_CYCLES);
        assert_eq!(reference.core.cycles_skipped, 0, "{mech}: reference kernel must not jump");
        assert_eq!(
            digest(&mut active),
            digest(&mut reference),
            "{mech}: time-skip changed the end state of a silent run with a gating boundary"
        );
    }
}
