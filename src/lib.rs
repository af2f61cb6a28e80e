//! # flov-repro — umbrella crate for the Fly-Over (FLOV) reproduction
//!
//! Re-exports the workspace crates so examples and downstream users can
//! depend on one name:
//!
//! * [`noc`] — the cycle-accurate 2D-mesh NoC simulator,
//! * [`core`] — the FLOV mechanism (rFLOV/gFLOV, partition
//!   routing, escape network) and the Router Parking baseline,
//! * [`power`] — the 32 nm power/energy/area model,
//! * [`workloads`] — synthetic + PARSEC-proxy traffic,
//! * [`bench`](mod@bench) — the experiment harness regenerating every
//!   table and figure of the paper.
//!
//! See the repository README for the quickstart and EXPERIMENTS.md for the
//! measured-vs-paper results.
//!
//! ```
//! use flov_repro::prelude::*;
//!
//! let cfg = NocConfig::paper_table1();
//! let mech = mechanism::by_name("gFLOV", &cfg).unwrap();
//! let workload = SyntheticWorkload::new(
//!     cfg.k, Pattern::UniformRandom, 0.02, cfg.synth_packet_len, 5_000,
//!     GatingSchedule::static_fraction(cfg.nodes(), 0.5, 1, &[]), 42,
//! );
//! let mut sim = Simulation::new(cfg, mech, Box::new(workload));
//! sim.run(5_000);
//! sim.drain(100_000);
//! assert!(sim.core.is_empty());
//! ```

pub use flov_bench as bench;
pub use flov_core as core;
pub use flov_noc as noc;
pub use flov_power as power;
pub use flov_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use flov_core::mechanism;
    pub use flov_core::{Flov, FlovMode, FlovParams, RouterParking, RpMode};
    pub use flov_noc::baseline::AlwaysOnYx;
    pub use flov_noc::network::{NetworkCore, Simulation};
    pub use flov_noc::traits::{PacketRequest, PowerMechanism, Workload};
    pub use flov_noc::{NocConfig, PowerState};
    pub use flov_power::{GatedResidual, PowerParams};
    pub use flov_workloads::{GatingSchedule, ParsecWorkload, Pattern, SyntheticWorkload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_a_full_run() {
        let cfg = NocConfig::small_test();
        let mech = mechanism::by_name("rFLOV", &cfg).unwrap();
        let w = SyntheticWorkload::new(
            cfg.k,
            Pattern::Tornado,
            0.03,
            cfg.synth_packet_len,
            2_000,
            GatingSchedule::static_fraction(cfg.nodes(), 0.25, 3, &[]),
            9,
        );
        let mut sim = Simulation::new(cfg, mech, Box::new(w));
        sim.run(2_000);
        sim.drain(50_000);
        assert!(sim.core.is_empty());
        assert!(sim.core.activity.packets_delivered > 0);
    }
}
