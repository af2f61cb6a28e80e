//! # flov-core — the Fly-Over (FLOV) power-gating mechanism
//!
//! The paper's contribution, built on the `flov-noc` simulator substrate:
//!
//! * [`partition`] — the 8-way destination partitioning of Fig. 4(a);
//! * [`routing`] — the partition-based dynamic routing algorithm (§V) for
//!   regular VCs and the deadlock-free escape sub-network of Fig. 4(b);
//! * [`fsm`] — the Active/Draining/Sleep/Wakeup router power FSM of Fig. 2,
//!   shared by every distributed scheme, which states only its rules as a
//!   [`fsm::Gate`];
//! * [`flov`] — the distributed handshake protocols: restricted FLOV
//!   (rFLOV, §IV-A) and generalized FLOV (gFLOV, §IV-B);
//! * [`nord`] and [`punch`] — the prior distributed schemes of §II: NoRD's
//!   bypass ring and Power Punch's wakeup punches;
//! * [`rp`] — the Router Parking baseline (centralized Fabric Manager,
//!   reconfiguration stalls, up*/down* tables) the paper compares against.
//!
//! ## Choosing a mechanism
//!
//! ```
//! use flov_core::mechanism;
//! use flov_noc::NocConfig;
//!
//! let cfg = NocConfig::paper_table1();
//! for name in ["Baseline", "rFLOV", "gFLOV", "RP"] {
//!     let mech = mechanism::by_name(name, &cfg).expect("known mechanism");
//!     assert_eq!(mech.name(), name);
//! }
//! ```

pub mod flov;
pub mod fsm;
pub mod nord;
pub mod partition;
pub mod punch;
pub mod routing;
pub mod rp;

pub use flov::{Flov, FlovMode, FlovParams};
pub use nord::Nord;
pub use partition::Partition;
pub use punch::{punch_config, PowerPunch};
pub use rp::{RouterParking, RpMode};

/// Constructors for every mechanism evaluated in the paper.
pub mod mechanism {
    use super::*;
    use flov_noc::baseline::AlwaysOnYx;
    use flov_noc::traits::PowerMechanism;
    use flov_noc::NocConfig;

    /// The four mechanisms of the paper's evaluation, in presentation order.
    pub const ALL: [&str; 4] = ["Baseline", "RP", "rFLOV", "gFLOV"];

    /// Every name [`by_name`] accepts, given the config requirements the
    /// harness applies per mechanism (NoRD's ring, PowerPunch's VCs).
    pub const NAMES: [&str; 7] =
        ["Baseline", "RP", "RP-aggressive", "rFLOV", "gFLOV", "NoRD", "PowerPunch"];

    /// Build a mechanism by its paper name. `RP` is the adaptive variant
    /// used in the latency/power sweeps; `RP-aggressive` is the
    /// workload-independent one of the static-power comparison (paper
    /// Fig. 9).
    pub fn by_name(name: &str, cfg: &NocConfig) -> Option<Box<dyn PowerMechanism>> {
        Some(match name {
            "Baseline" => Box::new(AlwaysOnYx),
            "rFLOV" => Box::new(Flov::restricted(cfg)),
            "gFLOV" => Box::new(Flov::generalized(cfg)),
            "RP" => Box::new(RouterParking::adaptive(cfg)),
            "RP-aggressive" => Box::new(RouterParking::aggressive(cfg)),
            // NoRD needs the bypass ring: only constructible when the
            // topology admits a Hamiltonian cycle and `cfg.enable_ring` is
            // set (the harness does this; `NocConfig::validate` rejects
            // ring-less topologies with a structured error).
            "NoRD" if cfg.enable_ring => Box::new(Nord::new(cfg)),
            // Power Punch needs escape_vcs = 0 (waiting on a punched wakeup
            // must not divert into the FLOV escape network) — the harness
            // applies `punch_config`.
            "PowerPunch" if cfg.escape_vcs == 0 => Box::new(PowerPunch::new(cfg)),
            _ => return None,
        })
    }
}
