//! # flov-noc — cycle-accurate 2D-mesh NoC simulator
//!
//! The substrate for the Fly-Over (FLOV) reproduction: a deterministic,
//! flit-level network-on-chip simulator with
//!
//! * wormhole switching over virtual channels with credit-based flow
//!   control (3 regular VCs + 1 escape VC per virtual network, Table I),
//! * a 3-stage router pipeline (route compute | VC+switch allocation |
//!   switch traversal) plus 1-cycle links,
//! * the FLOV router datapath: per-direction output latches that fly flits
//!   straight over power-gated routers in one cycle, with credit relaying
//!   across arbitrarily long sleeping chains,
//! * power-state transitions with contract-checked quiescence and the
//!   credit zero/copy protocol of the paper's Fig. 3,
//! * three interchangeable cycle kernels, proven bit-identical
//!   ([`network::KernelMode`]): a full-scan reference, the default
//!   active-set kernel whose per-cycle cost scales with traffic rather
//!   than mesh size, and a parallel kernel that shards one run's datapath
//!   phases over a grid of tiles on pooled worker threads,
//! * pluggable [`traits::PowerMechanism`]s (the always-on Baseline lives
//!   in [`baseline`]; rFLOV, gFLOV, Router Parking, NoRD and Power Punch
//!   live in the `flov-core` crate) and
//!   [`traits::Workload`]s (synthetic and PARSEC-proxy traffic live in
//!   `flov-workloads`).
//!
//! Determinism: identical configuration + seed produce bit-identical
//! results on every platform and under every kernel (the kernel carries
//! its own PRNG, uses fixed iteration orders, and the parallel kernel
//! replays cross-tile effects in sequential order). Batches of runs are
//! scheduled outside the kernel: `flov-bench` spreads them over its own
//! work-stealing scheduler.
//!
//! ## Quick example
//!
//! ```
//! use flov_noc::baseline::AlwaysOnYx;
//! use flov_noc::config::NocConfig;
//! use flov_noc::network::Simulation;
//! use flov_noc::traits::{PacketRequest, ScriptedWorkload};
//!
//! let w = ScriptedWorkload::new(vec![(0, PacketRequest { src: 0, dst: 63, vnet: 0, len: 4 })]);
//! let mut sim = Simulation::new(NocConfig::paper_table1(), Box::new(AlwaysOnYx), Box::new(w));
//! sim.run_until_done(10_000);
//! assert_eq!(sim.core.stats.packets, 1);
//! ```

pub mod active;
pub mod activity;
pub mod baseline;
pub mod buffer;
pub mod config;
pub mod flit;
pub mod link;
pub mod network;
pub mod nic;
pub mod packet;
pub mod render;
pub mod ring;
pub mod rng;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;
pub mod traits;
pub mod types;

pub use activity::{ActivityCounters, Residency};
pub use config::{ConfigError, NocConfig};
pub use network::audit;
pub use network::audit::{AuditKind, AuditViolation, Auditor};
pub use network::{KernelMode, NetworkCore, Simulation};
pub use stats::NetStats;
pub use topology::{AnyTopology, Topology, TopologySpec};
pub use traits::{PacketRequest, PowerMechanism, PowerView, Workload};
pub use types::{Coord, Cycle, Dir, NodeId, PacketId, Port, PowerState};
