//! # flov-workloads — traffic generation for the FLOV evaluation
//!
//! * [`patterns`] — synthetic spatial patterns (Uniform Random, Tornado,
//!   Transpose, Bit-Complement, Neighbor, Hotspot);
//! * [`gating`] — core power-gating scenarios (static fractions, scheduled
//!   re-randomizations for the Fig. 10 reconfiguration experiment);
//! * [`synthetic`] — Bernoulli injection from active cores over a pattern
//!   (the paper's §VI-B workloads);
//! * [`parsec`] — a synthetic full-system traffic model standing in for
//!   gem5 + PARSEC 2.1 (see DESIGN.md §2 for the substitution argument):
//!   nine benchmark profiles, three coherence vnets, MCs at the corners,
//!   phased idle-core consolidation, and work-based completion;
//! * [`mmpp`] — bursty open-loop traffic: MMPP and diurnal load modulation
//!   over the synthetic generator, with exact next-event horizons;
//! * [`trace`] — deterministic flit-trace capture ([`trace::RecordingWorkload`])
//!   and replay (a [`trace::TraceData`] converts into a
//!   [`flov_noc::traits::ScriptedWorkload`]).

pub mod gating;
pub mod mmpp;
pub mod parsec;
pub mod patterns;
pub mod synthetic;
pub mod trace;

pub use gating::GatingSchedule;
pub use mmpp::{Dwell, ModulatedWorkload};
pub use parsec::{benchmark, memory_controllers, BenchProfile, ParsecWorkload, PARSEC_BENCHMARKS};
pub use patterns::{Pattern, PatternSpace};
pub use synthetic::SyntheticWorkload;
pub use trace::{RecordingWorkload, TraceData};
