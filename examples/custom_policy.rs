//! Implementing a custom power-gating mechanism against the public API.
//!
//! `CheckerFlov` gates a router only on "black" checkerboard cells (so no
//! two sleepers are ever adjacent — a structural version of rFLOV's
//! restriction that needs no drain arbitration at all). It states that rule
//! as a `Gate`, lets the shared `PowerFsm` drive the router power FSM, and
//! reuses the partition-based FLOV routing. The example races it against
//! rFLOV.
//!
//! Run with: `cargo run --release --example custom_policy`

use flov_core::fsm::{Gate, PowerFsm};
use flov_core::routing::flov_route;
use flov_core::Flov;
use flov_noc::network::{NetworkCore, Simulation};
use flov_noc::routing::RouteCtx;
use flov_noc::traits::{PowerMechanism, PowerView};
use flov_noc::types::{Cycle, NodeId, Port, PowerState};
use flov_noc::NocConfig;
use flov_workloads::{GatingSchedule, Pattern, SyntheticWorkload};

/// The gating rule: sleep only on checkerboard cells, never in the
/// always-on column.
struct Checkerboard;

impl Gate for Checkerboard {
    fn may_drain(&self, core: &NetworkCore, n: NodeId) -> bool {
        let c = core.coord(n);
        (c.x + c.y).is_multiple_of(2) && c.x + 1 != core.k() // black cells, not AON
    }
}

/// A minimal distributed gating policy: the shared FSM under the
/// checkerboard rule.
struct CheckerFlov {
    fsm: PowerFsm,
}

impl PowerMechanism for CheckerFlov {
    fn name(&self) -> &'static str {
        "CheckerFLOV"
    }

    fn step(&mut self, core: &mut NetworkCore) {
        // Wake sleeping routers that block a delivery.
        self.fsm.wake_requested(core, &Checkerboard);
        self.fsm.step(core, &Checkerboard);
    }

    fn route(&self, _net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
        flov_route(ctx)
    }

    fn next_event(&self, core: &NetworkCore) -> Option<Cycle> {
        self.fsm.next_event(core, &Checkerboard)
    }
}

fn race(name: &str, mech: Box<dyn PowerMechanism>) -> (f64, usize) {
    let cfg = NocConfig::paper_table1();
    let workload = SyntheticWorkload::new(
        cfg.kx(),
        Pattern::UniformRandom,
        0.02,
        cfg.synth_packet_len,
        40_000,
        GatingSchedule::static_fraction(cfg.nodes(), 0.6, 9, &[]),
        3,
    );
    let mut sim = Simulation::new(cfg, mech, Box::new(workload));
    sim.measure_from(5_000);
    sim.run(40_000);
    let asleep =
        (0..sim.core.nodes() as NodeId).filter(|&n| sim.core.power(n) == PowerState::Sleep).count();
    sim.drain(50_000);
    assert!(sim.core.is_empty(), "{name} lost packets");
    (sim.core.stats.avg_latency(), asleep)
}

fn main() {
    let cfg = NocConfig::paper_table1();
    let checker = CheckerFlov { fsm: PowerFsm::new(cfg.nodes(), cfg.idle_threshold) };
    let (lat_c, sleep_c) = race("CheckerFLOV", Box::new(checker));
    let (lat_r, sleep_r) = race("rFLOV", Box::new(Flov::restricted(&cfg)));
    println!("custom CheckerFLOV: avg latency {lat_c:.2} cycles, {sleep_c} routers asleep at steady state");
    println!("paper rFLOV:        avg latency {lat_r:.2} cycles, {sleep_r} routers asleep at steady state");
    println!("\nrFLOV gates any non-adjacent set (id arbitration), so it should sleep at least as many routers.");
}
