//! Per-cycle protocol invariants, checked while the simulation runs:
//! rFLOV's adjacency restriction, gFLOV's forbidden logical-neighbor state
//! combinations, the always-on column, escape-turn legality, and wormhole
//! well-formedness.

use flov_core::routing::escape_turn_legal;
use flov_core::{Flov, FlovMode, FlovParams};
use flov_noc::network::{NetworkCore, Simulation};
use flov_noc::routing::RouteCtx;
use flov_noc::traits::{PowerMechanism, PowerView};
use flov_noc::types::{Dir, NodeId, Port, PowerState};
use flov_noc::NocConfig;
use flov_workloads::{GatingSchedule, Pattern, SyntheticWorkload};
use std::sync::Mutex;

fn make_sim(mode: FlovMode, fraction: f64, cycles: u64) -> Simulation {
    let cfg = NocConfig::paper_table1();
    let mech = Flov::new(mode, FlovParams::for_config(&cfg), cfg.nodes());
    let w = SyntheticWorkload::new(
        cfg.kx(),
        Pattern::UniformRandom,
        0.03,
        cfg.synth_packet_len,
        cycles,
        GatingSchedule::static_fraction(cfg.nodes(), fraction, 17, &[]),
        23,
    );
    Simulation::new(cfg, Box::new(mech), Box::new(w))
}

#[test]
fn rflov_no_two_adjacent_non_active_sleepers_ever() {
    let mut sim = make_sim(FlovMode::Restricted, 0.7, 15_000);
    for _ in 0..15_000 {
        sim.step();
        for n in 0..sim.core.nodes() as NodeId {
            if sim.core.power(n) != PowerState::Sleep {
                continue;
            }
            for d in Dir::ALL {
                if let Some(m) = sim.core.neighbor(n, d) {
                    assert_ne!(
                        sim.core.power(m),
                        PowerState::Sleep,
                        "rFLOV: adjacent sleepers {n},{m} at cycle {}",
                        sim.core.cycle
                    );
                }
            }
        }
    }
    sim.drain(50_000);
    assert!(sim.core.is_empty());
}

#[test]
fn gflov_no_draining_draining_or_draining_wakeup_logical_pairs() {
    let mut sim = make_sim(FlovMode::Generalized, 0.6, 15_000);
    for _ in 0..15_000 {
        sim.step();
        for n in 0..sim.core.nodes() as NodeId {
            let pn = sim.core.power(n);
            if pn != PowerState::Draining {
                continue;
            }
            for d in Dir::ALL {
                if let Some((m, _)) = sim.core.logical_neighbor(n, d) {
                    let pm = sim.core.power(m);
                    if pm == PowerState::Draining {
                        // Both draining simultaneously is the forbidden
                        // combination — except during the single scan in
                        // which the earlier id just transitioned; since we
                        // observe *between* cycles, it must never persist.
                        panic!(
                            "gFLOV: Draining-Draining logical pair {n},{m} at cycle {}",
                            sim.core.cycle
                        );
                    }
                }
            }
        }
    }
    sim.drain(50_000);
    assert!(sim.core.is_empty());
}

#[test]
fn aon_column_never_gates() {
    for mode in [FlovMode::Restricted, FlovMode::Generalized] {
        let mut sim = make_sim(mode, 0.8, 10_000);
        let k = sim.core.k();
        for _ in 0..10_000 {
            sim.step();
            for y in 0..k {
                let n = y * k + (k - 1);
                assert_eq!(
                    sim.core.power(n),
                    PowerState::Active,
                    "AON router {n} left Active at cycle {}",
                    sim.core.cycle
                );
            }
        }
        sim.drain(80_000);
        assert!(sim.core.is_empty());
    }
}

#[test]
fn corner_routers_may_gate_but_never_hold_latched_flits() {
    let mut sim = make_sim(FlovMode::Generalized, 0.8, 12_000);
    let k = sim.core.k();
    let corners = [0, k - 1, k * (k - 1), k * k - 1];
    for _ in 0..12_000 {
        sim.step();
        for &c in &corners {
            // Corners have no FLOV links: their latches must stay empty in
            // every state.
            assert!(sim.core.routers[c as usize].latches_empty(), "corner {c} has a latched flit");
        }
    }
    sim.drain(80_000);
    assert!(sim.core.is_empty());
}

/// Wraps a mechanism and verifies every escape-route decision obeys the
/// Fig. 4(b) turn rules (after the first escape hop, which may reverse).
struct TurnChecker {
    inner: Flov,
    violations: Mutex<Vec<String>>,
}

impl PowerMechanism for TurnChecker {
    fn name(&self) -> &'static str {
        "turn-checker"
    }

    fn step(&mut self, core: &mut NetworkCore) {
        self.inner.step(core);
    }

    fn route(&self, net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
        let out = self.inner.route(net, ctx)?;
        if ctx.escape && ctx.in_port != Port::Local && out != Port::Local {
            if let Some(in_dir) = ctx.in_port.dir() {
                let travel_in = in_dir.opposite();
                let travel_out = out.dir().unwrap();
                // The diversion hop itself may reverse (escape entry); a
                // same-direction exit or a legal turn is required otherwise.
                // We cannot distinguish entry here, so only flag turns that
                // are neither legal nor a pure reversal.
                if travel_out != travel_in.opposite() && !escape_turn_legal(travel_in, travel_out) {
                    self.violations.lock().unwrap().push(format!(
                        "illegal escape turn {travel_in:?}->{travel_out:?} at {:?} dst {:?}",
                        ctx.at, ctx.dst
                    ));
                }
            }
        }
        Some(out)
    }
}

#[test]
fn escape_routing_obeys_turn_model_in_vivo() {
    let cfg = NocConfig::paper_table1();
    let mech = TurnChecker { inner: Flov::generalized(&cfg), violations: Mutex::new(Vec::new()) };
    let w = SyntheticWorkload::new(
        cfg.kx(),
        Pattern::UniformRandom,
        0.05,
        cfg.synth_packet_len,
        20_000,
        GatingSchedule::static_fraction(cfg.nodes(), 0.6, 31, &[]),
        37,
    );
    let mut sim = Simulation::new(cfg, Box::new(mech), Box::new(w));
    sim.run(20_000);
    sim.drain(80_000);
    assert!(sim.core.is_empty());
    // Reach into the checker via a fresh route call is impossible now (the
    // mechanism is boxed); instead the checker would have pushed
    // violations. We verify by proxy: escape packets were actually routed.
    // (Violations panic below if any were recorded.)
    // Note: the box is owned by the sim; drop order runs Drop handlers.
    // We assert via the recorded side channel:
    // -- reconstruct: the checker cannot be recovered from Box<dyn>, so it
    //    panics on drop instead if it saw violations.
    drop(sim);
}

impl Drop for TurnChecker {
    fn drop(&mut self) {
        let v = self.violations.lock().unwrap();
        assert!(v.is_empty(), "escape turn violations: {:#?}", &v[..v.len().min(5)]);
    }
}

#[test]
fn wormholes_never_interleave_at_destination() {
    // The NIC asserts flit ordering per packet internally; run a congested
    // scenario to exercise it hard.
    let mut sim = make_sim(FlovMode::Generalized, 0.5, 10_000);
    // Crank the rate by running longer with drain.
    sim.run(10_000);
    sim.drain(80_000);
    assert!(sim.core.is_empty());
    assert_eq!(
        sim.core.activity.flits_injected, sim.core.activity.flits_delivered,
        "flit conservation violated"
    );
}

#[test]
fn gflov_gates_consecutive_routers() {
    // The defining capability of gFLOV: at high gating, some row or column
    // must contain two adjacent sleepers.
    let mut sim = make_sim(FlovMode::Generalized, 0.8, 8_000);
    sim.run(8_000);
    let mut found = false;
    for n in 0..sim.core.nodes() as NodeId {
        if sim.core.power(n) != PowerState::Sleep {
            continue;
        }
        for d in [Dir::East, Dir::North] {
            if let Some(m) = sim.core.neighbor(n, d) {
                if sim.core.power(m) == PowerState::Sleep {
                    found = true;
                }
            }
        }
    }
    assert!(found, "gFLOV at 80% gating produced no consecutive sleepers");
    sim.drain(80_000);
    assert!(sim.core.is_empty());
}
