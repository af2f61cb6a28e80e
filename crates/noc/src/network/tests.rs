//! Kernel behavior tests that need access to network internals: pipeline
//! timing, wormhole streaming, credit back-pressure, FLOV latch streaming,
//! VA gating during handshakes.

use super::*;
use crate::baseline::AlwaysOnYx;
use crate::routing::{yx_route, RouteCtx};
use crate::traits::{PacketRequest, PowerView, ScriptedWorkload, SilentWorkload};
use crate::types::Port;

/// A mechanism that executes scripted power transitions at fixed cycles and
/// routes YX. Lets tests construct precise power-state scenarios without a
/// protocol in the way.
struct ManualMech {
    /// `(cycle, node, action)`; actions: 0=begin_drain, 1=enter_sleep,
    /// 2=begin_wakeup, 3=complete_wakeup, 4=abort_drain.
    script: Vec<(Cycle, NodeId, u8)>,
    next: usize,
}

impl ManualMech {
    fn new(mut script: Vec<(Cycle, NodeId, u8)>) -> ManualMech {
        script.sort_by_key(|e| e.0);
        ManualMech { script, next: 0 }
    }
}

impl PowerMechanism for ManualMech {
    fn name(&self) -> &'static str {
        "manual"
    }

    fn step(&mut self, core: &mut NetworkCore) {
        while self.next < self.script.len() && self.script[self.next].0 <= core.cycle {
            let (_, node, action) = self.script[self.next];
            match action {
                0 => core.begin_drain(node),
                1 => core.enter_sleep(node),
                2 => core.begin_wakeup(node),
                3 => core.complete_wakeup(node),
                4 => core.abort_drain(node),
                _ => unreachable!(),
            }
            self.next += 1;
        }
    }

    fn route(&self, _net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
        Some(yx_route(ctx.at, ctx.dst))
    }
}

fn small_cfg() -> NocConfig {
    NocConfig::small_test()
}

#[test]
fn wormhole_streams_one_flit_per_cycle() {
    // A single long packet across one hop: tail arrives len-1 cycles after
    // the head.
    let cfg = NocConfig { synth_packet_len: 6, ..small_cfg() };
    let w = ScriptedWorkload::new(vec![(0, PacketRequest { src: 0, dst: 1, vnet: 0, len: 6 })]);
    let mut sim = Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(w));
    sim.run_until_done(1_000);
    let s = &sim.core.stats;
    assert_eq!(s.packets, 1);
    assert_eq!(s.breakdown.serialization, 5);
    // Head path: 2 routers + 2 links = 8 cycles; tail 5 later; inject 1.
    assert!(s.avg_latency() <= 15.0, "latency {}", s.avg_latency());
}

#[test]
fn credit_backpressure_limits_vc_throughput() {
    // Saturate one VC path: throughput per VC is bounded by
    // buf_depth / credit-round-trip, total by VC count.
    let cfg = small_cfg();
    let mut events = Vec::new();
    for i in 0..200u64 {
        events.push((i, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 }));
    }
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(w));
    let end = sim.run_until_done(20_000);
    assert!(end < 20_000);
    // 800 flits over a single row path; the row link is the bottleneck at
    // <= 1 flit/cycle, so at least 800 cycles passed.
    assert!(sim.core.cycle >= 800, "finished impossibly fast: {}", sim.core.cycle);
}

#[test]
fn flits_fly_over_sleeping_router_in_one_cycle_each() {
    // Manually gate router 1 on the path 0 -> 2 along row 0 and verify the
    // FLOV hop count and the latency advantage.
    let cfg = small_cfg();
    let script = vec![(5u64, 1u16, 0u8), (40, 1, 1)];
    let w = ScriptedWorkload::new(vec![(100, PacketRequest { src: 0, dst: 2, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(cfg, Box::new(ManualMech::new(script)), Box::new(w));
    let end = sim.run_until_done(5_000);
    assert!(end < 5_000);
    let s = &sim.core.stats;
    assert_eq!(s.packets, 1);
    assert_eq!(s.flov_hop_sum, 1, "expected one FLOV hop");
    assert_eq!(s.hop_sum, 2, "src and dst routers only");
    // 2 routers (6 cy) + 3 links (3 cy) + 1 latch (1 cy) + serial 3 ~ 13-14.
    assert!(s.avg_latency() <= 16.0, "latency {}", s.avg_latency());
}

#[test]
fn back_to_back_flits_stream_through_latch() {
    // All four flits of one packet cross the sleeping router consecutively:
    // the latch sustains 1 flit/cycle with no conflicts (asserted inside).
    let cfg = small_cfg();
    let script = vec![(5u64, 1u16, 0u8), (40, 1, 1), (5, 2, 0), (40, 2, 1)];
    let w = ScriptedWorkload::new(vec![(100, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(cfg, Box::new(ManualMech::new(script)), Box::new(w));
    let end = sim.run_until_done(5_000);
    assert!(end < 5_000);
    assert_eq!(sim.core.stats.flov_hop_sum, 2);
    assert_eq!(sim.core.activity.flov_latch_flits, 8); // 4 flits x 2 latches
}

#[test]
fn va_blocks_toward_draining_router_until_it_sleeps() {
    // Router 1 starts draining just before the packet wants to cross it:
    // the packet must wait for the Sleep transition, then fly over.
    let cfg = small_cfg();
    let script = vec![(99u64, 1u16, 0u8), (130, 1, 1)];
    let w = ScriptedWorkload::new(vec![(100, PacketRequest { src: 0, dst: 2, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(cfg, Box::new(ManualMech::new(script)), Box::new(w));
    let end = sim.run_until_done(5_000);
    assert!(end < 5_000);
    let s = &sim.core.stats;
    // It crossed via the latch (after the sleep at cycle 130), so total
    // latency reflects the ~30-cycle hold.
    assert_eq!(s.flov_hop_sum, 1);
    assert!(s.avg_latency() >= 35.0, "did not wait for the drain: {}", s.avg_latency());
}

#[test]
fn wakeup_request_raised_for_sleeping_destination() {
    let cfg = small_cfg();
    // Sleep router 2, then send a packet *to* node 2; the core must raise a
    // wakeup request (the manual mechanism ignores it, so the packet waits).
    let script = vec![(5u64, 2u16, 0u8), (40, 2, 1)];
    let w = ScriptedWorkload::new(vec![(100, PacketRequest { src: 0, dst: 2, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(
        NocConfig { watchdog_cycles: 0, ..cfg },
        Box::new(ManualMech::new(script)),
        Box::new(w),
    );
    sim.run(300);
    let mut wake = Vec::new();
    sim.core.take_wakeup_requests(&mut wake);
    assert!(wake.contains(&2), "no wakeup request for the sleeping destination");
    assert_eq!(sim.core.activity.packets_delivered, 0);
    // Wake it manually; delivery completes.
    sim.core.begin_wakeup(2);
    for _ in 0..20 {
        sim.step();
    }
    sim.core.complete_wakeup(2);
    let end = sim.run_until_done(5_000);
    assert!(end < 5_000);
    assert_eq!(sim.core.activity.packets_delivered, 1);
}

#[test]
fn credit_relay_crosses_sleeping_router() {
    // With router 1 asleep, stream enough packets 0 -> 2 that credits must
    // return across the sleeper (buffer depth 6 < 40 flits).
    let cfg = small_cfg();
    let script = vec![(5u64, 1u16, 0u8), (40, 1, 1)];
    let mut events = Vec::new();
    for i in 0..10u64 {
        events.push((100 + i * 2, PacketRequest { src: 0, dst: 2, vnet: 0, len: 4 }));
    }
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(cfg, Box::new(ManualMech::new(script)), Box::new(w));
    let end = sim.run_until_done(10_000);
    assert!(end < 10_000);
    assert_eq!(sim.core.activity.packets_delivered, 10);
    assert!(sim.core.activity.credit_relays > 0, "credits never relayed across the sleeper");
}

#[test]
fn quiescence_predicates_track_traffic() {
    let cfg = small_cfg();
    let w = ScriptedWorkload::new(vec![(10, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(w));
    assert!(sim.core.fully_quiescent(1));
    sim.run(14); // packet in flight through router 1's row
    assert!(!sim.core.fully_quiescent(1), "router 1 should see inbound traffic mid-transfer");
    sim.run_until_done(5_000);
    assert!(sim.core.fully_quiescent(1));
    assert!(sim.core.fully_quiescent(2));
}

#[test]
fn watchdog_fires_on_artificial_stall() {
    // Put a router to sleep *with the manual mechanism never waking it* and
    // address traffic to it; the watchdog must detect the stall.
    let cfg = NocConfig { watchdog_cycles: 2_000, ..small_cfg() };
    let script = vec![(5u64, 2u16, 0u8), (40, 2, 1)];
    let w = ScriptedWorkload::new(vec![(100, PacketRequest { src: 0, dst: 2, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(cfg, Box::new(ManualMech::new(script)), Box::new(w));
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run(10_000);
    }));
    assert!(res.is_err(), "watchdog did not fire");
}

#[test]
fn injection_respects_one_flit_per_cycle() {
    let cfg = small_cfg();
    let mut events = Vec::new();
    for _ in 0..5 {
        events.push((0u64, PacketRequest { src: 0, dst: 5, vnet: 0, len: 4 }));
    }
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(w));
    // 20 flits at 1 flit/cycle: after 10 cycles, at most 10 injected.
    sim.run(10);
    assert!(
        sim.core.activity.flits_injected <= 10,
        "{} flits injected in 10 cycles",
        sim.core.activity.flits_injected
    );
    sim.run_until_done(5_000);
    assert_eq!(sim.core.activity.flits_injected, 20);
}

#[test]
fn silent_network_stays_silent() {
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(SilentWorkload));
    sim.run(1_000);
    assert_eq!(sim.core.activity.flits_injected, 0);
    assert_eq!(sim.core.flits_in_network(), 0);
    assert_eq!(sim.core.activity.buffer_writes, 0);
    assert!(sim.core.is_empty());
}

/// A busy scenario exercising every active-set path: FLOV latches, credit
/// relays across sleepers, wakeups mid-run, and plain wormhole traffic.
fn gating_scenario(kernel: KernelMode) -> Simulation {
    let cfg = small_cfg();
    let script = vec![
        (5u64, 1u16, 0u8),
        (40, 1, 1),
        (5, 2, 0),
        (40, 2, 1),
        (400, 1, 2),
        (420, 1, 3),
        (430, 2, 2),
        (450, 2, 3),
    ];
    let mut events = Vec::new();
    for i in 0..10u64 {
        // Streams 0 -> 3 cross both sleepers: latches + credit relays.
        events.push((100 + i * 2, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 }));
    }
    events.push((150, PacketRequest { src: 4, dst: 7, vnet: 0, len: 4 }));
    events.push((500, PacketRequest { src: 3, dst: 0, vnet: 0, len: 4 }));
    events.push((520, PacketRequest { src: 2, dst: 13, vnet: 0, len: 4 }));
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(cfg, Box::new(ManualMech::new(script)), Box::new(w));
    sim.core.kernel = kernel;
    sim
}

#[test]
fn active_set_kernel_matches_reference_on_gating_scenario() {
    let mut act = gating_scenario(KernelMode::ActiveSet);
    let mut reference = gating_scenario(KernelMode::Reference);
    let end_a = act.run_until_done(10_000);
    let end_r = reference.run_until_done(10_000);
    assert_eq!(end_a, end_r, "kernels finished at different cycles");
    reference.run(end_a + 100 - reference.core.cycle); // align final cycle
    act.run(end_a + 100 - act.core.cycle);
    assert!(act.core.activity.flov_latch_flits > 0, "scenario never used the latches");
    assert!(act.core.activity.credit_relays > 0, "scenario never relayed credits");
    assert_eq!(act.core.activity, reference.core.activity);
    assert_eq!(act.core.residency(), reference.core.residency());
    let (a, r) = (&act.core.stats, &reference.core.stats);
    assert_eq!(a.packets, r.packets);
    assert_eq!(a.avg_latency(), r.avg_latency());
    assert_eq!(a.hop_sum, r.hop_sum);
    assert_eq!(a.flov_hop_sum, r.flov_hop_sum);
    assert_eq!(a.breakdown, r.breakdown);
    assert_eq!(a.histogram, r.histogram);
}

#[test]
fn kernel_mode_can_switch_mid_run() {
    // The scheduling sets are maintained in both modes, so flipping the
    // kernel in the middle of a run must not change the outcome.
    let mut mixed = gating_scenario(KernelMode::Reference);
    mixed.run(300); // latches, relays, and sleepers all live at cycle 300
    mixed.core.kernel = KernelMode::ActiveSet;
    let end_m = mixed.run_until_done(10_000);
    let mut pure = gating_scenario(KernelMode::ActiveSet);
    let end_p = pure.run_until_done(10_000);
    assert_eq!(end_m, end_p);
    assert_eq!(mixed.core.activity, pure.core.activity);
    assert_eq!(mixed.core.stats.packets, pure.core.stats.packets);
    assert_eq!(mixed.core.stats.avg_latency(), pure.core.stats.avg_latency());
    assert_eq!(mixed.core.residency(), pure.core.residency());
}

#[test]
fn lazy_residency_attributes_transition_cycles_like_the_eager_tally() {
    // Sleep router 1 at cycle 40, wake it at 110, observe at 200. The eager
    // per-cycle tally attributed each cycle to the state *after* that
    // cycle's transitions: gated covers [40, 110), powered the rest.
    let script = vec![(5u64, 1u16, 0u8), (40, 1, 1), (100, 1, 2), (110, 1, 3)];
    let mut sim =
        Simulation::new(small_cfg(), Box::new(ManualMech::new(script)), Box::new(SilentWorkload));
    sim.run(200);
    let res = sim.core.residency()[1].clone();
    assert_eq!(res.gated, 70, "gated residency {} != cycles [40, 110)", res.gated);
    assert_eq!(res.powered + res.gated, 200, "every cycle attributed exactly once");
    // Querying is idempotent: settling twice must not double-count.
    let again = sim.core.residency()[1].clone();
    assert_eq!(res, again);
}

#[test]
fn stalled_injection_counts_node_cycles() {
    // A closed injection gate with N backlogged nodes accrues exactly N
    // stall counts per cycle — node-cycles, not cycles.
    struct ClosedGate;
    impl PowerMechanism for ClosedGate {
        fn name(&self) -> &'static str {
            "closed-gate"
        }
        fn step(&mut self, _core: &mut NetworkCore) {}
        fn route(&self, _net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
            Some(yx_route(ctx.at, ctx.dst))
        }
        fn injection_allowed(&self, _net: &dyn PowerView, _node: NodeId) -> bool {
            false
        }
    }
    let events = vec![
        (0u64, PacketRequest { src: 0, dst: 5, vnet: 0, len: 4 }),
        (0, PacketRequest { src: 1, dst: 6, vnet: 0, len: 4 }),
        (0, PacketRequest { src: 2, dst: 7, vnet: 0, len: 4 }),
    ];
    let cfg = NocConfig { watchdog_cycles: 0, ..small_cfg() };
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(cfg, Box::new(ClosedGate), Box::new(w));
    sim.run(100);
    let first = sim.core.stalled_injection_node_cycles;
    sim.run(50);
    let delta = sim.core.stalled_injection_node_cycles - first;
    assert_eq!(delta, 3 * 50, "3 stalled nodes over 50 cycles");
    assert_eq!(sim.core.activity.flits_injected, 0);
}

#[test]
fn escape_diversion_on_unroutable_is_immediate() {
    // A mechanism that always stalls regular packets forces immediate
    // escape diversion (tested with YX escape = still YX, so delivery works).
    struct Staller;
    impl PowerMechanism for Staller {
        fn name(&self) -> &'static str {
            "staller"
        }
        fn step(&mut self, _core: &mut NetworkCore) {}
        fn route(&self, _net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port> {
            if ctx.escape {
                Some(yx_route(ctx.at, ctx.dst))
            } else {
                None // never route regular packets
            }
        }
    }
    let w = ScriptedWorkload::new(vec![(0, PacketRequest { src: 0, dst: 5, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(small_cfg(), Box::new(Staller), Box::new(w));
    let end = sim.run_until_done(3_000);
    assert!(end < 3_000, "escape diversion did not rescue the packet");
    assert_eq!(sim.core.escape_diversions, 1);
    assert_eq!(sim.core.stats.escape_packets, 1);
    // Diversion was immediate: total latency stays near the minimum, far
    // below the 128-cycle timeout.
    assert!(sim.core.stats.avg_latency() < 40.0, "latency {}", sim.core.stats.avg_latency());
}

// ---------------------------------------------------------------------------
// Auditor: the release-capable invariant checker (audit.rs).

#[test]
fn clean_run_audits_clean() {
    let mut events = Vec::new();
    for i in 0..20u64 {
        events.push((i * 3, PacketRequest { src: 0, dst: 5, vnet: 0, len: 4 }));
    }
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(w));
    sim.attach_auditor(16);
    sim.run_until_done(10_000);
    let aud = sim.auditor.as_ref().unwrap();
    assert!(aud.checks() > 0, "auditor never ran");
    assert!(aud.clean(), "violations on a healthy run: {:?}", aud.violations());
}

#[test]
fn auditor_flags_flit_leak() {
    let w = ScriptedWorkload::new(vec![(0, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(w));
    sim.run_until_done(5_000);
    // Forge the books: one injected flit that never existed.
    sim.core.activity.flits_injected += 1;
    let mut aud = Auditor::with_interval(1, 0);
    aud.check(&sim.core, sim.mech.as_ref());
    let kinds: Vec<AuditKind> = aud.violations().iter().map(|v| v.kind).collect();
    assert!(kinds.contains(&AuditKind::FlitConservation), "got {kinds:?}");
}

#[test]
fn auditor_flags_credit_corruption() {
    let w = ScriptedWorkload::new(vec![(0, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(w));
    sim.run_until_done(5_000);
    // Steal one credit from router 0's East output, VC 0.
    let slot = sim.core.routers[0].slot(Port::East.index(), 0);
    sim.core.routers[0].out_credits[slot].consume();
    let mut aud = Auditor::with_interval(1, 0);
    aud.check(&sim.core, sim.mech.as_ref());
    let kinds: Vec<AuditKind> = aud.violations().iter().map(|v| v.kind).collect();
    assert!(kinds.contains(&AuditKind::CreditConservation), "got {kinds:?}");
}

#[test]
fn auditor_flags_gated_residency() {
    // Buffer flits inside router 1 mid-transit, then flip it to Sleep
    // behind the transition protocol's back.
    let mut events = Vec::new();
    for _ in 0..6 {
        events.push((0u64, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 }));
    }
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(w));
    sim.run(14);
    assert!(sim.core.routers[1].buffered_flits() > 0, "no flits staged in router 1");
    sim.core.routers[1].power = PowerState::Sleep;
    let mut aud = Auditor::with_interval(1, 0);
    aud.check(&sim.core, sim.mech.as_ref());
    let kinds: Vec<AuditKind> = aud.violations().iter().map(|v| v.kind).collect();
    assert!(kinds.contains(&AuditKind::GatedResidency), "got {kinds:?}");
}

#[test]
fn auditor_flags_mechanism_state_violation() {
    // The baseline's audit_state contract: no router ever leaves Active.
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(SilentWorkload));
    sim.run(10);
    sim.core.routers[2].power = PowerState::Draining;
    let mut aud = Auditor::with_interval(1, 0);
    aud.check(&sim.core, sim.mech.as_ref());
    let kinds: Vec<AuditKind> = aud.violations().iter().map(|v| v.kind).collect();
    assert!(kinds.contains(&AuditKind::StateLegality), "got {kinds:?}");
}

#[test]
fn auditor_files_a_router_report_naming_the_router() {
    // Two packet streams stopped mid-flight where they merge, at router 1;
    // then one cached head route there drifts behind the router's back.
    let mut events = Vec::new();
    for _ in 0..6 {
        events.push((0u64, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 }));
        events.push((0u64, PacketRequest { src: 5, dst: 3, vnet: 0, len: 4 }));
    }
    let w = ScriptedWorkload::new(events);
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(w));
    sim.run(14);
    let violations = |sim: &Simulation| {
        let mut aud = Auditor::with_interval(1, 0);
        aud.check(&sim.core, sim.mech.as_ref());
        aud.violations().to_vec()
    };
    assert_eq!(violations(&sim), [], "a healthy run drifted");
    let r = &mut sim.core.routers[1];
    let s = (0..r.inputs.len())
        .find(|&s| r.front(s).is_some_and(|f| f.kind.is_head()))
        .expect("a head flit at some VC front in router 1");
    r.inputs[s].dst ^= 1;
    let (p, j) = (s / r.total_vcs(), s % r.total_vcs());
    let found = violations(&sim);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].kind, AuditKind::StateLegality);
    let lead = format!("router 1 port {p} vc {j}: cached head route");
    assert!(found[0].detail.starts_with(&lead), "{}", found[0].detail);
}

#[test]
fn auditor_flags_a_drifted_wire_count() {
    // Mid-flight, flip the wheel's in-flight count of one busy link and of
    // one idle link in turn: each gives exactly one violation.
    let events = (0..4).map(|_| (0u64, PacketRequest { src: 0, dst: 3, vnet: 0, len: 4 }));
    let w = ScriptedWorkload::new(events.collect());
    let mut sim = Simulation::new(small_cfg(), Box::new(AlwaysOnYx), Box::new(w));
    sim.run(8);
    let violations = |sim: &Simulation| {
        let mut aud = Auditor::with_interval(1, 0);
        aud.check(&sim.core, sim.mech.as_ref());
        aud.violations().to_vec()
    };
    assert_eq!(violations(&sim), [], "a healthy run drifted");
    let counts = sim.core.wheel.wire_flits();
    let busy = counts.iter().position(|&n| n > 0).expect("a flit on some wire");
    let idle = counts.iter().position(|&n| n == 0).expect("an idle link");
    for e in [busy, idle] {
        sim.core.wheel.wire_flits_mut()[e] += 1;
        let found = violations(&sim);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, AuditKind::StateLegality);
        assert!(found[0].detail.contains(&format!("link {e}:")), "{}", found[0].detail);
        sim.core.wheel.wire_flits_mut()[e] -= 1;
    }
}

#[test]
fn auditor_reports_stall_instead_of_panicking() {
    // The watchdog scenario from `watchdog_fires_on_artificial_stall`,
    // with an auditor attached: same detection, structured report, no
    // panic — and the detail names the stuck flit's location.
    let cfg = NocConfig { watchdog_cycles: 2_000, ..small_cfg() };
    let script = vec![(5u64, 2u16, 0u8), (40, 2, 1)];
    let w = ScriptedWorkload::new(vec![(100, PacketRequest { src: 0, dst: 2, vnet: 0, len: 4 })]);
    let mut sim = Simulation::new(cfg, Box::new(ManualMech::new(script)), Box::new(w));
    sim.attach_auditor(64);
    sim.run(10_000); // must not panic
    let aud = sim.auditor.as_ref().unwrap();
    let stall: Vec<_> =
        aud.violations().iter().filter(|v| v.kind == AuditKind::NoProgress).collect();
    assert!(!stall.is_empty(), "no NoProgress violation: {:?}", aud.violations());
    assert!(stall[0].detail.contains("stuck at ["), "detail: {}", stall[0].detail);
}
