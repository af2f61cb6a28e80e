//! The two extension points of the simulator: power-gating mechanisms
//! (Baseline / rFLOV / gFLOV / Router Parking) and workloads (synthetic
//! patterns, PARSEC-proxy traffic).

use crate::network::NetworkCore;
use crate::routing::RouteCtx;
use crate::types::{Cycle, NodeId, Port, PowerState};

/// Read-only power-state view of the fabric.
///
/// The per-flit mechanism hooks ([`PowerMechanism::route`],
/// [`PowerMechanism::injection_allowed`]) take this instead of the full
/// [`NetworkCore`]: every implemented policy decides from power states (and
/// its own tables) alone, and the narrow surface is what lets the parallel
/// kernel evaluate those hooks inside worker tiles against an immutable
/// start-of-phase snapshot while other tiles mutate router state.
pub trait PowerView {
    /// Number of routers.
    fn nodes(&self) -> usize;
    /// Power state of router `n`.
    fn power(&self, n: NodeId) -> PowerState;
}

impl PowerView for NetworkCore {
    #[inline]
    fn nodes(&self) -> usize {
        NetworkCore::nodes(self)
    }

    #[inline]
    fn power(&self, n: NodeId) -> PowerState {
        NetworkCore::power(self, n)
    }
}

/// A power-gating mechanism: owns the power-state control decisions and the
/// routing function. The simulator calls [`PowerMechanism::step`] once per
/// cycle (after link delivery, before the router pipelines) and
/// [`PowerMechanism::route`] for every head-flit route computation at a
/// powered router.
///
/// `Sync` is a supertrait: the parallel kernel shares the mechanism
/// immutably across tile workers during the routing phases (`step` keeps
/// `&mut self` and runs on the driving thread under every kernel).
pub trait PowerMechanism: Sync {
    /// Human-readable name, used in result tables ("Baseline", "RP", ...).
    fn name(&self) -> &'static str;

    /// Per-cycle control step: run handshakes, drive power transitions via
    /// [`NetworkCore`] transition methods, react to core-activity changes.
    fn step(&mut self, core: &mut NetworkCore);

    /// Route computation for a head flit at a powered router.
    ///
    /// Returns `None` to stall the packet for this cycle (e.g. FLOV's
    /// routing when every viable direction is power-gated and the fallback
    /// would be a U-turn) — the computation is retried every cycle, and the
    /// escape timeout eventually diverts a persistently stalled packet.
    /// A returned port must exist (never walks off the mesh) and, for
    /// non-escape packets, must never be the input port (no U-turns, the
    /// paper's livelock guard).
    fn route(&self, net: &dyn PowerView, ctx: &RouteCtx) -> Option<Port>;

    /// Whether `node` may inject new packets this cycle. Router Parking
    /// stalls all injection during Fabric-Manager reconfiguration.
    fn injection_allowed(&self, _net: &dyn PowerView, _node: NodeId) -> bool {
        true
    }

    /// Next-event horizon for time-domain skipping. Called only while the
    /// fabric is quiescent (no flits anywhere, no NIC backlog, no pending
    /// wakeup requests); returns the earliest cycle `>= core.cycle` at
    /// which [`PowerMechanism::step`] might do anything — mutate its own
    /// state, drive a power transition, or bump a counter — assuming
    /// quiescence persists until then. `None` means the mechanism is
    /// fully settled and will never self-schedule work.
    ///
    /// The contract: for every cycle strictly before the returned horizon,
    /// `step` must be a provable no-op, because the kernel will *not call
    /// it* for skipped cycles. The conservative default pins the horizon
    /// to the present, which disables skipping entirely — custom
    /// mechanisms stay bit-correct without opting in.
    fn next_event(&self, core: &NetworkCore) -> Option<Cycle> {
        Some(core.cycle)
    }

    /// Report mechanism-specific state-legality violations to the
    /// invariant auditor (see [`crate::network::audit`]): call `report`
    /// once per broken rule with a human-readable description. Invoked
    /// only at audit boundaries (between steps, every audit interval), so
    /// implementations may inspect the whole fabric. The default reports
    /// nothing — mechanisms without protocol invariants stay untouched.
    fn audit_state(&self, _core: &NetworkCore, _report: &mut dyn FnMut(String)) {}
}

/// A request to create one packet; the core assigns the id and birth cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRequest {
    pub src: NodeId,
    pub dst: NodeId,
    pub vnet: u8,
    pub len: u16,
}

/// A workload: controls which cores are active and generates traffic.
pub trait Workload {
    /// Update the active-core set for this cycle. Return `true` if anything
    /// changed (Router Parking reconfigures on changes).
    fn update_cores(&mut self, cycle: Cycle, active: &mut [bool]) -> bool;

    /// Generate this cycle's new packets into `out`. Implementations must
    /// only use active sources and active destinations.
    fn generate(&mut self, cycle: Cycle, active: &[bool], out: &mut Vec<PacketRequest>);

    /// Network feedback delivered once per cycle before [`Workload::generate`]:
    /// packets delivered so far and packets still in flight (including
    /// NIC-queued). Closed-loop workloads (the PARSEC proxy) throttle on
    /// this, the way cores throttle on outstanding misses; open-loop
    /// synthetic workloads ignore it.
    fn set_feedback(&mut self, _delivered: u64, _in_flight: u64) {}

    /// For work-based runs: report whether the workload is finished given
    /// the number of packets delivered so far. Cycle-based runs ignore this.
    fn done(&self, _delivered_packets: u64) -> bool {
        false
    }

    /// Next-event horizon for time-domain skipping: the earliest cycle
    /// `>= now` at which this workload may generate a packet or change the
    /// active-core set, assuming neither [`Workload::update_cores`] nor
    /// [`Workload::generate`] is called in between. `None` means the
    /// workload will never act again. Cycles strictly before the horizon
    /// are skipped without calling the workload at all, so an optimistic
    /// answer silently drops traffic; the conservative default (the
    /// present cycle) disables skipping.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }
}

/// The trivial workload: all cores active, no traffic. Useful in tests.
pub struct SilentWorkload;

impl Workload for SilentWorkload {
    fn update_cores(&mut self, _cycle: Cycle, _active: &mut [bool]) -> bool {
        false
    }

    fn generate(&mut self, _cycle: Cycle, _active: &[bool], _out: &mut Vec<PacketRequest>) {}

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }
}

/// Replays explicit event lists: `(cycle, request)` injections,
/// `(cycle, node, active)` core switches and change-pulse cycles. Used
/// heavily in unit and integration tests for precise scenarios, and as the
/// replayer of recorded flit traces.
pub struct ScriptedWorkload {
    /// Sorted by cycle.
    pub events: Vec<(Cycle, PacketRequest)>,
    next: usize,
    /// Core-activity switch events, sorted by cycle: `(cycle, node, active)`.
    pub core_events: Vec<(Cycle, NodeId, bool)>,
    next_core: usize,
    /// Sorted cycles at which [`Workload::update_cores`] reports a change
    /// even when no core flips (a recorded workload may pulse without
    /// flipping a bit, and Router Parking reconfigures on the pulse).
    pub change_pulses: Vec<Cycle>,
    next_pulse: usize,
}

impl ScriptedWorkload {
    pub fn new(mut events: Vec<(Cycle, PacketRequest)>) -> ScriptedWorkload {
        events.sort_by_key(|e| e.0);
        ScriptedWorkload {
            events,
            next: 0,
            core_events: Vec::new(),
            next_core: 0,
            change_pulses: Vec::new(),
            next_pulse: 0,
        }
    }

    pub fn with_core_events(mut self, mut ev: Vec<(Cycle, NodeId, bool)>) -> ScriptedWorkload {
        ev.sort_by_key(|e| e.0);
        self.core_events = ev;
        self.next_core = 0;
        self
    }

    pub fn with_change_pulses(mut self, mut cycles: Vec<Cycle>) -> ScriptedWorkload {
        cycles.sort_unstable();
        self.change_pulses = cycles;
        self.next_pulse = 0;
        self
    }
}

impl Workload for ScriptedWorkload {
    fn update_cores(&mut self, cycle: Cycle, active: &mut [bool]) -> bool {
        let mut changed = false;
        while self.next_core < self.core_events.len() && self.core_events[self.next_core].0 <= cycle
        {
            let (_, node, on) = self.core_events[self.next_core];
            if active[node as usize] != on {
                active[node as usize] = on;
                changed = true;
            }
            self.next_core += 1;
        }
        while self.next_pulse < self.change_pulses.len()
            && self.change_pulses[self.next_pulse] <= cycle
        {
            changed = true;
            self.next_pulse += 1;
        }
        changed
    }

    fn generate(&mut self, cycle: Cycle, _active: &[bool], out: &mut Vec<PacketRequest>) {
        while self.next < self.events.len() && self.events[self.next].0 <= cycle {
            out.push(self.events[self.next].1);
            self.next += 1;
        }
    }

    fn done(&self, delivered_packets: u64) -> bool {
        self.next >= self.events.len()
            && self.next_core >= self.core_events.len()
            && self.next_pulse >= self.change_pulses.len()
            && delivered_packets >= self.events.len() as u64
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let pkt = self.events.get(self.next).map(|e| e.0);
        let core = self.core_events.get(self.next_core).map(|e| e.0);
        let pulse = self.change_pulses.get(self.next_pulse).copied();
        [pkt, core, pulse].into_iter().flatten().min().map(|c| c.max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_workload_releases_in_order() {
        let req = |src, dst| PacketRequest { src, dst, vnet: 0, len: 4 };
        let mut w = ScriptedWorkload::new(vec![(10, req(0, 1)), (5, req(1, 2)), (10, req(2, 3))]);
        let mut out = Vec::new();
        w.generate(4, &[], &mut out);
        assert!(out.is_empty());
        w.generate(5, &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].src, 1);
        out.clear();
        w.generate(10, &[], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn scripted_core_events_apply_once() {
        let mut w =
            ScriptedWorkload::new(vec![]).with_core_events(vec![(5, 2, false), (9, 2, true)]);
        let mut active = vec![true; 4];
        assert!(!w.update_cores(4, &mut active));
        assert!(w.update_cores(5, &mut active));
        assert!(!active[2]);
        assert!(!w.update_cores(6, &mut active));
        assert!(w.update_cores(9, &mut active));
        assert!(active[2]);
    }

    #[test]
    fn scripted_next_event_follows_cursors() {
        let req = |src, dst| PacketRequest { src, dst, vnet: 0, len: 4 };
        let mut w = ScriptedWorkload::new(vec![(10, req(0, 1))])
            .with_core_events(vec![(5, 2, false), (20, 2, true)]);
        assert_eq!(w.next_event(0), Some(5));
        let mut active = vec![true; 4];
        w.update_cores(5, &mut active);
        assert_eq!(w.next_event(6), Some(10));
        let mut out = Vec::new();
        w.generate(10, &active, &mut out);
        assert_eq!(w.next_event(11), Some(20));
        // A past event clamps to the present (never claims a past horizon).
        assert_eq!(w.next_event(25), Some(25));
        w.update_cores(25, &mut active);
        assert_eq!(w.next_event(25), None);
        assert_eq!(SilentWorkload.next_event(0), None);
    }

    #[test]
    fn scripted_done_requires_delivery() {
        let req = PacketRequest { src: 0, dst: 1, vnet: 0, len: 1 };
        let mut w = ScriptedWorkload::new(vec![(0, req)]);
        let mut out = Vec::new();
        w.generate(0, &[], &mut out);
        assert!(!w.done(0));
        assert!(w.done(1));
    }
}
