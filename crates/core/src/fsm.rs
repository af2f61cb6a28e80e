//! The router power FSM of the paper's Fig. 2, shared by every distributed
//! gating scheme: Active → Draining → Sleep → Wakeup → Active.
//!
//! rFLOV/gFLOV, NoRD and Power Punch run the same four states with the
//! same timers: an idle detector, a drain that gives up after
//! [`DRAIN_TIMEOUT`] and backs off, a handshake window the exit conditions
//! must hold for, and a wakeup power ramp. They differ only in their rules
//! — who may drain, sleep or wake, how long a handshake takes and what it
//! costs in signals — which a mechanism states by implementing [`Gate`].
//! [`PowerFsm`] owns the per-router timers, runs the transitions and
//! answers the time-skip horizon (`PowerMechanism::next_event`) for all of
//! them, so that contract holds in one place.

use flov_noc::network::NetworkCore;
use flov_noc::types::{Cycle, Dir, NodeId, PowerState};

/// Cycles after which a drain that cannot complete (e.g. a buffered packet
/// waiting on a sleeping destination) gives up and returns to Active. The
/// router then backs off for four more timeouts so the traffic it was
/// blocking can pass.
pub const DRAIN_TIMEOUT: u64 = 256;

/// Base handshake latency: the drain_done / wakeup signal exchange between
/// immediate neighbors (one cycle out, one back).
pub const HANDSHAKE_RTT: u32 = 2;

/// A mechanism's gating rules. The FSM asks them only after its own
/// conditions hold (e.g. [`Gate::may_drain`] only for an idle Active router
/// with a gated core and an empty NIC, past its back-off and any hold).
pub trait Gate {
    /// May Active `n` start draining now?
    fn may_drain(&self, core: &NetworkCore, n: NodeId) -> bool;

    /// May Draining `n`, with empty buffers and quiescent inbound paths,
    /// count toward sleep?
    fn may_sleep(&self, _core: &NetworkCore, _n: NodeId) -> bool {
        true
    }

    /// Does sleeping `n` want to wake?
    fn wants_wake(&self, core: &NetworkCore, n: NodeId) -> bool {
        core.router_core_active(n) || core.nic_pending(n)
    }

    /// May sleeping `n` start waking now?
    fn may_wake(&self, _core: &NetworkCore, _n: NodeId) -> bool {
        true
    }

    /// Cycles the Draining → Sleep and Wakeup → Active conditions must hold
    /// before the transition commits.
    fn window(&self, _core: &NetworkCore, _n: NodeId) -> u32 {
        HANDSHAKE_RTT
    }

    /// Handshake-signal wire activations `n` spends on one transition, read
    /// after its power state has changed.
    fn signals(&self, _core: &NetworkCore, _n: NodeId) -> u64 {
        0
    }
}

/// Per-router controller state.
#[derive(Clone, Copy, Debug, Default)]
struct NodeCtl {
    /// Cycle the current drain began.
    drain_since: Cycle,
    /// Consecutive cycles the transition conditions have held.
    stable: u32,
    /// Remaining power-ramp cycles during Wakeup.
    ramp: u32,
    /// Earliest cycle the next drain may start (post-timeout back-off).
    retry_after: Cycle,
    /// No drain before this cycle ([`PowerFsm::hold`]).
    hold_until: Cycle,
}

/// The per-router power FSMs of one network.
pub struct PowerFsm {
    /// Cycles of local-port silence before a gated-core router tries to
    /// drain (paper: "waits ... for a certain number of cycles").
    idle_threshold: u32,
    ctl: Vec<NodeCtl>,
    /// Scratch for [`PowerFsm::wake_requested`], kept so the steady-state
    /// step never allocates.
    wake_buf: Vec<NodeId>,
}

impl PowerFsm {
    pub fn new(nodes: usize, idle_threshold: u32) -> PowerFsm {
        PowerFsm { idle_threshold, ctl: vec![NodeCtl::default(); nodes], wake_buf: Vec::new() }
    }

    /// One cycle of every router's FSM. The id-ordered scan realizes the
    /// paper's smaller-id-wins drain arbitration: a smaller id transitions
    /// first, so a larger neighbor sees it Draining and backs off.
    pub fn step(&mut self, core: &mut NetworkCore, gate: &impl Gate) {
        let now = core.cycle;
        for n in 0..core.nodes() as NodeId {
            let i = n as usize;
            match core.power(n) {
                PowerState::Active => {
                    if !core.router_core_active(n)
                        && core.routers[i].local_idle(now) >= self.idle_threshold as u64
                        && now >= self.ctl[i].retry_after.max(self.ctl[i].hold_until)
                        && !core.nic_pending(n)
                        && gate.may_drain(core, n)
                    {
                        core.begin_drain(n);
                        core.activity.handshake_signals += gate.signals(core, n);
                        let c = &mut self.ctl[i];
                        c.drain_since = now;
                        c.stable = 0;
                    }
                }
                PowerState::Draining => {
                    // Local traffic reappeared or a hold arrived: abort.
                    if core.router_core_active(n)
                        || core.nic_pending(n)
                        || now < self.ctl[i].hold_until
                    {
                        core.abort_drain(n);
                        core.activity.handshake_signals += gate.signals(core, n);
                        continue;
                    }
                    if now - self.ctl[i].drain_since > DRAIN_TIMEOUT {
                        core.abort_drain(n);
                        self.ctl[i].retry_after = now + 4 * DRAIN_TIMEOUT;
                        core.activity.handshake_signals += gate.signals(core, n);
                        continue;
                    }
                    let ready = core.routers[i].is_drained()
                        && core.fully_quiescent(n)
                        && gate.may_sleep(core, n);
                    self.settle(core, n, ready, gate, NetworkCore::enter_sleep);
                }
                PowerState::Sleep => {
                    if gate.wants_wake(core, n) {
                        self.wake(core, n, gate);
                    }
                }
                PowerState::Wakeup => {
                    if self.ctl[i].ramp > 0 {
                        self.ctl[i].ramp -= 1;
                        continue;
                    }
                    let ready = core.routers[i].latches_empty() && core.fully_quiescent(n);
                    self.settle(core, n, ready, gate, NetworkCore::complete_wakeup);
                }
            }
        }
    }

    /// Count one cycle of `n`'s exit condition; once it has held for the
    /// gate's window, `commit` the transition.
    fn settle(
        &mut self,
        core: &mut NetworkCore,
        n: NodeId,
        ready: bool,
        gate: &impl Gate,
        commit: fn(&mut NetworkCore, NodeId),
    ) {
        let c = &mut self.ctl[n as usize];
        if !ready {
            c.stable = 0;
            return;
        }
        c.stable += 1;
        if c.stable >= gate.window(core, n) {
            commit(core, n);
            core.activity.handshake_signals += gate.signals(core, n);
        }
    }

    /// Start waking `n` if it is asleep and the gate permits.
    pub fn wake(&mut self, core: &mut NetworkCore, n: NodeId, gate: &impl Gate) {
        if core.power(n) != PowerState::Sleep || !gate.may_wake(core, n) {
            return;
        }
        core.begin_wakeup(n);
        core.activity.handshake_signals += gate.signals(core, n);
        let c = &mut self.ctl[n as usize];
        c.ramp = core.cfg.wakeup_latency;
        c.stable = 0;
    }

    /// [`PowerFsm::wake`] every router a blocked packet asked to wake (its
    /// destination or next hop is asleep).
    pub fn wake_requested(&mut self, core: &mut NetworkCore, gate: &impl Gate) {
        let mut wake = std::mem::take(&mut self.wake_buf);
        core.take_wakeup_requests(&mut wake);
        for &n in &wake {
            self.wake(core, n, gate);
        }
        self.wake_buf = wake;
    }

    /// Keep `n` from draining before cycle `until`; a drain already in
    /// progress aborts at `n`'s next step.
    pub fn hold(&mut self, n: NodeId, until: Cycle) {
        self.ctl[n as usize].hold_until = until;
    }

    /// The time-skip horizon of [`PowerFsm::step`] on a quiescent fabric
    /// (see `PowerMechanism::next_event`).
    pub fn next_event(&self, core: &NetworkCore, gate: &impl Gate) -> Option<Cycle> {
        let now = core.cycle;
        let mut next: Option<Cycle> = None;
        for n in 0..core.nodes() as NodeId {
            match core.power(n) {
                // Mid-handshake FSMs count stable/ramp cycles every step.
                PowerState::Draining | PowerState::Wakeup => return Some(now),
                PowerState::Active => {
                    // A gate refusal re-arms only through a neighbor
                    // transition or through traffic: a Draining or Wakeup
                    // neighbor already pins the horizon to `now`, a
                    // sleeper cannot change without its own event, and a
                    // quiescent fabric carries no traffic.
                    if core.router_core_active(n) || !gate.may_drain(core, n) {
                        continue;
                    }
                    let c = &self.ctl[n as usize];
                    let t = (core.routers[n as usize].last_local_activity
                        + self.idle_threshold as u64)
                        .max(c.retry_after)
                        .max(c.hold_until)
                        .max(now);
                    next = Some(next.map_or(t, |b| b.min(t)));
                }
                PowerState::Sleep => {
                    // Wake triggers (core reactivation, NIC backlog) arrive
                    // only via stepped events; a sleeper that already wants
                    // to wake is transient — resolve it now.
                    if gate.wants_wake(core, n) {
                        return Some(now);
                    }
                }
            }
        }
        next
    }
}

/// True if a physical neighbor of `n` is Draining. NoRD and Power Punch
/// forbid adjacent simultaneous drains: each would block the other's egress
/// and both would starve.
pub(crate) fn neighbor_draining(core: &NetworkCore, n: NodeId) -> bool {
    Dir::ALL
        .iter()
        .any(|&d| core.neighbor(n, d).is_some_and(|m| core.power(m) == PowerState::Draining))
}

/// Report every pair of physically adjacent Draining routers (each edge
/// once), the breach [`neighbor_draining`] rules out.
pub(crate) fn audit_adjacent_drains(
    core: &NetworkCore,
    name: &str,
    report: &mut dyn FnMut(String),
) {
    for n in 0..core.nodes() as NodeId {
        if core.power(n) != PowerState::Draining {
            continue;
        }
        for d in Dir::ALL {
            if let Some(m) = core.neighbor(n, d) {
                if m > n && core.power(m) == PowerState::Draining {
                    report(format!(
                        "{name} arbitration: adjacent routers {n} and {m} both Draining"
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flov_noc::packet::Packet;
    use flov_noc::NocConfig;

    /// Lets every router drain.
    struct Always;

    impl Gate for Always {
        fn may_drain(&self, _core: &NetworkCore, _n: NodeId) -> bool {
            true
        }
    }

    const N: NodeId = 5;

    /// A 4x4 network where only router `N`'s core is gated, and a
    /// threshold-16 FSM over it.
    fn setup() -> (NetworkCore, PowerFsm) {
        let cfg = NocConfig::small_test();
        let threshold = cfg.idle_threshold;
        assert_eq!(threshold, 16);
        let mut core = NetworkCore::new(cfg);
        core.core_active.fill(true);
        core.core_active[N as usize] = false;
        let fsm = PowerFsm::new(core.nodes(), threshold);
        (core, fsm)
    }

    /// Step the FSM through cycles `from..to`, returning the first cycle
    /// (if any) at which router `N` leaves `state`.
    fn run_until_not(
        core: &mut NetworkCore,
        fsm: &mut PowerFsm,
        from: Cycle,
        to: Cycle,
        state: PowerState,
    ) -> Option<Cycle> {
        for t in from..to {
            core.cycle = t;
            fsm.step(core, &Always);
            if core.power(N) != state {
                return Some(t);
            }
        }
        None
    }

    #[test]
    fn a_stuck_drain_times_out_and_backs_off() {
        let (mut core, mut fsm) = setup();
        // A flit parked in the input buffer: the router can never drain.
        let p = Packet { id: 1, src: 0, dst: N, vnet: 0, len: 1, birth: 0 };
        let port = 1;
        let s = core.routers[N as usize].slot(port, 0);
        core.routers[N as usize].push_flit(port, s, p.flit(0, 0), 0);
        let drain = run_until_not(&mut core, &mut fsm, 0, 100, PowerState::Active);
        assert_eq!(drain, Some(16), "drains once idle for the threshold");
        let abort = run_until_not(&mut core, &mut fsm, 17, 1_000, PowerState::Draining);
        assert_eq!(abort, Some(16 + DRAIN_TIMEOUT + 1), "gives up after the timeout");
        assert_eq!(core.power(N), PowerState::Active);
        let retry = run_until_not(&mut core, &mut fsm, 274, 2_000, PowerState::Active);
        assert_eq!(retry, Some(16 + 5 * DRAIN_TIMEOUT + 1), "retries after four timeouts");
    }

    #[test]
    fn hold_aborts_a_drain_and_defers_the_next() {
        let (mut core, mut fsm) = setup();
        assert_eq!(run_until_not(&mut core, &mut fsm, 0, 100, PowerState::Active), Some(16));
        fsm.hold(N, 100);
        assert_eq!(run_until_not(&mut core, &mut fsm, 17, 100, PowerState::Draining), Some(17));
        assert_eq!(run_until_not(&mut core, &mut fsm, 18, 200, PowerState::Active), Some(100));
    }

    #[test]
    fn next_event_reports_the_retry_and_hold_horizons() {
        let (mut core, mut fsm) = setup();
        core.cycle = 3;
        assert_eq!(fsm.next_event(&core, &Always), Some(16), "idle threshold");
        fsm.ctl[N as usize].retry_after = 300;
        assert_eq!(fsm.next_event(&core, &Always), Some(300), "post-timeout back-off");
        fsm.hold(N, 500);
        assert_eq!(fsm.next_event(&core, &Always), Some(500), "punch hold");
        core.core_active[N as usize] = true;
        assert_eq!(fsm.next_event(&core, &Always), None, "nothing can drain");
    }
}
