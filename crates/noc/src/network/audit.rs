//! Release-capable invariant auditor.
//!
//! The datapath's conservation laws are asserted inline with
//! `debug_assert!`, which compiles away in the `--release` builds every
//! figure is generated with. The [`Auditor`] re-checks the *global*
//! invariants over a [`NetworkCore`] snapshot every `interval` cycles, in
//! any build profile, and reports failures as structured
//! [`AuditViolation`]s instead of panicking — so a fuzzer (or a long
//! production sweep) can collect, minimize and replay them.
//!
//! Checked invariants (see DESIGN.md §4c for the full table):
//!
//! 1. **Flit conservation** — every flit ever injected is either still
//!    resident in the fabric ([`NetworkCore::flits_in_network`]: buffers,
//!    latches, wires, ejection, ring) or has been delivered:
//!    `flits_injected == flits_delivered + flits_in_network()`.
//! 2. **Credit conservation** — for every powered router, output
//!    direction and VC, the credit counter equals the audited ground
//!    truth `free slots at the logical downstream owner − flits in
//!    flight toward it − credits in flight back` (the invariant the
//!    power-transition re-seeding maintains; [`NetworkCore::audit_credits`]).
//!    Chains whose logical owner is mid-[`PowerState::Wakeup`](crate::types::PowerState::Wakeup) and chains
//!    that dead-end at the mesh edge are skipped: their counters are
//!    transitional (re-seeded on wakeup completion / zeroed and unused).
//! 3. **Gated residency** — a power-gated router (Sleep/Wakeup) may hold
//!    flits only in its FLOV latches: input buffers empty, no output VC
//!    allocated.
//! 4. **Ring conservation** — per bypass-ring edge and VC, credits plus
//!    buffered plus in-flight flits equal the ring buffer depth
//!    ([`crate::ring::BypassRing::audit`]).
//! 5. **State legality** — mechanism-specific power/handshake rules via
//!    [`PowerMechanism::audit_state`] (rFLOV adjacency, gFLOV handshake
//!    pairs, RP's two-state discipline, ...), plus each router's own
//!    invariants via [`Router::audit`](crate::router::Router::audit) (in
//!    a powered router the two masks that mirror per-VC state and the
//!    route inputs each VC caches from its front head flit, and in every
//!    router the ring-pool leases), filed under the router's name, and the
//!    wheel's per-link in-flight flit counts against a scan of its slots.
//! 6. **No progress** — with packets in flight, *something* must move
//!    within `stall_horizon` cycles: a delivery-path event
//!    (`last_progress`), any churn in the escape sub-network (the
//!    deadlock-recovery lane, tracked by an occupancy digest), or any
//!    change at a NIC's injection frontier (a new head packet or
//!    serialization progress counts as movement — a mechanism legitimately
//!    holding traffic at the source, like RP's Phase-I stall, is not a
//!    stalled network; packets enqueued behind a stuck head are not
//!    movement). This is the release-mode, non-panicking form of the step
//!    watchdog.
//!
//! The auditor is read-only: attaching it never changes simulation
//! results, so differential (two-kernel) runs stay bit-identical with
//! auditing on.

use super::NetworkCore;
use crate::traits::PowerMechanism;
use crate::types::{Cycle, Dir, Port};

/// Default audit cadence, in cycles. At this interval the audit cost is
/// amortized to a few chain walks per simulated cycle — well under the
/// 10% overhead budget even on a saturated 8×8 mesh.
pub const DEFAULT_AUDIT_INTERVAL: Cycle = 1024;

/// Which invariant a violation breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditKind {
    FlitConservation,
    CreditConservation,
    GatedResidency,
    RingConservation,
    StateLegality,
    NoProgress,
}

impl AuditKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            AuditKind::FlitConservation => "flit-conservation",
            AuditKind::CreditConservation => "credit-conservation",
            AuditKind::GatedResidency => "gated-residency",
            AuditKind::RingConservation => "ring-conservation",
            AuditKind::StateLegality => "state-legality",
            AuditKind::NoProgress => "no-progress",
        }
    }
}

/// One invariant failure, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    pub cycle: Cycle,
    pub kind: AuditKind,
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cycle {}: [{}] {}", self.cycle, self.kind.as_str(), self.detail)
    }
}

/// Periodic global-invariant checker; see the module docs.
pub struct Auditor {
    /// Cycles between checks.
    pub interval: Cycle,
    /// Stop recording after this many violations (the first few are the
    /// informative ones; a broken invariant usually fails everywhere).
    pub max_violations: usize,
    /// No-progress threshold; 0 disables the check (mirrors
    /// `NocConfig::watchdog_cycles == 0`).
    pub stall_horizon: Cycle,
    next_due: Cycle,
    checks: u64,
    violations: Vec<AuditViolation>,
    suppressed: u64,
    escape_digest: u64,
    escape_move: Cycle,
    stall_reported: bool,
}

impl Auditor {
    /// Auditor at the default interval; the no-progress horizon is taken
    /// from `watchdog_cycles` (same semantics as the panicking watchdog,
    /// which an attached auditor replaces).
    pub fn new(watchdog_cycles: Cycle) -> Auditor {
        Auditor::with_interval(DEFAULT_AUDIT_INTERVAL, watchdog_cycles)
    }

    pub fn with_interval(interval: Cycle, watchdog_cycles: Cycle) -> Auditor {
        Auditor {
            interval: interval.max(1),
            max_violations: 64,
            stall_horizon: watchdog_cycles,
            next_due: 0,
            checks: 0,
            violations: Vec::new(),
            suppressed: 0,
            escape_digest: 0,
            escape_move: 0,
            stall_reported: false,
        }
    }

    /// True when the next step boundary should run a check.
    #[inline]
    pub fn due(&self, cycle: Cycle) -> bool {
        cycle >= self.next_due
    }

    /// Checks performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations recorded so far (capped at `max_violations`).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Violations found beyond the recording cap.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// True if no invariant has failed yet.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Drain the recorded violations.
    pub fn take_violations(&mut self) -> Vec<AuditViolation> {
        std::mem::take(&mut self.violations)
    }

    fn push(&mut self, cycle: Cycle, kind: AuditKind, detail: String) {
        if self.violations.len() < self.max_violations {
            self.violations.push(AuditViolation { cycle, kind, detail });
        } else {
            self.suppressed += 1;
        }
    }

    /// Run every check against the current (between-steps) core state.
    /// Called by `Simulation::step` when [`Auditor::due`]; callable
    /// directly from tests at any step boundary.
    pub fn check(&mut self, core: &NetworkCore, mech: &dyn PowerMechanism) {
        let cycle = core.cycle;
        self.next_due = cycle + self.interval;
        self.checks += 1;
        self.check_flit_conservation(core);
        self.check_credit_conservation(core);
        self.check_gated_residency(core);
        self.check_ring(core);
        self.check_state_legality(core, mech);
        self.check_progress(core);
    }

    fn check_flit_conservation(&mut self, core: &NetworkCore) {
        let injected = core.activity.flits_injected;
        let delivered = core.activity.flits_delivered;
        let resident = core.flits_in_network();
        if injected != delivered + resident {
            self.push(
                core.cycle,
                AuditKind::FlitConservation,
                format!(
                    "flits_injected {injected} != flits_delivered {delivered} + resident \
                     {resident} (leak of {})",
                    injected as i128 - (delivered + resident) as i128
                ),
            );
        }
    }

    fn check_credit_conservation(&mut self, core: &NetworkCore) {
        let per = core.cfg.vcs_per_vnet();
        // In-flight flits and credits per (link, VC), from one scan of the
        // wheel instead of one per audited VC and hop.
        let total = core.cfg.total_vcs();
        let at = |e: u32, vnet: u8, vc: u8| {
            e as usize * total + core.cfg.vc_index(vnet as usize, vc as usize)
        };
        let mut flits = vec![0usize; core.nodes() * 4 * total];
        let mut credits = vec![0usize; core.nodes() * 4 * total];
        for slot in core.wheel.iter_slots() {
            for &(e, f) in &slot.flits {
                flits[at(e, f.vnet, f.vc)] += 1;
            }
            for &(e, c) in &slot.credits {
                credits[at(e, c.vnet, c.vc)] += 1;
            }
        }
        for u in 0..core.nodes() {
            let u = u as crate::types::NodeId;
            if !core.power(u).is_powered() {
                continue;
            }
            for d in Dir::ALL {
                if core.neighbor(u, d).is_none() {
                    continue;
                }
                // The counter's owner is the logical downstream: the
                // nearest non-sleeping router, flying over gated ones.
                // A Wakeup owner means the chain's counters are being
                // re-seeded; a dead-end chain (all sleepers to the mesh
                // edge) has zeroed, unused counters. Both are skipped.
                let Some((owner, _)) = core.logical_neighbor(u, d) else { continue };
                if !core.power(owner).is_powered() {
                    continue;
                }
                let port = Port::from_dir(d);
                let r = &core.routers[u as usize];
                for flat in 0..core.cfg.total_vcs() {
                    let (vnet, vc) = (flat / per, flat % per);
                    let have = r.out_credits[r.slot(port.index(), flat)].available();
                    let expect = core.audit_credits_by(u, owner, d, vnet, vc, |fl, cl| {
                        flits[fl * total + flat] + credits[cl * total + flat]
                    });
                    if have != expect {
                        self.push(
                            core.cycle,
                            AuditKind::CreditConservation,
                            format!(
                                "router {u} {d:?} vnet {vnet} vc {vc}: counter {have} but audit \
                                 of chain to owner {owner} gives {expect}"
                            ),
                        );
                    }
                }
            }
        }
    }

    fn check_gated_residency(&mut self, core: &NetworkCore) {
        for (i, r) in core.routers.iter().enumerate() {
            if !r.power.is_flov() {
                continue;
            }
            if r.buffered_flits() != 0 || !r.is_drained() {
                self.push(
                    core.cycle,
                    AuditKind::GatedResidency,
                    format!(
                        "router {i} is {:?} with {} buffered flit(s) (drained: {}) — gated \
                         routers may hold flits only in FLOV latches",
                        r.power,
                        r.buffered_flits(),
                        r.is_drained()
                    ),
                );
            }
        }
    }

    fn check_ring(&mut self, core: &NetworkCore) {
        let Some(ring) = &core.ring else { return };
        let cycle = core.cycle;
        let mut found: Vec<String> = Vec::new();
        ring.audit(&mut |msg| found.push(msg));
        for msg in found {
            self.push(cycle, AuditKind::RingConservation, msg);
        }
    }

    fn check_state_legality(&mut self, core: &NetworkCore, mech: &dyn PowerMechanism) {
        let mut found: Vec<String> = Vec::new();
        mech.audit_state(core, &mut |msg| found.push(msg));
        for (i, r) in core.routers.iter().enumerate() {
            r.audit(&mut |msg| found.push(format!("router {i}{msg}")));
        }
        for msg in found {
            self.push(core.cycle, AuditKind::StateLegality, msg);
        }
        self.check_wire_counts(core);
    }

    /// The wheel's per-link flit counts, which quiescence checks read in
    /// place of a scan, must equal a scan of its slots.
    fn check_wire_counts(&mut self, core: &NetworkCore) {
        let counts = core.wheel.wire_flits();
        let mut scan = vec![0u32; counts.len()];
        for slot in core.wheel.iter_slots() {
            for &(e, _) in &slot.flits {
                scan[e as usize] += 1;
            }
        }
        for (e, (&have, &want)) in counts.iter().zip(&scan).enumerate() {
            if have != want {
                self.push(
                    core.cycle,
                    AuditKind::StateLegality,
                    format!("link {e}: in-flight count {have} but the wheel holds {want} flits"),
                );
            }
        }
    }

    /// Digest of the escape sub-network's occupancy: per escape VC, the
    /// buffer length and front flit identity, plus per-link in-flight
    /// escape counts from the wheel, plus per-NIC injection frontier (head
    /// packet identity/age, serialization progress). Any change means the
    /// deadlock-recovery lane — or the injection frontier — moved. Queue
    /// length is deliberately left out: an open-loop workload keeps
    /// enqueueing behind a stuck head, which is not movement.
    /// With no escape VCs configured (PowerPunch), every VC participates,
    /// so the digest degrades to "any buffered flit moved".
    ///
    /// The NIC terms matter for mechanisms that legitimately hold traffic
    /// at the source: Router Parking's Phase-I reconfiguration stall parks
    /// whole packets in NIC queues with *zero* flits resident, and a run
    /// whose fabric never carried a flit has `last_progress == 0` — the
    /// stall clock would then measure from cycle 0 and report a
    /// no-progress violation seconds after the first packet was enqueued.
    /// Counting a new head (the first enqueue into an empty queue, or a
    /// departure) and serialization advances as movement bounds the
    /// no-progress clock to *actual* frozen-network time.
    fn escape_occupancy_digest(core: &NetworkCore) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(0x100000001b3);
        };
        let per = core.cfg.vcs_per_vnet();
        let track_all = core.cfg.escape_vcs == 0;
        for (i, r) in core.routers.iter().enumerate() {
            for slot in 0..r.total_vcs() * crate::types::NUM_PORTS {
                let vc_in_vnet = (slot % r.total_vcs()) % per;
                if !track_all && !core.cfg.is_escape_vc(vc_in_vnet) {
                    continue;
                }
                let Some(f) = r.front(slot) else { continue };
                mix(i as u64);
                mix(slot as u64);
                mix(r.inputs[slot].len() as u64);
                mix(f.packet);
                mix(f.flit_idx as u64);
            }
        }
        // In-flight escape flits per (link, vnet, vc), in that order.
        let mut wire: Vec<(u32, u8, u8)> = core
            .wheel
            .iter_slots()
            .flat_map(|s| s.flits.iter())
            .filter(|(_, f)| track_all || core.cfg.is_escape_vc(f.vc as usize))
            .map(|&(e, f)| (e, f.vnet, f.vc))
            .collect();
        wire.sort_unstable();
        for run in wire.chunk_by(|a, b| a == b) {
            let (e, vnet, vc) = run[0];
            mix(e as u64);
            mix(vnet as u64);
            mix(vc as u64);
            mix(run.len() as u64);
        }
        for (i, nic) in core.nics.iter().enumerate() {
            for (vn, q) in nic.queues.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                mix(0x4e49_4351 ^ i as u64); // "NICQ" domain tag
                mix(vn as u64);
                if let Some(p) = q.front() {
                    mix(p.id);
                    mix(p.birth);
                }
            }
            for (vn, st) in nic.in_progress.iter().enumerate() {
                if let Some(st) = st {
                    mix(0x4e49_4350 ^ i as u64); // "NICP" domain tag
                    mix(vn as u64);
                    mix(st.pkt.id);
                    mix(st.next as u64);
                }
            }
        }
        h
    }

    fn check_progress(&mut self, core: &NetworkCore) {
        if self.stall_horizon == 0 {
            return;
        }
        let digest = Self::escape_occupancy_digest(core);
        if digest != self.escape_digest {
            self.escape_digest = digest;
            self.escape_move = core.cycle;
        }
        let progressed = core.last_progress.max(self.escape_move);
        if core.in_flight_packets > 0 && core.cycle - progressed > self.stall_horizon {
            if !self.stall_reported {
                self.stall_reported = true;
                // Locate the stuck flits (first few occupied buffers) so a
                // repro's detail line already points at the blocked spot.
                let mut stuck: Vec<String> = Vec::new();
                let mut note = |s: String| {
                    if stuck.len() < 8 {
                        stuck.push(s);
                    }
                };
                for (i, r) in core.routers.iter().enumerate() {
                    for slot in 0..r.total_vcs() * crate::types::NUM_PORTS {
                        if let Some(f) = r.front(slot) {
                            note(format!(
                                "router {i} slot {slot}: packet {} flit {} -> node {} \
                                 (escape: {})",
                                f.packet, f.flit_idx, f.dst, f.escape
                            ));
                        }
                    }
                    for (l, f) in r.latches.iter().enumerate() {
                        if let Some((_, f)) = f {
                            note(format!(
                                "latch {i}/{l}: packet {} flit {} -> node {}",
                                f.packet, f.flit_idx, f.dst
                            ));
                        }
                    }
                }
                for &(e, f) in core.wheel.iter_slots().flat_map(|s| s.flits.iter()) {
                    note(format!(
                        "link {e} wire: packet {} flit {} -> node {}",
                        f.packet, f.flit_idx, f.dst
                    ));
                }
                for (i, q) in core.ring_transfer.iter().enumerate() {
                    if let Some(f) = q.front() {
                        note(format!(
                            "ring-transfer {i} ({} queued): packet {} flit {} -> node {}",
                            q.len(),
                            f.packet,
                            f.flit_idx,
                            f.dst
                        ));
                    }
                }
                for (i, stage) in core.ring_stage.iter().enumerate() {
                    for (pkt, fs) in stage {
                        note(format!("ring-stage {i}: packet {pkt} ({} flits held)", fs.len()));
                    }
                }
                if let Some(ring) = core.ring.as_ref() {
                    if ring.flits_in_ring() > 0 {
                        note(format!("bypass ring: {} flits circulating", ring.flits_in_ring()));
                    }
                }
                for (i, nic) in core.nics.iter().enumerate() {
                    for (vn, q) in nic.queues.iter().enumerate() {
                        if let Some(p) = q.front() {
                            note(format!(
                                "nic {i} vnet {vn} ({} queued): packet {} -> node {} (born {})",
                                q.len(),
                                p.id,
                                p.dst,
                                p.birth
                            ));
                        }
                    }
                    for (vn, st) in nic.in_progress.iter().enumerate() {
                        if let Some(st) = st {
                            note(format!(
                                "nic {i} vnet {vn} serializing: packet {} at flit {}/{}",
                                st.pkt.id, st.next, st.pkt.len
                            ));
                        }
                    }
                }
                self.push(
                    core.cycle,
                    AuditKind::NoProgress,
                    format!(
                        "no delivery-path progress and no escape-VC or NIC-head movement for {} \
                         cycles with {} packet(s) in flight ({} flits resident); stuck at [{}]; \
                         power states: {:?}",
                        core.cycle - progressed,
                        core.in_flight_packets,
                        core.flits_in_network(),
                        stuck.join(", "),
                        core.routers.iter().map(|r| r.power).collect::<Vec<_>>()
                    ),
                );
            }
        } else {
            self.stall_reported = false;
        }
    }
}
