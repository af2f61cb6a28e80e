//! Deterministic flit-trace capture and replay.
//!
//! [`RecordingWorkload`] wraps any [`Workload`] and logs everything the
//! simulator can observe from it — the injection stream, the
//! active-core switch events, and the cycles where `update_cores`
//! reported a change (Router Parking reconfigures on that pulse, so it
//! must replay exactly even for inner workloads that return `true`
//! without flipping a bit). A captured [`TraceData`] replays as a
//! [`ScriptedWorkload`] — a pure event script over three sorted cursors
//! with an exact [`Workload::next_event`] horizon — so the time-skip and
//! parallel kernels stay bit-identical to the recorded run.
//!
//! The on-disk container (magic, varint-delta records, trailing
//! CRC-32C) lives in `flov-bench::tracefmt`; this module is the
//! in-memory model plus the replay semantics.

use flov_noc::traits::{PacketRequest, ScriptedWorkload, Workload};
use flov_noc::types::{Cycle, NodeId};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a run's workload did, in simulator-observable terms.
///
/// Recording appends in cycle order, so all three vectors are sorted by
/// cycle; the container's delta encoding relies on that. Replay through
/// [`ScriptedWorkload`] sorts its own copy (stably, so same-cycle record
/// order is preserved).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceData {
    /// Injection stream: `(cycle, request)` per generated packet.
    pub packets: Vec<(Cycle, PacketRequest)>,
    /// Active-core flips: `(cycle, node, now_active)`.
    pub core_events: Vec<(Cycle, NodeId, bool)>,
    /// Cycles where the recorded workload's `update_cores` returned
    /// `true`. Kept separately from `core_events` because the contract
    /// allows a change pulse without an observable bit flip.
    pub changed_cycles: Vec<Cycle>,
}

impl TraceData {
    /// Largest node id referenced anywhere in the trace, if any.
    pub fn max_node(&self) -> Option<NodeId> {
        let pkt = self.packets.iter().map(|(_, r)| r.src.max(r.dst)).max();
        let core = self.core_events.iter().map(|(_, n, _)| *n).max();
        pkt.into_iter().chain(core).max()
    }
}

/// Replay a capture. Open-loop by default (`done` is still meaningful for
/// closed-loop runs: the trace is finished once every scripted event has
/// fired and every packet was delivered).
impl From<TraceData> for ScriptedWorkload {
    fn from(data: TraceData) -> ScriptedWorkload {
        ScriptedWorkload::new(data.packets)
            .with_core_events(data.core_events)
            .with_change_pulses(data.changed_cycles)
    }
}

/// Wraps a live workload and logs its observable behaviour into a shared
/// [`TraceData`]. The wrapper is transparent: it forwards every call and
/// return value unchanged, so a recorded run is bit-identical to an
/// unrecorded one.
pub struct RecordingWorkload {
    inner: Box<dyn Workload>,
    log: Rc<RefCell<TraceData>>,
    /// Active-set snapshot from after the previous `update_cores`, used
    /// to diff out the flip events. Empty until the first call.
    prev_active: Vec<bool>,
}

impl RecordingWorkload {
    pub fn new(inner: Box<dyn Workload>, log: Rc<RefCell<TraceData>>) -> RecordingWorkload {
        RecordingWorkload { inner, log, prev_active: Vec::new() }
    }
}

impl Workload for RecordingWorkload {
    fn update_cores(&mut self, cycle: Cycle, active: &mut [bool]) -> bool {
        if self.prev_active.len() != active.len() {
            // First call: baseline is the pre-call state the simulator
            // handed us (the trace replays on the same initial set).
            self.prev_active = active.to_vec();
        }
        let changed = self.inner.update_cores(cycle, active);
        let mut log = self.log.borrow_mut();
        for (n, (now, prev)) in active.iter().zip(self.prev_active.iter_mut()).enumerate() {
            if *now != *prev {
                log.core_events.push((cycle, n as NodeId, *now));
                *prev = *now;
            }
        }
        if changed {
            log.changed_cycles.push(cycle);
        }
        changed
    }

    fn generate(&mut self, cycle: Cycle, active: &[bool], out: &mut Vec<PacketRequest>) {
        let before = out.len();
        self.inner.generate(cycle, active, out);
        let mut log = self.log.borrow_mut();
        for req in &out[before..] {
            log.packets.push((cycle, *req));
        }
    }

    fn set_feedback(&mut self, delivered: u64, in_flight: u64) {
        self.inner.set_feedback(delivered, in_flight);
    }

    fn done(&self, delivered_packets: u64) -> bool {
        self.inner.done(delivered_packets)
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gating::GatingSchedule;
    use crate::patterns::Pattern;
    use crate::synthetic::SyntheticWorkload;

    fn req(src: NodeId, dst: NodeId) -> PacketRequest {
        PacketRequest { src, dst, vnet: 0, len: 4 }
    }

    /// Drive a workload per-cycle, returning its full observable history.
    fn observe(w: &mut dyn Workload, nodes: usize, cycles: u64) -> TraceData {
        let mut active = vec![true; nodes];
        let mut data = TraceData::default();
        let mut prev = active.clone();
        let mut out = Vec::new();
        for c in 0..cycles {
            if w.update_cores(c, &mut active) {
                data.changed_cycles.push(c);
            }
            for (n, (now, p)) in active.iter().zip(prev.iter_mut()).enumerate() {
                if *now != *p {
                    data.core_events.push((c, n as NodeId, *now));
                    *p = *now;
                }
            }
            out.clear();
            w.generate(c, &active, &mut out);
            for r in &out {
                data.packets.push((c, *r));
            }
        }
        data
    }

    #[test]
    fn recording_is_transparent_and_replay_matches() {
        let gating = GatingSchedule::rerandomized_at(16, 0.4, 11, &[100, 300], &[]);
        let make =
            || SyntheticWorkload::new(4, Pattern::UniformRandom, 0.1, 4, 500, gating.clone(), 77);
        // Ground truth: the bare workload observed per-cycle.
        let truth = observe(&mut make(), 16, 600);

        // Recording run must observe identically AND log the same data.
        let log = Rc::new(RefCell::new(TraceData::default()));
        let mut rec = RecordingWorkload::new(Box::new(make()), Rc::clone(&log));
        let rec_view = observe(&mut rec, 16, 600);
        assert_eq!(rec_view, truth, "recording wrapper perturbed the workload");
        drop(rec);
        let captured = Rc::try_unwrap(log).unwrap().into_inner();
        assert_eq!(captured, truth, "captured trace differs from observed truth");

        // Replay must re-observe the exact same history.
        let replay_view = observe(&mut ScriptedWorkload::from(captured), 16, 600);
        assert_eq!(replay_view, truth, "replay diverged from the recorded run");
    }

    #[test]
    fn replay_changed_pulse_is_authoritative() {
        // A pulse with no bit flip must replay as a pulse.
        let data = TraceData { packets: vec![], core_events: vec![], changed_cycles: vec![7] };
        let mut w = ScriptedWorkload::from(data);
        let mut active = vec![true; 4];
        assert!(!w.update_cores(6, &mut active));
        assert_eq!(w.next_event(6), Some(7));
        assert!(w.update_cores(7, &mut active));
        assert!(!w.update_cores(8, &mut active));
        assert_eq!(w.next_event(8), None);
    }

    #[test]
    fn replay_horizon_tracks_all_three_cursors() {
        let data = TraceData {
            packets: vec![(10, req(0, 1))],
            core_events: vec![(5, 2, false)],
            changed_cycles: vec![5, 20],
        };
        let mut w = ScriptedWorkload::from(data);
        assert_eq!(w.next_event(0), Some(5));
        let mut active = vec![true; 4];
        assert!(w.update_cores(5, &mut active));
        assert!(!active[2]);
        assert_eq!(w.next_event(6), Some(10));
        let mut out = Vec::new();
        w.generate(10, &active, &mut out);
        assert_eq!(out, vec![req(0, 1)]);
        assert_eq!(w.next_event(11), Some(20));
        // Past events clamp to the present, never a past horizon.
        assert_eq!(w.next_event(25), Some(25));
        assert!(w.update_cores(25, &mut active));
        assert_eq!(w.next_event(25), None);
        assert!(!w.done(0));
        assert!(w.done(1));
    }

    #[test]
    fn max_node_spans_packets_and_core_events() {
        assert_eq!(TraceData::default().max_node(), None);
        let data = TraceData {
            packets: vec![(0, req(3, 9))],
            core_events: vec![(1, 12, false)],
            changed_cycles: vec![],
        };
        assert_eq!(data.max_node(), Some(12));
    }
}
