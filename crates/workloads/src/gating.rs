//! Core power-gating scenarios: which cores the OS has turned off, and when.
//!
//! The paper's synthetic sweeps gate a fixed fraction of randomly chosen
//! cores; the reconfiguration-overhead experiment (Fig. 10) changes the
//! gated set at fixed points in time.

use flov_noc::rng::Rng;
use flov_noc::types::{Cycle, NodeId};

/// A time-indexed schedule of core-gating changes.
#[derive(Clone, Debug, Default)]
pub struct GatingSchedule {
    /// Sorted events: at `cycle`, the set of *gated* cores becomes exactly
    /// the given list.
    events: Vec<(Cycle, Vec<NodeId>)>,
    next: usize,
}

impl GatingSchedule {
    /// No gating at all.
    pub fn none() -> GatingSchedule {
        GatingSchedule::default()
    }

    /// Gate `fraction` of the `nodes` cores from cycle 0, chosen uniformly
    /// at random with `seed`. `protected` nodes are never gated (e.g.
    /// memory controllers).
    pub fn static_fraction(
        nodes: usize,
        fraction: f64,
        seed: u64,
        protected: &[NodeId],
    ) -> GatingSchedule {
        let gated = Self::pick(nodes, fraction, &mut Rng::new(seed), protected);
        GatingSchedule { events: vec![(0, gated)], next: 0 }
    }

    /// Re-randomize the gated set (same fraction) at each of the given
    /// cycles — the Fig. 10 scenario uses changes at 50k and 60k cycles.
    pub fn rerandomized_at(
        nodes: usize,
        fraction: f64,
        seed: u64,
        changes: &[Cycle],
        protected: &[NodeId],
    ) -> GatingSchedule {
        let mut rng = Rng::new(seed);
        let mut events = vec![(0, Self::pick(nodes, fraction, &mut rng, protected))];
        for &c in changes {
            events.push((c, Self::pick(nodes, fraction, &mut rng, protected)));
        }
        events.sort_by_key(|e| e.0);
        GatingSchedule { events, next: 0 }
    }

    /// Explicit schedule.
    pub fn explicit(mut events: Vec<(Cycle, Vec<NodeId>)>) -> GatingSchedule {
        events.sort_by_key(|e| e.0);
        GatingSchedule { events, next: 0 }
    }

    fn pick(nodes: usize, fraction: f64, rng: &mut Rng, protected: &[NodeId]) -> Vec<NodeId> {
        let mut candidates: Vec<NodeId> =
            (0..nodes as NodeId).filter(|n| !protected.contains(n)).collect();
        rng.shuffle(&mut candidates);
        let count = ((nodes as f64 * fraction).round() as usize).min(candidates.len());
        let mut gated: Vec<NodeId> = candidates[..count].to_vec();
        gated.sort_unstable();
        gated
    }

    /// Apply due events to `active`. Returns true if anything changed.
    pub fn apply(&mut self, cycle: Cycle, active: &mut [bool]) -> bool {
        let mut changed = false;
        while self.next < self.events.len() && self.events[self.next].0 <= cycle {
            let gated = &self.events[self.next].1;
            for (n, a) in active.iter_mut().enumerate() {
                let want = !gated.contains(&(n as NodeId));
                if *a != want {
                    *a = want;
                    changed = true;
                }
            }
            self.next += 1;
        }
        changed
    }

    /// Cycle of the next unapplied event, if any — the schedule's
    /// contribution to the workload's next-event horizon: the clock must
    /// not jump past it.
    pub fn next_change(&self) -> Option<Cycle> {
        self.events.get(self.next).map(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_fraction_gates_requested_count() {
        let mut s = GatingSchedule::static_fraction(64, 0.5, 42, &[]);
        let mut active = vec![true; 64];
        assert!(s.apply(0, &mut active));
        assert_eq!(active.iter().filter(|&&a| !a).count(), 32);
    }

    #[test]
    fn protected_nodes_stay_active() {
        let protected = [0u16, 7, 56, 63];
        let mut s = GatingSchedule::static_fraction(64, 0.8, 7, &protected);
        let mut active = vec![true; 64];
        s.apply(0, &mut active);
        for &p in &protected {
            assert!(active[p as usize], "protected node {p} gated");
        }
        assert_eq!(active.iter().filter(|&&a| !a).count(), 51); // round(51.2)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let pick = |seed| {
            let mut s = GatingSchedule::static_fraction(64, 0.3, seed, &[]);
            let mut a = vec![true; 64];
            s.apply(0, &mut a);
            a
        };
        assert_eq!(pick(1), pick(1));
        assert_ne!(pick(1), pick(2));
    }

    #[test]
    fn rerandomized_changes_apply_at_cycles() {
        let mut s = GatingSchedule::rerandomized_at(16, 0.25, 9, &[500, 900], &[]);
        let mut a = vec![true; 16];
        s.apply(0, &mut a);
        let first = a.clone();
        assert!(!s.apply(499, &mut a));
        assert_eq!(a, first);
        s.apply(500, &mut a);
        assert_eq!(a.iter().filter(|&&x| !x).count(), 4);
        s.apply(900, &mut a);
        assert_eq!(a.iter().filter(|&&x| !x).count(), 4);
    }

    #[test]
    fn next_change_tracks_unapplied_events() {
        let mut s = GatingSchedule::rerandomized_at(16, 0.25, 9, &[500, 900], &[]);
        let mut a = vec![true; 16];
        assert_eq!(s.next_change(), Some(0));
        s.apply(0, &mut a);
        assert_eq!(s.next_change(), Some(500));
        s.apply(499, &mut a);
        assert_eq!(s.next_change(), Some(500));
        s.apply(500, &mut a);
        assert_eq!(s.next_change(), Some(900));
        s.apply(900, &mut a);
        assert_eq!(s.next_change(), None);
        assert_eq!(GatingSchedule::none().next_change(), None);
    }

    #[test]
    fn zero_fraction_gates_nothing() {
        let mut s = GatingSchedule::static_fraction(64, 0.0, 1, &[]);
        let mut a = vec![true; 64];
        assert!(!s.apply(0, &mut a));
        assert!(a.iter().all(|&x| x));
    }
}
