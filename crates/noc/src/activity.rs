//! Activity counters: the raw event counts the power model converts into
//! dynamic energy, plus per-router powered/gated residency for leakage.
//!
//! The simulator increments these in the hot loop; they are plain integers
//! (no allocation, no floating point) and are read once at the end of a run.

use serde::{Deserialize, Serialize};

/// Per-run activity totals, aggregated over all routers and links.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityCounters {
    /// Flits written into input VC buffers.
    pub buffer_writes: u64,
    /// Flits read out of input VC buffers (switch traversal).
    pub buffer_reads: u64,
    /// Crossbar traversals (one per flit per powered router hop).
    pub xbar_traversals: u64,
    /// Switch-allocator arbitration operations (granted requests).
    pub sa_grants: u64,
    /// VC-allocator grants.
    pub va_grants: u64,
    /// Flit traversals of inter-router links (plus ejection links).
    pub link_flits: u64,
    /// Flit traversals of FLOV latches in power-gated routers.
    pub flov_latch_flits: u64,
    /// Flit hops on the NoRD bypass ring.
    pub ring_flits: u64,
    /// Credit messages carried on reverse wires.
    pub credit_msgs: u64,
    /// Credit messages relayed through sleeping routers.
    pub credit_relays: u64,
    /// Handshake signal transmissions (HSC wires), including relays.
    pub handshake_signals: u64,
    /// Power-gating transitions (each costs the 17.7 pJ overhead of Table I):
    /// counted once on every sleep entry and once on every wakeup completion.
    pub gating_events: u64,
    /// Packets injected into the network.
    pub packets_injected: u64,
    /// Flits injected into the network.
    pub flits_injected: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Flits delivered.
    pub flits_delivered: u64,
}

impl ActivityCounters {
    /// Combine two counter sets field by field with `op`. Written as a
    /// struct literal, so a counter added to the struct but not here fails
    /// to compile.
    fn zip_with(&self, other: &ActivityCounters, op: impl Fn(u64, u64) -> u64) -> ActivityCounters {
        ActivityCounters {
            buffer_writes: op(self.buffer_writes, other.buffer_writes),
            buffer_reads: op(self.buffer_reads, other.buffer_reads),
            xbar_traversals: op(self.xbar_traversals, other.xbar_traversals),
            sa_grants: op(self.sa_grants, other.sa_grants),
            va_grants: op(self.va_grants, other.va_grants),
            link_flits: op(self.link_flits, other.link_flits),
            flov_latch_flits: op(self.flov_latch_flits, other.flov_latch_flits),
            ring_flits: op(self.ring_flits, other.ring_flits),
            credit_msgs: op(self.credit_msgs, other.credit_msgs),
            credit_relays: op(self.credit_relays, other.credit_relays),
            handshake_signals: op(self.handshake_signals, other.handshake_signals),
            gating_events: op(self.gating_events, other.gating_events),
            packets_injected: op(self.packets_injected, other.packets_injected),
            flits_injected: op(self.flits_injected, other.flits_injected),
            packets_delivered: op(self.packets_delivered, other.packets_delivered),
            flits_delivered: op(self.flits_delivered, other.flits_delivered),
        }
    }

    /// Element-wise difference, for measuring a window (e.g. post-warmup).
    pub fn delta_since(&self, earlier: &ActivityCounters) -> ActivityCounters {
        self.zip_with(earlier, |now, then| now - then)
    }

    /// Element-wise sum, for merging per-tile counters.
    pub(crate) fn accumulate(&mut self, other: &ActivityCounters) {
        *self = self.zip_with(other, |a, b| a + b);
    }
}

/// Per-router residency in each power condition, in cycles.
/// Leakage is weighted by these: a powered router leaks fully; a gated
/// router leaks only through its (active) FLOV latches and the always-on
/// handshake logic.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Residency {
    /// Cycles with the baseline datapath powered (Active or Draining).
    pub powered: u64,
    /// Cycles power-gated with FLOV latches live (Sleep or Wakeup ramp).
    pub gated: u64,
}

impl Residency {
    #[inline]
    pub fn total(&self) -> u64 {
        self.powered + self.gated
    }

    /// Fraction of time powered; 1.0 for an empty window (no gating evidence).
    pub fn powered_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            1.0
        } else {
            self.powered as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counters whose `i`-th field (1-based, in declaration order) is
    /// `f(i)`: every field distinct, so a combinator that crosses two
    /// fields changes the result.
    fn counters(f: impl Fn(u64) -> u64) -> ActivityCounters {
        let mut i = 0;
        let mut next = || {
            i += 1;
            f(i)
        };
        ActivityCounters {
            buffer_writes: next(),
            buffer_reads: next(),
            xbar_traversals: next(),
            sa_grants: next(),
            va_grants: next(),
            link_flits: next(),
            flov_latch_flits: next(),
            ring_flits: next(),
            credit_msgs: next(),
            credit_relays: next(),
            handshake_signals: next(),
            gating_events: next(),
            packets_injected: next(),
            flits_injected: next(),
            packets_delivered: next(),
            flits_delivered: next(),
        }
    }

    #[test]
    fn sum_and_difference_combine_every_field_with_its_own() {
        let (small, large) = (counters(|i| i), counters(|i| 100 * i));
        let mut sum = large.clone();
        sum.accumulate(&small);
        assert_eq!(sum, counters(|i| 101 * i));
        assert_eq!(large.delta_since(&small), counters(|i| 99 * i));
    }

    #[test]
    fn residency_fraction() {
        let r = Residency { powered: 75, gated: 25 };
        assert!((r.powered_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(r.total(), 100);
        assert_eq!(Residency::default().powered_fraction(), 1.0);
    }
}
