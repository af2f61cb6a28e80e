//! Property tests for the `Workload::next_event` horizon contract.
//!
//! The time-skip kernels jump the clock across every cycle *strictly
//! before* the workload's reported horizon without calling it. That is
//! only sound if the horizon never overshoots: whenever a workload does
//! anything observable at cycle `c` — flips a core, raises the changed
//! pulse, emits a packet — the horizon it reported *at* `c` must have
//! been exactly `c` (`next_event(now) >= now` by contract, so an
//! overshoot is `> c` or `None`).
//!
//! The oracle drives each workload one cycle at a time (the reference
//! kernel's view), querying `next_event` *before* touching the workload
//! at each cycle, and checks the claim against what actually happened.
//! Synthetic, MMPP/diurnal-modulated, and trace-replay workloads are all
//! put through the same harness.

use flov_noc::traits::{PacketRequest, ScriptedWorkload, Workload};
use flov_workloads::trace::TraceData;
use flov_workloads::{
    Dwell, GatingSchedule, ModulatedWorkload, Pattern, PatternSpace, SyntheticWorkload,
};
use proptest::prelude::*;

/// Drive `w` for `cycles` cycles; panic on any horizon overshoot.
fn check_never_overshoots(mut w: Box<dyn Workload>, nodes: usize, cycles: u64) -> (u64, u64) {
    let mut active = vec![true; nodes];
    let mut out = Vec::new();
    let mut events = 0u64;
    let mut skippable = 0u64;
    for cycle in 0..cycles {
        let horizon = w.next_event(cycle);
        if let Some(h) = horizon {
            assert!(h >= cycle, "next_event({cycle}) returned a past cycle {h}");
        }
        let before = active.clone();
        let changed = w.update_cores(cycle, &mut active);
        out.clear();
        w.generate(cycle, &active, &mut out);
        let observable = changed || !out.is_empty() || active != before;
        if observable {
            events += 1;
            assert_eq!(
                horizon,
                Some(cycle),
                "horizon overshoot: next_event({cycle}) said {horizon:?}, but the \
                 workload acted at {cycle} (changed={changed}, packets={}, flips={})",
                out.len(),
                active.iter().zip(&before).filter(|(a, b)| a != b).count(),
            );
        } else if horizon != Some(cycle) {
            skippable += 1;
        }
    }
    (events, skippable)
}

fn space(k: u16) -> PatternSpace {
    PatternSpace { kx: k, ky: k, c: 1 }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn synthetic_horizon_never_overshoots(
        seed in 0u64..u64::MAX,
        rate_steps in 0u32..30,   // 0.000 .. 0.029 flits/cycle/node
        gated_steps in 0u32..10,
        change in 0u64..2_000,
    ) {
        let k = 4u16;
        let nodes = (k * k) as usize;
        let changes: &[u64] = if change == 0 { &[] } else { &[change] };
        let gating = GatingSchedule::rerandomized_at(
            nodes, gated_steps as f64 / 10.0, seed, changes, &[]);
        let w = SyntheticWorkload::with_space(
            space(k), Pattern::UniformRandom, rate_steps as f64 / 1_000.0,
            4, 2_000, gating, seed ^ 0xABCD);
        check_never_overshoots(Box::new(w), nodes, 2_500);
    }

    #[test]
    fn modulated_horizon_never_overshoots(
        seed in 0u64..u64::MAX,
        quiet_steps in 0u32..3,   // 0.000 .. 0.002 — near-silent phases
        burst_steps in 5u32..40,  // 0.005 .. 0.039
        dwell in 1u64..600,
        fixed in 0u32..2,
    ) {
        let k = 4u16;
        let nodes = (k * k) as usize;
        let gating = GatingSchedule::static_fraction(nodes, 0.3, seed, &[]);
        let rates = vec![quiet_steps as f64 / 1_000.0, burst_steps as f64 / 1_000.0];
        let dwell =
            if fixed == 0 { Dwell::Fixed { cycles: dwell } } else { Dwell::Geometric { mean: dwell } };
        let w = ModulatedWorkload::new(
            space(k), Pattern::UniformRandom, rates, dwell, 4, 2_000, gating, seed);
        let (_, skippable) = check_never_overshoots(Box::new(w), nodes, 2_500);
        // Near-silent phases must actually advertise skippable cycles,
        // or MMPP runs would defeat the time-skip kernel entirely.
        prop_assert!(skippable > 0, "modulated workload never offered a skip window");
    }

    #[test]
    fn trace_horizon_never_overshoots(
        seed in 0u64..u64::MAX,
        n_packets in 0usize..60,
        n_core in 0usize..20,
        n_changed in 0usize..10,
        span in 100u64..2_000,
    ) {
        // Deterministic pseudo-random trace content from the seed (the
        // shim's proptest collections would do, but a splitmix keeps the
        // inputs compact and shrinkable by count).
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let nodes = 16usize;
        let mut data = TraceData::default();
        for _ in 0..n_packets {
            let src = (next() % nodes as u64) as u16;
            let dst = (next() % nodes as u64) as u16;
            data.packets.push((next() % span, PacketRequest {
                src, dst, vnet: (next() % 3) as u8, len: 1 + (next() % 8) as u16,
            }));
        }
        for _ in 0..n_core {
            data.core_events.push((next() % span, (next() % nodes as u64) as u16, next() % 2 == 0));
        }
        for _ in 0..n_changed {
            data.changed_cycles.push(next() % span);
        }
        let w = ScriptedWorkload::from(data);
        let (events, _) = check_never_overshoots(Box::new(w), nodes, span + 50);
        // Sanity: a non-empty trace must produce observable activity.
        if n_packets + n_core + n_changed > 0 {
            prop_assert!(events > 0, "trace produced no observable events");
        }
    }
}
