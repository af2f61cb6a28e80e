//! Diagnostics rendering: ASCII views of the mesh power states and
//! link-utilization hotspots. Used by examples, tests and interactive
//! debugging — not by the hot loop.

use crate::network::NetworkCore;
use crate::types::{Coord, Dir, NodeId, PowerState};
use std::fmt::Write as _;

/// One-character glyph for a router power state.
pub fn power_glyph(s: PowerState) -> char {
    match s {
        PowerState::Active => 'A',
        PowerState::Draining => 'd',
        PowerState::Sleep => '.',
        PowerState::Wakeup => 'w',
    }
}

/// Render the mesh power-state map, north row first.
///
/// ```text
/// y=3  A A . A
/// y=2  A . . A
/// y=1  A A d A
/// y=0  A A A A
/// ```
pub fn power_map(core: &NetworkCore) -> String {
    let (kx, ky) = (core.k(), core.ky());
    let mut out = String::new();
    for y in (0..ky).rev() {
        let _ = write!(out, "y={y:<2} ");
        for x in 0..kx {
            let n = Coord::new(x, y).id(kx);
            let mut g = power_glyph(core.power(n));
            if !core.router_core_active(n) && g == 'A' {
                g = 'a'; // powered router, all attached cores gated
            }
            let _ = write!(out, " {g}");
        }
        out.push('\n');
    }
    out
}

/// Summary statistics of directed-link utilization: `(max, mean, gini)`.
/// The Gini coefficient quantifies hotspotting — RP's detour concentration
/// shows up as a higher value than FLOV's.
pub fn link_util_summary(core: &NetworkCore) -> (u64, f64, f64) {
    let mut used: Vec<u64> = Vec::new();
    for n in 0..core.nodes() as NodeId {
        for d in Dir::ALL {
            if core.neighbor(n, d).is_some() {
                used.push(core.link_util[n as usize * 4 + d.index()]);
            }
        }
    }
    let max = used.iter().copied().max().unwrap_or(0);
    let sum: u64 = used.iter().sum();
    let mean = sum as f64 / used.len() as f64;
    // Gini via the sorted-rank formula.
    let mut sorted = used.clone();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let gini = if sum == 0 {
        0.0
    } else {
        let weighted: f64 =
            sorted.iter().enumerate().map(|(i, &v)| (i as f64 + 1.0) * v as f64).sum();
        (2.0 * weighted) / (n * sum as f64) - (n + 1.0) / n
    };
    (max, mean, gini)
}

/// Render the east-going link utilization as a heatmap of digits 0-9
/// normalized to the maximum (coarse hotspot view).
pub fn eastlink_heatmap(core: &NetworkCore) -> String {
    let (kx, ky) = (core.k(), core.ky());
    let (max, _, _) = link_util_summary(core);
    let mut out = String::new();
    for y in (0..ky).rev() {
        let _ = write!(out, "y={y:<2} ");
        for x in 0..kx - 1 {
            let n = Coord::new(x, y).id(kx);
            let u = core.link_util[n as usize * 4 + Dir::East.index()];
            let level = if max == 0 { 0 } else { (u * 9 / max.max(1)) as u32 };
            let _ = write!(out, " {}", char::from_digit(level, 10).unwrap());
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::AlwaysOnYx;
    use crate::config::NocConfig;
    use crate::network::Simulation;
    use crate::traits::{PacketRequest, ScriptedWorkload};

    fn sim_after_traffic() -> Simulation {
        let cfg = NocConfig::small_test();
        let mut events = Vec::new();
        for i in 0..20u64 {
            events.push((i * 5, PacketRequest { src: 0, dst: 15, vnet: 0, len: 4 }));
        }
        let mut sim =
            Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(ScriptedWorkload::new(events)));
        sim.run_until_done(20_000);
        sim
    }

    #[test]
    fn power_map_shows_all_active() {
        let sim = sim_after_traffic();
        let map = power_map(&sim.core);
        assert_eq!(map.lines().count(), 4);
        assert_eq!(map.matches('A').count(), 16);
        assert!(!map.contains('.'));
    }

    #[test]
    fn power_map_distinguishes_states() {
        let cfg = NocConfig::small_test();
        let mut sim =
            Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(crate::traits::SilentWorkload));
        sim.core.begin_drain(5);
        sim.core.core_active[6] = false;
        let map = power_map(&sim.core);
        assert_eq!(map.matches('d').count(), 1);
        assert_eq!(map.matches('a').count(), 1);
    }

    #[test]
    fn link_util_counts_traffic() {
        let sim = sim_after_traffic();
        let (max, mean, gini) = link_util_summary(&sim.core);
        // 20 packets x 4 flits went (0,0)->(3,3) via YX: column 0 north
        // links are hot.
        assert!(max >= 80, "max link util {max}");
        assert!(mean > 0.0);
        // All traffic on one path: highly unequal.
        assert!(gini > 0.5, "gini {gini}");
        let north0 = sim.core.link_util[Dir::North.index()];
        assert_eq!(north0, 80);
    }

    #[test]
    fn heatmap_renders_rows() {
        let sim = sim_after_traffic();
        let hm = eastlink_heatmap(&sim.core);
        assert_eq!(hm.lines().count(), 4);
    }

    #[test]
    fn idle_network_has_zero_gini() {
        let cfg = NocConfig::small_test();
        let sim =
            Simulation::new(cfg, Box::new(AlwaysOnYx), Box::new(crate::traits::SilentWorkload));
        let (max, mean, gini) = link_util_summary(&sim.core);
        assert_eq!(max, 0);
        assert_eq!(mean, 0.0);
        assert_eq!(gini, 0.0);
    }
}
