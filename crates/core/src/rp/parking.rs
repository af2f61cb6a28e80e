//! Parking-set selection: which routers the Fabric Manager turns off.
//!
//! Candidates are routers whose core is gated (and which no pending traffic
//! needs). Aggressive mode parks as many as connectivity allows — the
//! configuration the paper compares static power against. Spread mode
//! additionally refuses to park a router next to an already-parked one,
//! which caps detour length; the adaptive policy (paper: RP "dynamically
//! decides whether to conservatively or aggressively power-gate") switches
//! to it under high load.

use flov_noc::topology::grid_neighbor;
use flov_noc::types::{Dir, NodeId};
use std::collections::VecDeque;

/// Parking aggressiveness for one reconfiguration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParkPolicy {
    /// Park every candidate that keeps the active subgraph connected.
    Aggressive,
    /// Additionally require no physically adjacent parked router.
    Spread,
}

/// True if all `keep` nodes are mutually reachable over non-parked routers.
fn keeps_connected(kx: u16, ky: u16, parked: &[bool], keep: &[bool]) -> bool {
    let n = (kx as usize) * (ky as usize);
    let Some(start) = (0..n).find(|&i| keep[i]) else { return true };
    let mut seen = vec![false; n];
    let mut q = VecDeque::new();
    seen[start] = true;
    q.push_back(start as NodeId);
    while let Some(cur) = q.pop_front() {
        for d in Dir::ALL {
            if let Some(m) = grid_neighbor(cur, d, kx, ky) {
                if !parked[m as usize] && !seen[m as usize] {
                    seen[m as usize] = true;
                    q.push_back(m);
                }
            }
        }
    }
    keep.iter().enumerate().all(|(i, &kp)| !kp || seen[i])
}

/// Select the parked set. `keep[n]` marks routers that must stay on (active
/// cores, pending traffic endpoints). Deterministic: candidates are
/// considered in ascending id order.
pub fn select_parked(kx: u16, ky: u16, keep: &[bool], policy: ParkPolicy) -> Vec<bool> {
    let n = (kx as usize) * (ky as usize);
    debug_assert_eq!(keep.len(), n);
    let mut parked = vec![false; n];
    for cand in 0..n {
        if keep[cand] {
            continue;
        }
        if policy == ParkPolicy::Spread {
            let adjacent_parked = Dir::ALL.iter().any(|&d| {
                grid_neighbor(cand as NodeId, d, kx, ky).is_some_and(|m| parked[m as usize])
            });
            if adjacent_parked {
                continue;
            }
        }
        parked[cand] = true;
        if !keeps_connected(kx, ky, &parked, keep) {
            parked[cand] = false;
        }
    }
    parked
}

#[cfg(test)]
mod tests {
    use super::*;
    use flov_noc::types::Coord;

    fn count(v: &[bool]) -> usize {
        v.iter().filter(|&&b| b).count()
    }

    #[test]
    fn nothing_parked_when_all_kept() {
        let keep = vec![true; 16];
        let parked = select_parked(4, 4, &keep, ParkPolicy::Aggressive);
        assert_eq!(count(&parked), 0);
    }

    #[test]
    fn everything_parked_when_nothing_kept() {
        let keep = vec![false; 16];
        let parked = select_parked(4, 4, &keep, ParkPolicy::Aggressive);
        assert_eq!(count(&parked), 16);
    }

    #[test]
    fn aggressive_preserves_connectivity() {
        // Keep the four corners of a 4x4: a connected path must survive.
        let mut keep = vec![false; 16];
        for n in [0usize, 3, 12, 15] {
            keep[n] = true;
        }
        let parked = select_parked(4, 4, &keep, ParkPolicy::Aggressive);
        assert!(keeps_connected(4, 4, &parked, &keep));
        for n in [0usize, 3, 12, 15] {
            assert!(!parked[n]);
        }
        // Aggressive parks a good number of the 12 candidates.
        assert!(count(&parked) >= 6, "only {} parked", count(&parked));
    }

    #[test]
    fn spread_never_parks_adjacent_pairs() {
        let keep = vec![false; 64];
        let parked = select_parked(8, 8, &keep, ParkPolicy::Spread);
        for n in 0..64u16 {
            if !parked[n as usize] {
                continue;
            }
            let c = Coord::of(n, 8);
            for d in Dir::ALL {
                if let Some(m) = c.neighbor(d, 8) {
                    assert!(!parked[m.id(8) as usize], "adjacent parked pair");
                }
            }
        }
        assert!(count(&parked) > 0);
    }

    #[test]
    fn spread_parks_fewer_than_aggressive() {
        let mut keep = vec![false; 64];
        keep[0] = true;
        keep[63] = true;
        let a = count(&select_parked(8, 8, &keep, ParkPolicy::Aggressive));
        let s = count(&select_parked(8, 8, &keep, ParkPolicy::Spread));
        assert!(a > s, "aggressive {a} <= spread {s}");
    }

    #[test]
    fn keep_nodes_never_parked() {
        let mut keep = vec![false; 16];
        keep[5] = true;
        keep[10] = true;
        let parked = select_parked(4, 4, &keep, ParkPolicy::Aggressive);
        assert!(!parked[5] && !parked[10]);
        assert!(keeps_connected(4, 4, &parked, &keep));
    }

    #[test]
    fn connectivity_helper_detects_partitions() {
        // Wall of parked routers down column 1 disconnects column 0.
        let k = 4;
        let mut parked = vec![false; 16];
        for y in 0..4u16 {
            parked[(y * 4 + 1) as usize] = true;
        }
        let mut keep = vec![false; 16];
        keep[0] = true; // (0,0)
        keep[3] = true; // (3,0)
        assert!(!keeps_connected(k, k, &parked, &keep));
        parked[1] = false; // open a gap
        assert!(keeps_connected(k, k, &parked, &keep));
    }
}
