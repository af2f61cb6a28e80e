//! Up*/down* routing over the powered-on subgraph.
//!
//! Router Parking distributes routing tables computed by the central Fabric
//! Manager. We realize them with the classic up*/down* scheme: orient every
//! link of the active subgraph by BFS level toward a root (ties by id); a
//! legal path never takes an up-link after a down-link. This is cycle-free
//! (hence deadlock-free) on arbitrary connected subgraphs — exactly what RP
//! needs after parking an irregular set of routers — at the price of
//! non-minimal detours, which is the RP behavior the paper measures against.
//!
//! Tables are built over the *grid* view of the fabric (`kx x ky`, no wrap
//! links): on a torus the wrap edges are simply not used, which keeps the
//! orientation argument untouched.

use flov_noc::topology::grid_neighbor;
use flov_noc::types::{Coord, Dir, NodeId, Port};
use std::collections::VecDeque;

/// Marker for "no route" in the next-hop table.
pub const NO_ROUTE: u8 = u8::MAX;

/// BFS levels from `root` over the on-subgraph; `u32::MAX` = unreachable.
fn bfs_levels(kx: u16, ky: u16, on: &[bool], root: NodeId) -> Vec<u32> {
    let n = (kx as usize) * (ky as usize);
    let mut level = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    level[root as usize] = 0;
    q.push_back(root);
    while let Some(cur) = q.pop_front() {
        for d in Dir::ALL {
            if let Some(m) = grid_neighbor(cur, d, kx, ky) {
                if on[m as usize] && level[m as usize] == u32::MAX {
                    level[m as usize] = level[cur as usize] + 1;
                    q.push_back(m);
                }
            }
        }
    }
    level
}

/// True if the hop `a -> b` is an *up* move (toward the root): lower level
/// wins, ties broken by smaller id.
#[inline]
fn is_up(level: &[u32], a: NodeId, b: NodeId) -> bool {
    let (la, lb) = (level[a as usize], level[b as usize]);
    lb < la || (lb == la && b < a)
}

/// Pick the root: the on-router closest to the grid center (deterministic
/// tie-break by id). Returns `None` when no router is on.
pub fn pick_root(kx: u16, ky: u16, on: &[bool]) -> Option<NodeId> {
    let cx = (kx - 1) as f64 / 2.0;
    let cy = (ky - 1) as f64 / 2.0;
    (0..on.len() as NodeId).filter(|&n| on[n as usize]).min_by(|&a, &b| {
        let da = {
            let c = Coord::of(a, kx);
            (c.x as f64 - cx).abs() + (c.y as f64 - cy).abs()
        };
        let db = {
            let c = Coord::of(b, kx);
            (c.x as f64 - cx).abs() + (c.y as f64 - cy).abs()
        };
        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
    })
}

/// BFS levels of every on-router, per connected component, each component
/// rooted at its own center-most router (the up/down orientation input).
/// The on-subgraph may legally have several components: parking can strand
/// powered routers that no kept traffic needs.
pub fn component_levels(kx: u16, ky: u16, on: &[bool]) -> Vec<u32> {
    let n = (kx as usize) * (ky as usize);
    let mut level = vec![u32::MAX; n];
    loop {
        let mut remaining = vec![false; n];
        let mut any = false;
        for i in 0..n {
            if on[i] && level[i] == u32::MAX {
                remaining[i] = true;
                any = true;
            }
        }
        if !any {
            break;
        }
        let root = pick_root(kx, ky, &remaining).expect("non-empty remaining set");
        let part = bfs_levels(kx, ky, on, root);
        for i in 0..n {
            if part[i] != u32::MAX && level[i] == u32::MAX {
                level[i] = part[i];
            }
        }
    }
    level
}

/// True if the hop `a -> b` is an *up* move under `level` (public so tests
/// can verify the up*/down* discipline against the real orientation).
pub fn hop_is_up(level: &[u32], a: NodeId, b: NodeId) -> bool {
    is_up(level, a, b)
}

/// Build the full next-hop table: `table[src * nodes + dst]` is the output
/// port index, or [`NO_ROUTE`]. Diagonal entries hold the local port.
///
/// Construction (per destination, the classic consistent formulation):
/// * the *D-set* is every node with an all-down path to the destination;
///   D-nodes route along a shortest all-down path;
/// * every other node routes *up* toward the cheapest neighbor (up edges
///   form a DAG toward the root, so a pass in topological order suffices).
///
/// Because D-nodes only ever forward down and non-D nodes only ever forward
/// up, a packet's trajectory is up\*down\* no matter where it is picked up —
/// per-hop table lookups can never produce an up move after a down move, so
/// no down→up channel dependency exists anywhere and the routing is
/// deadlock-free on any connected subgraph.
pub fn build_table(kx: u16, ky: u16, on: &[bool]) -> Vec<u8> {
    let n = (kx as usize) * (ky as usize);
    let mut table = vec![NO_ROUTE; n * n];
    if pick_root(kx, ky, on).is_none() {
        return table;
    }
    let level = component_levels(kx, ky, on);
    // Topological order for up edges: an up move strictly decreases
    // (level, id), so scanning in increasing (level, id) sees every
    // up-target before the nodes that climb to it.
    let mut topo: Vec<NodeId> =
        (0..n as NodeId).filter(|&x| on[x as usize] && level[x as usize] != u32::MAX).collect();
    topo.sort_by_key(|&x| (level[x as usize], x));
    let mut dist_down = vec![u32::MAX; n];
    let mut dist_total = vec![u32::MAX; n];
    for dst in 0..n as NodeId {
        if !on[dst as usize] || level[dst as usize] == u32::MAX {
            continue;
        }
        // Pass 1: the D-set via backward BFS over down edges (p -> m is a
        // down move iff m -> p is an up move).
        dist_down.iter_mut().for_each(|d| *d = u32::MAX);
        dist_down[dst as usize] = 0;
        let mut q = VecDeque::new();
        q.push_back(dst);
        while let Some(m) = q.pop_front() {
            for d in Dir::ALL {
                let Some(p) = grid_neighbor(m, d, kx, ky) else { continue };
                if !on[p as usize] || level[p as usize] == u32::MAX {
                    continue;
                }
                if is_up(&level, m, p) && dist_down[p as usize] == u32::MAX {
                    dist_down[p as usize] = dist_down[m as usize] + 1;
                    q.push_back(p);
                }
            }
        }
        // Pass 2: climb costs for non-D nodes in topological order.
        for &x in &topo {
            dist_total[x as usize] = dist_down[x as usize];
        }
        for &x in &topo {
            if dist_down[x as usize] != u32::MAX {
                continue; // D-node: final
            }
            let mut best = u32::MAX;
            for d in Dir::ALL {
                let Some(m) = grid_neighbor(x, d, kx, ky) else { continue };
                if !on[m as usize] || level[m as usize] == u32::MAX {
                    continue;
                }
                if is_up(&level, x, m) && dist_total[m as usize] != u32::MAX {
                    best = best.min(dist_total[m as usize].saturating_add(1));
                }
            }
            dist_total[x as usize] = best;
        }
        // Emit next hops, rotating the direction scan by dst to spread
        // equal-cost choices across destinations (hotspot mitigation).
        for src in 0..n as NodeId {
            if !on[src as usize] || level[src as usize] == u32::MAX {
                continue;
            }
            let row = src as usize * n + dst as usize;
            if src == dst {
                table[row] = Port::Local.index() as u8;
                continue;
            }
            if dist_total[src as usize] == u32::MAX {
                continue; // stays NO_ROUTE
            }
            let in_d = dist_down[src as usize] != u32::MAX;
            let mut best: Option<(u32, u8)> = None;
            for i in 0..4 {
                let d = Dir::from_index((i + dst as usize) % 4);
                let Some(m) = grid_neighbor(src, d, kx, ky) else { continue };
                if !on[m as usize] || level[m as usize] == u32::MAX {
                    continue;
                }
                let up = is_up(&level, src, m);
                let cand = if in_d {
                    // D-node: all-down continuation only.
                    if up || dist_down[m as usize] == u32::MAX {
                        continue;
                    }
                    dist_down[m as usize]
                } else {
                    // Climbing node: up moves only.
                    if !up || dist_total[m as usize] == u32::MAX {
                        continue;
                    }
                    dist_total[m as usize]
                };
                if best.is_none_or(|(b, _)| cand < b) {
                    best = Some((cand, Port::from_dir(d).index() as u8));
                }
            }
            table[row] = best.expect("reachable node must have a legal next hop").1;
        }
    }
    table
}

/// Walk the table from `src` to `dst`, returning the hop count, or `None`
/// if the table has a gap or a loop. Test/diagnostic helper.
pub fn walk(table: &[u8], kx: u16, ky: u16, src: NodeId, dst: NodeId) -> Option<u32> {
    let n = (kx as usize) * (ky as usize);
    let mut cur = src;
    let mut hops = 0;
    while cur != dst {
        let e = table[cur as usize * n + dst as usize];
        if e == NO_ROUTE || e == Port::Local.index() as u8 {
            return None;
        }
        let d = Port::from_index(e as usize).dir().unwrap();
        cur = grid_neighbor(cur, d, kx, ky)?;
        hops += 1;
        if hops > 4 * n as u32 {
            return None; // loop
        }
    }
    Some(hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_all_pairs_routable() {
        let k = 4;
        let on = vec![true; 16];
        let table = build_table(k, k, &on);
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    assert_eq!(table[s as usize * 16 + d as usize], Port::Local.index() as u8);
                } else {
                    let hops = walk(&table, k, k, s, d).expect("unroutable pair");
                    assert!(hops >= Coord::of(s, k).manhattan(Coord::of(d, k)));
                }
            }
        }
    }

    #[test]
    fn rectangular_grid_all_pairs_routable() {
        let (kx, ky) = (5u16, 3u16);
        let n = (kx * ky) as usize;
        let on = vec![true; n];
        let table = build_table(kx, ky, &on);
        for s in 0..n as u16 {
            for d in 0..n as u16 {
                if s == d {
                    continue;
                }
                let hops = walk(&table, kx, ky, s, d).expect("unroutable pair on 5x3");
                let (sc, dc) = (Coord::of(s, kx), Coord::of(d, kx));
                let min = sc.x.abs_diff(dc.x) as u32 + sc.y.abs_diff(dc.y) as u32;
                assert!(hops >= min);
            }
        }
    }

    #[test]
    fn holes_force_detours_but_stay_routable() {
        let k = 4;
        let mut on = vec![true; 16];
        // Park a plus-shaped hole in the middle: (1,1),(2,1),(1,2).
        for n in [5u16, 6, 9] {
            on[n as usize] = false;
        }
        let table = build_table(k, k, &on);
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d || !on[s as usize] || !on[d as usize] {
                    continue;
                }
                let hops = walk(&table, k, k, s, d).expect("unroutable with holes");
                // Paths exist and never cross parked routers (walk uses the
                // table; verify the path avoids holes).
                let mut cur = s;
                for _ in 0..hops {
                    let e = table[cur as usize * 16 + d as usize];
                    let dir = Port::from_index(e as usize).dir().unwrap();
                    cur = Coord::of(cur, k).neighbor(dir, k).unwrap().id(k);
                    assert!(on[cur as usize], "route crosses parked router {cur}");
                }
            }
        }
        // Detour check: (0,1) -> (3,1) is 3 hops minimal but the hole forces
        // at least one extra hop... actually row 1 has (1,1),(2,1) parked:
        // going along row 1 is impossible, so > 3 hops.
        let hops = walk(&table, k, k, 4, 7).unwrap();
        assert!(hops > 3, "expected a detour, got {hops}");
    }

    #[test]
    fn no_up_after_down_anywhere() {
        let k = 4;
        let mut on = vec![true; 16];
        on[5] = false;
        on[10] = false;
        let table = build_table(k, k, &on);
        let root = pick_root(k, k, &on).unwrap();
        let level = bfs_levels(k, k, &on, root);
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d || !on[s as usize] || !on[d as usize] {
                    continue;
                }
                let mut cur = s;
                let mut went_down = false;
                while cur != d {
                    let e = table[cur as usize * 16 + d as usize];
                    let dir = Port::from_index(e as usize).dir().unwrap();
                    let next = Coord::of(cur, k).neighbor(dir, k).unwrap().id(k);
                    let up = is_up(&level, cur, next);
                    assert!(!(up && went_down), "up after down on {s}->{d}");
                    if !up {
                        went_down = true;
                    }
                    cur = next;
                }
            }
        }
    }

    #[test]
    fn disconnected_nodes_marked_unroutable() {
        let k = 4;
        let mut on = vec![true; 16];
        // Isolate corner (0,0) by parking (1,0) and (0,1).
        on[1] = false;
        on[4] = false;
        let table = build_table(k, k, &on);
        // Root is center-ish, so corner 0 is the disconnected one.
        assert_eq!(table[15], NO_ROUTE);
        assert_eq!(table[15 * 16], NO_ROUTE);
        // The rest still routes.
        assert!(walk(&table, k, k, 2, 15).is_some());
    }

    #[test]
    fn empty_on_set_is_all_no_route() {
        let table = build_table(4, 4, &[false; 16]);
        assert!(table.iter().all(|&e| e == NO_ROUTE));
    }

    #[test]
    fn root_prefers_center() {
        let on = vec![true; 16];
        let root = pick_root(4, 4, &on).unwrap();
        // Center candidates of a 4x4 are (1,1),(2,1),(1,2),(2,2) = 5,6,9,10;
        // deterministic tie-break picks the smallest id.
        assert_eq!(root, 5);
    }
}
