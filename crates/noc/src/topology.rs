//! The topology layer: which routers exist, how they are wired, and what
//! structural properties (edges, wraparound, Hamiltonian rings) the fabric
//! offers. All four fabrics are one shape — a `kx x ky` router grid with
//! `c` cores per router that may wrap — so one type, [`TopologySpec`],
//! answers every wiring question. Everything above this module — link
//! construction, routing, mechanism edge logic, the NoRD ring — asks it,
//! never raw `k` arithmetic.
//!
//! Two neighbor views are exposed, and keeping them distinct is what makes
//! the mechanisms correct on a torus:
//!
//! * the **physical** view ([`TopologySpec::neighbor`]) is wrap-aware — it
//!   describes the links that actually exist, and is what the datapath
//!   (link delivery, FLOV latch chains, credit relays) follows;
//! * the **grid** view ([`TopologySpec::grid_neighbor`]) never wraps — it
//!   is the mesh-semantic view that routing policy and the mechanisms'
//!   edge logic (escape routing's "go East until the edge", FLOV latch
//!   capability, up*/down* tables) are defined over. On a mesh the two
//!   views coincide; on a torus only the baseline's wrap-minimal routing
//!   ever *originates* traffic across wrap links.
//!
//! Node ids are row-major over the router grid: `id = y * kx + x`. A
//! concentrated mesh keeps the router grid as its node space — cores exist
//! only in the workload layer (`core_id / c` is the attachment router).

use crate::types::{Coord, Dir, NodeId, Port};
use serde::{Deserialize, Serialize};

/// Serializable topology selector carried by `NocConfig`. Externally
/// tagged (the shim's serde encoding), so each variant is cache-key
/// distinct; the field is omitted entirely for the default square mesh,
/// keeping seed cache keys byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Square `k x k` 2D mesh — the paper's fabric. Odd `k` is legal (it
    /// simply admits no NoRD ring, the paper's §II critique).
    Mesh { k: u16 },
    /// Rectangular `kx x ky` mesh.
    RectMesh { kx: u16, ky: u16 },
    /// Square `k x k` torus: every row and column closes into a cycle.
    Torus { k: u16 },
    /// Concentrated mesh: a `k x k` router grid with `c` cores per router
    /// (`cmesh64` in the bench lanes is `k = 4, c = 4`).
    CMesh { k: u16, c: u16 },
}

impl TopologySpec {
    /// Router-grid width.
    #[inline]
    pub fn kx(&self) -> u16 {
        match *self {
            TopologySpec::Mesh { k }
            | TopologySpec::Torus { k }
            | TopologySpec::CMesh { k, .. } => k,
            TopologySpec::RectMesh { kx, .. } => kx,
        }
    }

    /// Router-grid height.
    #[inline]
    pub fn ky(&self) -> u16 {
        match *self {
            TopologySpec::Mesh { k }
            | TopologySpec::Torus { k }
            | TopologySpec::CMesh { k, .. } => k,
            TopologySpec::RectMesh { ky, .. } => ky,
        }
    }

    /// Cores per router.
    #[inline]
    pub fn concentration(&self) -> u16 {
        match *self {
            TopologySpec::CMesh { c, .. } => c,
            _ => 1,
        }
    }

    /// Number of routers.
    #[inline]
    pub fn routers(&self) -> usize {
        self.kx() as usize * self.ky() as usize
    }

    /// Number of cores (injectors): routers times concentration.
    #[inline]
    pub fn cores(&self) -> usize {
        self.routers() * self.concentration() as usize
    }

    /// True if the topology has wraparound links.
    #[inline]
    pub fn wraps(&self) -> bool {
        matches!(self, TopologySpec::Torus { .. })
    }

    /// True if the topology admits a Hamiltonian cycle over its routers
    /// (the NoRD bypass ring's existence condition).
    pub fn admits_ring(&self) -> bool {
        match *self {
            // The paper's observation: a bypass ring exists in a k x k
            // mesh iff k is even.
            TopologySpec::Mesh { k } | TopologySpec::CMesh { k, .. } => {
                k >= 2 && k.is_multiple_of(2)
            }
            // A grid has a Hamiltonian cycle iff one side is even.
            TopologySpec::RectMesh { kx, ky } => {
                kx >= 2 && ky >= 2 && (kx.is_multiple_of(2) || ky.is_multiple_of(2))
            }
            // Wrap links admit a "tornado" cycle for every radix, odd
            // included — concentration and wraparound are exactly the two
            // outs the paper names for NoRD's even-radix restriction.
            TopologySpec::Torus { k } => k >= 2,
        }
    }

    /// Coordinate of `node` in the router grid (row-major, stride `kx`).
    #[inline]
    pub fn coord(&self, node: NodeId) -> Coord {
        Coord::of(node, self.kx())
    }

    /// Physical (link-level, wrap-aware) neighbor through port `p`: the
    /// peer node and the peer's port this link enters. Links are
    /// reciprocal (`neighbor(m, q) == Some((n, p))` whenever
    /// `neighbor(n, p) == Some((m, q))` — the property test pins this) and
    /// the local port never leads anywhere.
    #[inline]
    pub fn neighbor(&self, node: NodeId, p: Port) -> Option<(NodeId, Port)> {
        let d = p.dir()?;
        let (kx, ky) = (self.kx(), self.ky());
        let c = Coord::of(node, kx);
        let m = if self.wraps() { wrap_step(c, d, kx, ky) } else { grid_step(c, d, kx, ky)? };
        Some((m.id(kx), Port::from_dir(d.opposite())))
    }

    /// Physical neighbor in direction `d` (node only).
    #[inline]
    pub fn neighbor_dir(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        self.neighbor(node, Port::from_dir(d)).map(|(m, _)| m)
    }

    /// Mesh-semantic (never wrapping) neighbor in direction `d`; `None`
    /// beyond the grid boundary. Routing policy and mechanism edge logic
    /// consume this view.
    #[inline]
    pub fn grid_neighbor(&self, node: NodeId, d: Dir) -> Option<NodeId> {
        grid_neighbor(node, d, self.kx(), self.ky())
    }

    /// Hamiltonian ring successor map over the routers (`succ[n]` is `n`'s
    /// ring successor), or `None` exactly when [`TopologySpec::admits_ring`]
    /// is false.
    pub fn ring_successors(&self) -> Option<Vec<NodeId>> {
        match *self {
            TopologySpec::Torus { k } => torus_ring_successors(k),
            _ => rect_ring_successors(self.kx(), self.ky()),
        }
    }

    /// Every directed link as `(node, port, peer, peer_port)`, enumerated
    /// in deterministic (node-major, `Port::ALL`) order.
    pub fn links(&self) -> Vec<(NodeId, Port, NodeId, Port)> {
        let mut out = Vec::new();
        for n in 0..self.routers() as NodeId {
            for p in Port::ALL {
                if let Some((m, q)) = self.neighbor(n, p) {
                    out.push((n, p, m, q));
                }
            }
        }
        out
    }

    /// FLOV latch capability of a router at `coord`: can flits fly over it
    /// in X (East/West) and in Y (North/South)? On grids that is "not on
    /// the respective boundary"; a torus has no boundary.
    #[inline]
    pub fn flov_capability(&self, coord: Coord) -> (bool, bool) {
        if self.wraps() {
            (true, true)
        } else {
            (coord.x > 0 && coord.x + 1 < self.kx(), coord.y > 0 && coord.y + 1 < self.ky())
        }
    }

    /// Short lane/diagnostic name, e.g. `mesh8x8`, `torus6`, `cmesh4x4c4`.
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::Mesh { k } => format!("mesh{k}x{k}"),
            TopologySpec::RectMesh { kx, ky } => format!("mesh{kx}x{ky}"),
            TopologySpec::Torus { k } => format!("torus{k}x{k}"),
            TopologySpec::CMesh { k, c } => format!("cmesh{k}x{k}c{c}"),
        }
    }
}

/// Step `c` one hop in `d` inside a `kx x ky` grid (no wraparound).
#[inline]
pub fn grid_step(c: Coord, d: Dir, kx: u16, ky: u16) -> Option<Coord> {
    let (dx, dy) = d.delta();
    let nx = c.x as i32 + dx;
    let ny = c.y as i32 + dy;
    if nx < 0 || ny < 0 || nx >= kx as i32 || ny >= ky as i32 {
        None
    } else {
        Some(Coord::new(nx as u16, ny as u16))
    }
}

/// Step `c` one hop in `d` on a `kx x ky` torus (always succeeds).
#[inline]
pub fn wrap_step(c: Coord, d: Dir, kx: u16, ky: u16) -> Coord {
    let (dx, dy) = d.delta();
    Coord::new(
        (c.x as i32 + dx).rem_euclid(kx as i32) as u16,
        (c.y as i32 + dy).rem_euclid(ky as i32) as u16,
    )
}

/// Step router `node` one hop in `d` inside a `kx x ky` grid (no
/// wraparound), as a node id; `None` beyond the boundary.
#[inline]
pub fn grid_neighbor(node: NodeId, d: Dir, kx: u16, ky: u16) -> Option<NodeId> {
    grid_step(Coord::of(node, kx), d, kx, ky).map(|c| c.id(kx))
}

/// Hamiltonian cycle over a `kx x ky` grid: the seed's serpentine (rows
/// weaving through columns `x >= 1`, return along column 0) generalized.
/// That construction closes iff `ky` is even; for even `kx` the transposed
/// weave is used instead. A grid with both sides odd has an odd number of
/// cells in a bipartite graph — no cycle exists.
fn rect_ring_successors(kx: u16, ky: u16) -> Option<Vec<NodeId>> {
    if kx < 2 || ky < 2 {
        return None;
    }
    let id = |x: u16, y: u16| Coord::new(x, y).id(kx);
    let n = kx as usize * ky as usize;
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    if ky.is_multiple_of(2) {
        for x in 0..kx {
            order.push(id(x, 0));
        }
        for y in 1..ky {
            if y % 2 == 1 {
                for x in (1..kx).rev() {
                    order.push(id(x, y));
                }
            } else {
                for x in 1..kx {
                    order.push(id(x, y));
                }
            }
        }
        for y in (1..ky).rev() {
            order.push(id(0, y));
        }
    } else if kx.is_multiple_of(2) {
        for y in 0..ky {
            order.push(id(0, y));
        }
        for x in 1..kx {
            if x % 2 == 1 {
                for y in (1..ky).rev() {
                    order.push(id(x, y));
                }
            } else {
                for y in 1..ky {
                    order.push(id(x, y));
                }
            }
        }
        for x in (1..kx).rev() {
            order.push(id(x, 0));
        }
    } else {
        return None;
    }
    debug_assert_eq!(order.len(), n);
    let mut succ = vec![0 as NodeId; n];
    for i in 0..n {
        succ[order[i] as usize] = order[(i + 1) % n];
    }
    Some(succ)
}

/// Hamiltonian cycle on a `k x k` torus for *any* `k >= 2* — the "tornado"
/// cycle: enter row `y` at `x = (k - y) mod k`, take `k - 1` East hops
/// (wrapping), then one North hop into the next row; the final North hop
/// wraps from `(0, k-1)` back to the start. Wrap links make the ring
/// possible where the mesh's bipartite parity argument forbids it.
fn torus_ring_successors(k: u16) -> Option<Vec<NodeId>> {
    if k < 2 {
        return None;
    }
    let n = k as usize * k as usize;
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    for y in 0..k {
        let enter = (k - y) % k;
        for step in 0..k {
            let x = (enter + step) % k;
            order.push(Coord::new(x, y).id(k));
        }
    }
    debug_assert_eq!(order.len(), n);
    let mut succ = vec![0 as NodeId; n];
    for i in 0..n {
        succ[order[i] as usize] = order[(i + 1) % n];
    }
    Some(succ)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs() -> Vec<TopologySpec> {
        vec![
            TopologySpec::Mesh { k: 4 },
            TopologySpec::Mesh { k: 5 },
            TopologySpec::RectMesh { kx: 6, ky: 3 },
            TopologySpec::Torus { k: 4 },
            TopologySpec::Torus { k: 3 },
            TopologySpec::CMesh { k: 4, c: 4 },
        ]
    }

    /// `succ` is a single cycle visiting every router exactly once, with
    /// every edge physically present in `t`.
    fn assert_hamiltonian(t: &TopologySpec, succ: &[NodeId]) {
        let n = t.routers();
        assert_eq!(succ.len(), n);
        for (a, &b) in succ.iter().enumerate() {
            let adjacent = Dir::ALL.iter().any(|&d| t.neighbor_dir(a as NodeId, d) == Some(b));
            assert!(adjacent, "ring edge {a}->{b} is not a link of {t:?}");
        }
        let mut cur = 0 as NodeId;
        let mut seen = vec![false; n];
        for _ in 0..n {
            assert!(!seen[cur as usize], "ring revisits {cur}");
            seen[cur as usize] = true;
            cur = succ[cur as usize];
        }
        assert_eq!(cur, 0);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn default_mesh_matches_seed_adjacency() {
        // The Mesh topology must reproduce Coord::neighbor exactly.
        let t = TopologySpec::Mesh { k: 5 };
        for id in 0..25u16 {
            for d in Dir::ALL {
                let seed = Coord::of(id, 5).neighbor(d, 5).map(|c| c.id(5));
                assert_eq!(t.neighbor_dir(id, d), seed);
                assert_eq!(t.grid_neighbor(id, d), seed);
            }
        }
    }

    #[test]
    fn torus_neighbors_wrap_and_grid_view_does_not() {
        let t = TopologySpec::Torus { k: 4 };
        // (3, 0) East wraps to (0, 0); the grid view sees an edge.
        assert_eq!(t.neighbor_dir(3, Dir::East), Some(0));
        assert_eq!(t.grid_neighbor(3, Dir::East), None);
        // (0, 0) South wraps to (0, 3).
        assert_eq!(t.neighbor_dir(0, Dir::South), Some(12));
        assert_eq!(t.grid_neighbor(0, Dir::South), None);
    }

    #[test]
    fn link_reciprocity_everywhere() {
        for spec in all_specs() {
            for n in 0..spec.routers() as NodeId {
                for p in Port::ALL {
                    match spec.neighbor(n, p) {
                        None => assert!(
                            p == Port::Local || !spec.wraps(),
                            "torus must have no edges ({spec:?} node {n} port {p:?})"
                        ),
                        Some((m, q)) => {
                            assert_eq!(
                                spec.neighbor(m, q),
                                Some((n, p)),
                                "link {n}:{p:?} -> {m}:{q:?} not reciprocal ({spec:?})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ring_existence_matches_admits_ring() {
        for spec in all_specs() {
            assert_eq!(spec.ring_successors().is_some(), spec.admits_ring(), "{spec:?}");
            if let Some(succ) = spec.ring_successors() {
                assert_hamiltonian(&spec, &succ);
            }
        }
    }

    #[test]
    fn square_ring_is_byte_identical_to_seed() {
        // The seed's serpentine on the 4x4 mesh: East along row 0, weave
        // through columns x >= 1, return down column 0. The NoRD golden
        // rows pin it; a cmesh rides its router grid's ring.
        let seed: Vec<NodeId> = vec![1, 2, 3, 7, 0, 9, 5, 6, 4, 10, 11, 15, 8, 12, 13, 14];
        assert_eq!(TopologySpec::Mesh { k: 4 }.ring_successors().unwrap(), seed);
        assert_eq!(TopologySpec::CMesh { k: 4, c: 4 }.ring_successors().unwrap(), seed);
    }

    #[test]
    fn rect_ring_parity() {
        assert!(rect_ring_successors(3, 4).is_some());
        assert!(rect_ring_successors(4, 3).is_some());
        assert!(rect_ring_successors(3, 5).is_none());
        assert!(rect_ring_successors(5, 7).is_none());
        let t = TopologySpec::RectMesh { kx: 4, ky: 3 };
        assert_hamiltonian(&t, &t.ring_successors().unwrap());
    }

    #[test]
    fn torus_ring_exists_for_odd_radix() {
        // The concentrated/wrapped escape hatch from the even-k critique.
        for k in [2u16, 3, 4, 5, 7] {
            let t = TopologySpec::Torus { k };
            assert_hamiltonian(&t, &t.ring_successors().unwrap());
        }
    }

    #[test]
    fn cmesh_counts_cores_separately() {
        let spec = TopologySpec::CMesh { k: 4, c: 4 };
        assert_eq!(spec.routers(), 16);
        assert_eq!(spec.cores(), 64);
    }

    #[test]
    fn flov_capability_interior_on_grid_everywhere_on_torus() {
        let mesh = TopologySpec::Mesh { k: 4 };
        assert_eq!(mesh.flov_capability(Coord::new(0, 2)), (false, true));
        assert_eq!(mesh.flov_capability(Coord::new(2, 0)), (true, false));
        assert_eq!(mesh.flov_capability(Coord::new(2, 2)), (true, true));
        let torus = TopologySpec::Torus { k: 4 };
        assert_eq!(torus.flov_capability(Coord::new(0, 0)), (true, true));
    }

    #[test]
    fn links_enumeration_is_deterministic_and_reciprocal() {
        for spec in all_specs() {
            let links = spec.links();
            assert_eq!(links, spec.links(), "unstable enumeration for {spec:?}");
            for &(n, p, m, q) in &links {
                assert!(links.contains(&(m, q, n, p)), "missing reverse of {n}:{p:?}");
            }
        }
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        for spec in all_specs() {
            let v = serde::Serialize::to_value(&spec);
            let back: TopologySpec = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn spec_labels() {
        assert_eq!(TopologySpec::Mesh { k: 8 }.label(), "mesh8x8");
        assert_eq!(TopologySpec::RectMesh { kx: 8, ky: 4 }.label(), "mesh8x4");
        assert_eq!(TopologySpec::Torus { k: 6 }.label(), "torus6x6");
        assert_eq!(TopologySpec::CMesh { k: 4, c: 4 }.label(), "cmesh4x4c4");
    }
}
