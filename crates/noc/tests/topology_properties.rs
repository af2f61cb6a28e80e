//! Property tests for the topology layer: every `TopologySpec` variant
//! must expose a reciprocal link relation, a connected fabric, and a
//! deterministic enumeration order — the invariants the network constructor,
//! the chain walks, and the cache keys all lean on.

use flov_noc::topology::TopologySpec;
use flov_noc::types::{NodeId, Port};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Strategy over every spec variant at small-but-interesting radixes,
/// including odd `k` and rectangular grids.
fn any_spec() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (2u16..9).prop_map(|k| TopologySpec::Mesh { k }),
        (2u16..7, 2u16..7).prop_map(|(kx, ky)| TopologySpec::RectMesh { kx, ky }),
        (2u16..7).prop_map(|k| TopologySpec::Torus { k }),
        (2u16..6, prop_oneof![Just(2u16), Just(4u16)])
            .prop_map(|(k, c)| TopologySpec::CMesh { k, c }),
    ]
}

fn check_reciprocity(t: &TopologySpec) {
    for n in 0..t.routers() as NodeId {
        for p in Port::ALL {
            if let Some((m, q)) = t.neighbor(n, p) {
                assert!(p != Port::Local, "local port must not link anywhere");
                assert!((m as usize) < t.routers(), "neighbor out of range");
                assert_eq!(
                    t.neighbor(m, q),
                    Some((n, p)),
                    "link {n}:{p:?} -> {m}:{q:?} is not reciprocal"
                );
            }
        }
    }
}

fn check_connected(t: &TopologySpec) {
    let n = t.routers();
    let mut seen = vec![false; n];
    let mut q = VecDeque::new();
    seen[0] = true;
    q.push_back(0 as NodeId);
    while let Some(cur) = q.pop_front() {
        for p in Port::ALL {
            if let Some((m, _)) = t.neighbor(cur, p) {
                if !seen[m as usize] {
                    seen[m as usize] = true;
                    q.push_back(m);
                }
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "fabric is not connected");
}

fn check_deterministic_enumeration(spec: TopologySpec) {
    let a = spec.links();
    let b = spec.links();
    assert_eq!(a, b, "links() must enumerate identically across calls");
    // Node-major, Port::ALL-order: the (node, port) key sequence is sorted.
    let keys: Vec<(NodeId, usize)> = a.iter().map(|&(n, p, _, _)| (n, p.index())).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "links() out of node-major order");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn links_are_reciprocal(spec in any_spec()) {
        check_reciprocity(&spec);
    }

    #[test]
    fn fabric_is_connected(spec in any_spec()) {
        check_connected(&spec);
    }

    #[test]
    fn enumeration_is_deterministic(spec in any_spec()) {
        check_deterministic_enumeration(spec);
    }

    #[test]
    fn ring_claims_are_honest(spec in any_spec()) {
        // admits_ring() ⟺ ring_successors() is a Hamiltonian cycle.
        match spec.ring_successors() {
            Some(succ) => {
                prop_assert!(spec.admits_ring());
                prop_assert_eq!(succ.len(), spec.routers());
                let mut seen = vec![false; spec.routers()];
                let mut cur: NodeId = 0;
                for _ in 0..spec.routers() {
                    prop_assert!(!seen[cur as usize], "ring revisits {}", cur);
                    seen[cur as usize] = true;
                    cur = succ[cur as usize];
                }
                prop_assert_eq!(cur, 0, "ring does not close");
            }
            None => prop_assert!(!spec.admits_ring()),
        }
    }

    #[test]
    fn torus_wraps_and_meshes_do_not(spec in any_spec()) {
        // Every router on a torus has all four neighbors; a mesh corner
        // is missing two.
        let full_degree = (0..spec.routers() as NodeId).all(|n| {
            Port::ALL.iter().filter(|&&p| spec.neighbor(n, p).is_some()).count() == 4
        });
        prop_assert_eq!(full_degree, spec.wraps() || spec.routers() == 1);
    }
}

#[test]
fn grid_view_agrees_with_physical_on_meshes() {
    use flov_noc::types::Dir;
    for spec in [
        TopologySpec::Mesh { k: 5 },
        TopologySpec::RectMesh { kx: 6, ky: 3 },
        TopologySpec::CMesh { k: 4, c: 4 },
    ] {
        for n in 0..spec.routers() as NodeId {
            for d in Dir::ALL {
                assert_eq!(spec.neighbor_dir(n, d), spec.grid_neighbor(n, d), "{spec:?} {n} {d:?}");
            }
        }
    }
}
