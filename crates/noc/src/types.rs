//! Fundamental identifiers and enumerations shared across the simulator.

use serde::{Deserialize, Serialize};

/// Simulation time, in router clock cycles.
pub type Cycle = u64;

/// Identifier of a node (core + router + NIC) in the mesh, row-major:
/// `id = y * k + x`.
pub type NodeId = u16;

/// Identifier of a packet, unique over a simulation run.
pub type PacketId = u64;

/// One of the four mesh directions.
///
/// Coordinates follow the convention used throughout the crate:
/// `x` grows East (column index), `y` grows North (row index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Dir {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
}

impl Dir {
    /// All four directions in a fixed, deterministic order.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// The opposite direction (`North <-> South`, `East <-> West`).
    #[inline]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::East => Dir::West,
            Dir::South => Dir::North,
            Dir::West => Dir::East,
        }
    }

    /// Unit step of this direction as `(dx, dy)`.
    #[inline]
    pub fn delta(self) -> (i32, i32) {
        match self {
            Dir::North => (0, 1),
            Dir::East => (1, 0),
            Dir::South => (0, -1),
            Dir::West => (-1, 0),
        }
    }

    /// True for `East`/`West`.
    #[inline]
    pub fn is_x(self) -> bool {
        matches!(self, Dir::East | Dir::West)
    }

    /// Dense index in `0..4`, matching [`Dir::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Dir::index`].
    #[inline]
    pub fn from_index(i: usize) -> Dir {
        Dir::ALL[i]
    }
}

/// A router port: the four mesh directions plus the local (core/NIC) port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Port {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
    Local = 4,
}

/// Number of ports on a mesh router.
pub const NUM_PORTS: usize = 5;

impl Port {
    /// All five ports in a fixed, deterministic order.
    pub const ALL: [Port; 5] = [Port::North, Port::East, Port::South, Port::West, Port::Local];

    /// Dense index in `0..5`, matching [`Port::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Port::index`].
    #[inline]
    pub fn from_index(i: usize) -> Port {
        Port::ALL[i]
    }

    /// The mesh direction of this port, or `None` for the local port.
    #[inline]
    pub fn dir(self) -> Option<Dir> {
        match self {
            Port::North => Some(Dir::North),
            Port::East => Some(Dir::East),
            Port::South => Some(Dir::South),
            Port::West => Some(Dir::West),
            Port::Local => None,
        }
    }

    /// The port corresponding to a mesh direction.
    #[inline]
    pub fn from_dir(d: Dir) -> Port {
        match d {
            Dir::North => Port::North,
            Dir::East => Port::East,
            Dir::South => Port::South,
            Dir::West => Port::West,
        }
    }
}

/// Power state of a router, per the FLOV state machine (paper Fig. 2).
///
/// `Active` routers run the full 3-stage pipeline. `Draining` routers still
/// run the pipeline but refuse new upstream packet transmissions. `Sleep`
/// routers have the baseline datapath power-gated and forward flits straight
/// through the FLOV latches. `Wakeup` routers are transitioning back to
/// `Active` (powering on, draining latches).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum PowerState {
    Active = 0,
    Draining = 1,
    Sleep = 2,
    Wakeup = 3,
}

impl PowerState {
    /// True if the baseline router datapath is powered (pipeline operates).
    ///
    /// `Draining` routers are still fully powered; `Wakeup` routers are not
    /// yet usable (latches draining / power ramping).
    #[inline]
    pub fn is_powered(self) -> bool {
        matches!(self, PowerState::Active | PowerState::Draining)
    }

    /// True if this router currently forwards flits over FLOV latches.
    #[inline]
    pub fn is_flov(self) -> bool {
        matches!(self, PowerState::Sleep | PowerState::Wakeup)
    }
}

/// A 2D mesh coordinate. `x` is the column (grows East), `y` the row
/// (grows North).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    pub x: u16,
    pub y: u16,
}

impl Coord {
    #[inline]
    pub fn new(x: u16, y: u16) -> Coord {
        Coord { x, y }
    }

    /// Row-major node id in a grid `k` routers wide.
    #[inline]
    pub fn id(self, k: u16) -> NodeId {
        self.y * k + self.x
    }

    /// Coordinate of a node id in a grid `k` routers wide.
    #[inline]
    pub fn of(id: NodeId, k: u16) -> Coord {
        Coord { x: id % k, y: id / k }
    }

    /// Manhattan distance.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        (self.x.abs_diff(other.x) + self.y.abs_diff(other.y)) as u32
    }

    /// Neighbor coordinate in direction `d` within a `k x k` mesh, if any.
    #[inline]
    pub fn neighbor(self, d: Dir, k: u16) -> Option<Coord> {
        let (dx, dy) = d.delta();
        let nx = self.x as i32 + dx;
        let ny = self.y as i32 + dy;
        if nx < 0 || ny < 0 || nx >= k as i32 || ny >= k as i32 {
            None
        } else {
            Some(Coord::new(nx as u16, ny as u16))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_opposites_are_involutive() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn dir_delta_cancels_with_opposite() {
        for d in Dir::ALL {
            let (dx, dy) = d.delta();
            let (ox, oy) = d.opposite().delta();
            assert_eq!((dx + ox, dy + oy), (0, 0));
        }
    }

    #[test]
    fn dir_index_roundtrip() {
        for (i, d) in Dir::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Dir::from_index(i), *d);
        }
    }

    #[test]
    fn port_index_roundtrip() {
        for (i, p) in Port::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Port::from_index(i), *p);
        }
    }

    #[test]
    fn port_dir_mapping_is_consistent() {
        for d in Dir::ALL {
            assert_eq!(Port::from_dir(d).dir(), Some(d));
        }
        assert_eq!(Port::Local.dir(), None);
    }

    #[test]
    fn coord_id_roundtrip() {
        let k = 8;
        for id in 0..k * k {
            let c = Coord::of(id, k);
            assert_eq!(c.id(k), id);
            assert!(c.x < k && c.y < k);
        }
    }

    #[test]
    fn coord_neighbors_respect_bounds() {
        let k = 4;
        let corner = Coord::new(0, 0);
        assert_eq!(corner.neighbor(Dir::West, k), None);
        assert_eq!(corner.neighbor(Dir::South, k), None);
        assert_eq!(corner.neighbor(Dir::East, k), Some(Coord::new(1, 0)));
        assert_eq!(corner.neighbor(Dir::North, k), Some(Coord::new(0, 1)));
        let far = Coord::new(3, 3);
        assert_eq!(far.neighbor(Dir::East, k), None);
        assert_eq!(far.neighbor(Dir::North, k), None);
    }

    #[test]
    fn manhattan_distance_symmetric() {
        let a = Coord::new(1, 5);
        let b = Coord::new(4, 2);
        assert_eq!(a.manhattan(b), 6);
        assert_eq!(b.manhattan(a), 6);
        assert_eq!(a.manhattan(a), 0);
    }

    #[test]
    fn power_state_predicates() {
        assert!(PowerState::Active.is_powered());
        assert!(PowerState::Draining.is_powered());
        assert!(!PowerState::Sleep.is_powered());
        assert!(!PowerState::Wakeup.is_powered());
        assert!(PowerState::Sleep.is_flov());
        assert!(PowerState::Wakeup.is_flov());
        assert!(!PowerState::Active.is_flov());
    }
}
