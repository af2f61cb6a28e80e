//! Simulation configuration (paper Table I).

use crate::topology::TopologySpec;
use crate::types::{Cycle, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most routers, and most cores, a fabric may have: ids `0..=65_534`.
/// Router ids keep `NodeId::MAX` free to mark "no neighbor"; core counts
/// must fit `NodeId` themselves, since workloads build id ranges as
/// `0..cores as NodeId`.
pub const MAX_NODES: usize = NodeId::MAX as usize;

/// Deepest input VC buffer: each VC is a FIFO with 8-bit indices over the
/// ring it leases from its router's ring pool.
pub const MAX_BUF_DEPTH: usize = u8::MAX as usize;

/// Longest link latency, in cycles: the arrival wheel of in-flight
/// traffic ([`crate::link::Wheel`]) is sized from the latency.
pub const MAX_LINK_LATENCY: u32 = 64;

/// A structured configuration rejection from [`NocConfig::validate`].
///
/// The CLI surfaces these as diagnostics instead of panics; library users
/// get them from [`crate::network::NetworkCore::try_new`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// Router grid smaller than 2 in some dimension.
    RadixTooSmall { kx: u16, ky: u16 },
    /// Concentrated mesh with zero cores per router.
    ZeroConcentration,
    /// No virtual networks.
    NoVnets,
    /// No regular (non-escape) VCs.
    NoRegularVcs,
    /// More than one escape VC per vnet.
    TooManyEscapeVcs { escape_vcs: usize },
    /// Per-port VC bitmasks hold at most 64 VCs.
    TooManyVcs { total: usize },
    /// More routers or cores than 16-bit node ids can name (see
    /// [`MAX_NODES`]).
    TooManyNodes { routers: usize, cores: usize },
    /// Input buffer depth outside `1..=`[`MAX_BUF_DEPTH`] flits.
    BufDepthOutOfRange { depth: usize },
    /// Link latency outside `1..=`[`MAX_LINK_LATENCY`] cycles (the arrival
    /// wheel is sized from it).
    LinkLatencyOutOfRange { latency: u32 },
    /// Zero-flit packets.
    ZeroPacketLen,
    /// Zero escape timeout.
    ZeroEscapeTimeout,
    /// NoRD enabled on a topology with no Hamiltonian cycle over its
    /// routers — the paper's §II critique (e.g. an odd-radix mesh).
    RingUnsupported { topology: String },
    /// The ring exit is stamped into the 8-bit flit VC field.
    RingTooLarge { nodes: usize },
    /// Ring-to-mesh transfers reserve the last regular VC.
    RingNeedsTransferVc,
    /// Wrap-minimal torus routing relies on the escape sub-network for
    /// deadlock freedom.
    TorusNeedsEscapeVc,
    /// Synthetic injection rate outside `[0, pkt_len]` flits/cycle/node:
    /// the Bernoulli process caps at one packet per node-cycle, so a
    /// higher request would silently run a clamped experiment.
    OversaturatedRate { rate: f64, pkt_len: u16 },
    /// Ill-formed MMPP/diurnal modulation parameters.
    InvalidModulation { why: &'static str },
    /// Gated-core fraction outside `[0, 1]` or not a number: rounding the
    /// gated count would silently run "all cores" or "no cores" instead.
    InvalidGatedFraction { fraction: f64 },
    /// A trace-replay workload whose file cannot replay on this config:
    /// unreadable, not a valid trace container, changed since the spec
    /// pinned its CRC, or naming a node the config does not have.
    BadTrace { path: String, why: String },
    /// A mechanism name no constructor accepts.
    UnknownMechanism { name: String },
    /// A PARSEC-proxy benchmark that is not modeled.
    UnknownBenchmark { name: String },
    /// The PARSEC proxy places its memory controllers at the corners of a
    /// square router grid with one core per router; other fabrics have no
    /// placement.
    ParsecNeedsSquareGrid { topology: String },
    /// A mechanism switch on a closed-loop run (PARSEC, or a trace replay
    /// of one), which runs to completion rather than through the switched
    /// cycle window.
    SwitchOnClosedLoop { at: Cycle, workload: &'static str },
    /// A mechanism switch at or after the end of the measured window: the
    /// run stops there and the drain applies no switches.
    SwitchAfterEnd { at: Cycle, end: Cycle },
    /// A mid-run mechanism switch that does not loosen the protocol (only
    /// Baseline to rFLOV or gFLOV, and rFLOV to gFLOV, are legal), or
    /// names no mechanism.
    IllegalSwitch { from: String, to: String, at: Cycle },
    /// A mechanism switch listed after one at a later cycle: the run would
    /// skip it.
    UnorderedSwitches { at: Cycle, after: Cycle },
    /// A warmup that reaches the end of the run: no cycle is left to
    /// measure, so every number would read zero.
    EmptyWindow { warmup: Cycle, cycles: Cycle },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::RadixTooSmall { kx, ky } => {
                write!(f, "mesh radix must be at least 2 in each dimension (got {kx}x{ky})")
            }
            ConfigError::ZeroConcentration => {
                write!(f, "concentrated mesh needs at least one core per router")
            }
            ConfigError::NoVnets => write!(f, "at least one vnet required"),
            ConfigError::NoRegularVcs => write!(f, "at least one regular VC required"),
            ConfigError::TooManyEscapeVcs { escape_vcs } => {
                write!(f, "at most one escape VC per vnet is supported (got {escape_vcs})")
            }
            ConfigError::TooManyVcs { total } => {
                write!(f, "per-port VC bitmasks hold at most 64 VCs (got {total})")
            }
            ConfigError::TooManyNodes { routers, cores } => write!(
                f,
                "16-bit node ids allow at most {MAX_NODES} routers and {MAX_NODES} cores \
                 (got {routers} routers, {cores} cores)"
            ),
            ConfigError::BufDepthOutOfRange { depth } => {
                write!(f, "buffer depth {depth} is outside 1..={MAX_BUF_DEPTH} flits")
            }
            ConfigError::LinkLatencyOutOfRange { latency } => {
                write!(f, "link latency {latency} is outside 1..={MAX_LINK_LATENCY} cycles")
            }
            ConfigError::ZeroPacketLen => write!(f, "packets have at least one flit"),
            ConfigError::ZeroEscapeTimeout => write!(f, "escape timeout must be positive"),
            ConfigError::RingUnsupported { topology } => write!(
                f,
                "NoRD bypass ring requires a topology with a Hamiltonian cycle over its \
                 routers; {topology} has none (an even mesh radix, one even rectangle side, \
                 or any torus works)"
            ),
            ConfigError::RingTooLarge { nodes } => {
                write!(f, "ring exit stamping supports at most 256 nodes (got {nodes})")
            }
            ConfigError::RingNeedsTransferVc => {
                write!(f, "the ring transfer path reserves one regular VC (need at least 2)")
            }
            ConfigError::TorusNeedsEscapeVc => {
                write!(f, "torus routing needs the escape sub-network (escape_vcs >= 1)")
            }
            ConfigError::OversaturatedRate { rate, pkt_len } => write!(
                f,
                "injection rate {rate} flits/cycle/node exceeds the {pkt_len}-flit packet \
                 length (at most one packet per node-cycle, i.e. rate <= pkt_len) or is not \
                 a finite non-negative number"
            ),
            ConfigError::InvalidModulation { why } => {
                write!(f, "invalid load modulation: {why}")
            }
            ConfigError::InvalidGatedFraction { fraction } => write!(
                f,
                "gated-core fraction {fraction} must be a number in [0, 1] \
                 (the share of cores power-gated)"
            ),
            ConfigError::BadTrace { path, why } => write!(f, "trace file {path:?}: {why}"),
            ConfigError::UnknownMechanism { name } => write!(f, "unknown mechanism {name:?}"),
            ConfigError::UnknownBenchmark { name } => {
                write!(f, "unknown PARSEC benchmark {name:?}")
            }
            ConfigError::ParsecNeedsSquareGrid { topology } => write!(
                f,
                "the PARSEC proxy needs a square router grid with one core per router \
                 (its memory controllers sit at the corners); {topology} is not one"
            ),
            ConfigError::SwitchOnClosedLoop { at, workload } => write!(
                f,
                "mechanism switch at cycle {at} does not apply to a closed-loop {workload}, \
                 which runs to completion rather than through the switched cycle window"
            ),
            ConfigError::SwitchAfterEnd { at, end } => write!(
                f,
                "mechanism switch at cycle {at} would never apply: the measured window ends \
                 at cycle {end}"
            ),
            ConfigError::IllegalSwitch { from, to, at } => write!(
                f,
                "illegal mechanism switch {from} -> {to:?} at cycle {at} (only Baseline -> \
                 rFLOV or gFLOV, and rFLOV -> gFLOV, loosen the protocol)"
            ),
            ConfigError::UnorderedSwitches { at, after } => write!(
                f,
                "mechanism switch at cycle {at} is listed after one at cycle {after}; \
                 switches must be in ascending cycle order"
            ),
            ConfigError::EmptyWindow { warmup, cycles } => write!(
                f,
                "warmup {warmup} leaves no measurement window: the run ends at cycle \
                 {cycles}, so the warmup must be shorter than the run"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Router pipeline depth in cycles (RC | VA+SA | ST): Table I's 3-stage
/// router. The switch traversal, the latency breakdown's router term and
/// Table I all read it.
pub const ROUTER_STAGES: u32 = 3;

/// Configuration of the simulated NoC.
///
/// Defaults reproduce Table I of the paper: an 8x8 mesh of
/// [`ROUTER_STAGES`]-stage routers, 6-flit input buffers, 3 regular VCs +
/// 1 escape VC per virtual network, 3 virtual networks and 1-cycle links
/// (the clock and the 17.7 pJ power-gating overhead are power parameters).
/// Every field can change the simulated run, and the whole config is part of
/// every result-cache key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// The fabric: router grid, wrap links and cores per router.
    pub topology: TopologySpec,
    /// Number of virtual networks (message classes).
    pub vnets: usize,
    /// Regular (non-escape) VCs per vnet per input port.
    pub regular_vcs: usize,
    /// Escape VCs per vnet (Duato deadlock recovery); the escape VC is the
    /// last VC index of each vnet.
    pub escape_vcs: usize,
    /// Input buffer depth, in flits, per VC.
    pub buf_depth: usize,
    /// Link traversal latency, cycles (`1..=`[`MAX_LINK_LATENCY`]).
    pub link_latency: u32,
    /// Cycles a power-gated router needs to ramp power back up.
    pub wakeup_latency: u32,
    /// Cycles of local-port inactivity before a router with a gated core
    /// initiates the drain handshake.
    pub idle_threshold: u32,
    /// Head-flit wait (cycles) after which a packet is diverted into the
    /// escape sub-network (Duato timeout recovery).
    pub escape_timeout: u32,
    /// Flits per packet for synthetic traffic.
    pub synth_packet_len: u16,
    /// Enable the NoRD bypass ring (node-router decoupling): a Hamiltonian
    /// ring over all routers that keeps gated nodes reachable without FLOV
    /// links. Requires a topology admitting a Hamiltonian cycle (the
    /// paper's critique of NoRD: a square mesh needs even `k`; a torus or
    /// concentration lifts the restriction), at most 256 routers, and at
    /// least two regular VCs (ring-to-mesh transfers reserve the last one).
    pub enable_ring: bool,
    /// Cycles without any network event after which the watchdog declares a
    /// deadlock (0 disables).
    pub watchdog_cycles: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            topology: TopologySpec::Mesh { k: 8 },
            vnets: 3,
            regular_vcs: 3,
            escape_vcs: 1,
            buf_depth: 6,
            link_latency: 1,
            wakeup_latency: 10,
            idle_threshold: 16,
            escape_timeout: 128,
            synth_packet_len: 4,
            enable_ring: false,
            watchdog_cycles: 50_000,
        }
    }
}

impl NocConfig {
    /// Total VCs per vnet (regular + escape).
    #[inline]
    pub fn vcs_per_vnet(&self) -> usize {
        self.regular_vcs + self.escape_vcs
    }

    /// Total VCs per input port across all vnets.
    #[inline]
    pub fn total_vcs(&self) -> usize {
        self.vnets * self.vcs_per_vnet()
    }

    /// Flattened VC index for `(vnet, vc)`.
    #[inline]
    pub fn vc_index(&self, vnet: usize, vc: usize) -> usize {
        vnet * self.vcs_per_vnet() + vc
    }

    /// Inverse of [`NocConfig::vc_index`].
    #[inline]
    pub fn vc_split(&self, idx: usize) -> (usize, usize) {
        (idx / self.vcs_per_vnet(), idx % self.vcs_per_vnet())
    }

    /// Index (within a vnet) of the escape VC, or `None` if the config has
    /// no escape VCs.
    #[inline]
    pub fn escape_vc(&self) -> Option<usize> {
        if self.escape_vcs > 0 {
            Some(self.regular_vcs)
        } else {
            None
        }
    }

    /// True if `vc` (index within a vnet) is an escape VC.
    #[inline]
    pub fn is_escape_vc(&self, vc: usize) -> bool {
        vc >= self.regular_vcs
    }

    /// Router-grid width.
    #[inline]
    pub fn kx(&self) -> u16 {
        self.topology.kx()
    }

    /// Router-grid height.
    #[inline]
    pub fn ky(&self) -> u16 {
        self.topology.ky()
    }

    /// Cores per router (1 except for concentrated meshes).
    #[inline]
    pub fn concentration(&self) -> u16 {
        self.topology.concentration()
    }

    /// Number of routers (= nodes of the fabric).
    #[inline]
    pub fn nodes(&self) -> usize {
        self.topology.routers()
    }

    /// Number of cores (traffic endpoints): routers times concentration.
    #[inline]
    pub fn cores(&self) -> usize {
        self.topology.cores()
    }

    /// Validate invariants, returning a structured [`ConfigError`] on
    /// misconfiguration (surfaced by the CLI as a diagnostic; panicking
    /// entry points wrap this).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let spec = &self.topology;
        if spec.kx() < 2 || spec.ky() < 2 {
            return Err(ConfigError::RadixTooSmall { kx: spec.kx(), ky: spec.ky() });
        }
        if spec.concentration() == 0 {
            return Err(ConfigError::ZeroConcentration);
        }
        if spec.routers() > MAX_NODES || spec.cores() > MAX_NODES {
            return Err(ConfigError::TooManyNodes { routers: spec.routers(), cores: spec.cores() });
        }
        if self.vnets < 1 {
            return Err(ConfigError::NoVnets);
        }
        if self.regular_vcs < 1 {
            return Err(ConfigError::NoRegularVcs);
        }
        if self.escape_vcs > 1 {
            return Err(ConfigError::TooManyEscapeVcs { escape_vcs: self.escape_vcs });
        }
        if self.total_vcs() > 64 {
            return Err(ConfigError::TooManyVcs { total: self.total_vcs() });
        }
        if !(1..=MAX_BUF_DEPTH).contains(&self.buf_depth) {
            return Err(ConfigError::BufDepthOutOfRange { depth: self.buf_depth });
        }
        if !(1..=MAX_LINK_LATENCY).contains(&self.link_latency) {
            return Err(ConfigError::LinkLatencyOutOfRange { latency: self.link_latency });
        }
        if self.synth_packet_len < 1 {
            return Err(ConfigError::ZeroPacketLen);
        }
        if self.escape_timeout < 1 {
            return Err(ConfigError::ZeroEscapeTimeout);
        }
        if spec.wraps() && self.escape_vcs == 0 {
            return Err(ConfigError::TorusNeedsEscapeVc);
        }
        if self.enable_ring {
            if !spec.admits_ring() {
                return Err(ConfigError::RingUnsupported { topology: spec.label() });
            }
            if spec.routers() > 256 {
                return Err(ConfigError::RingTooLarge { nodes: spec.routers() });
            }
            if self.regular_vcs < 2 {
                return Err(ConfigError::RingNeedsTransferVc);
            }
        }
        Ok(())
    }

    /// Convenience: Table I configuration (the defaults).
    pub fn paper_table1() -> Self {
        Self::default()
    }

    /// Small configuration for fast tests: 4x4 mesh, 1 vnet.
    pub fn small_test() -> Self {
        NocConfig {
            topology: TopologySpec::Mesh { k: 4 },
            vnets: 1,
            watchdog_cycles: 20_000,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn defaults_match_table1() {
        let c = NocConfig::default();
        assert_eq!(c.topology, TopologySpec::Mesh { k: 8 });
        assert_eq!(c.buf_depth, 6);
        assert_eq!(c.regular_vcs, 3);
        assert_eq!(c.escape_vcs, 1);
        assert_eq!(c.vnets, 3);
        assert_eq!(ROUTER_STAGES, 3);
        assert_eq!(c.link_latency, 1);
        assert_eq!(c.wakeup_latency, 10);
        assert_eq!(c.synth_packet_len, 4);
        c.validate().unwrap();
    }

    #[test]
    fn vc_index_roundtrip() {
        let c = NocConfig::default();
        for vnet in 0..c.vnets {
            for vc in 0..c.vcs_per_vnet() {
                let idx = c.vc_index(vnet, vc);
                assert_eq!(c.vc_split(idx), (vnet, vc));
                assert!(idx < c.total_vcs());
            }
        }
    }

    #[test]
    fn escape_vc_is_last() {
        let c = NocConfig::default();
        assert_eq!(c.escape_vc(), Some(3));
        assert!(c.is_escape_vc(3));
        assert!(!c.is_escape_vc(2));
        let no_escape = NocConfig { escape_vcs: 0, ..NocConfig::default() };
        assert_eq!(no_escape.escape_vc(), None);
    }

    #[test]
    fn validate_rejects_tiny_mesh() {
        let c = NocConfig { topology: TopologySpec::Mesh { k: 1 }, ..NocConfig::default() };
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::RadixTooSmall { kx: 1, ky: 1 });
        assert!(err.to_string().contains("mesh radix"));
    }

    #[test]
    fn validate_gates_the_ring_on_topology() {
        // Odd square mesh: no Hamiltonian cycle — the paper's §II critique.
        let ring_on = |topology| NocConfig { topology, enable_ring: true, ..NocConfig::default() };
        let odd = ring_on(TopologySpec::Mesh { k: 5 });
        assert!(matches!(odd.validate(), Err(ConfigError::RingUnsupported { .. })));
        // The same odd radix on a torus admits the tornado cycle.
        ring_on(TopologySpec::Torus { k: 5 }).validate().unwrap();
        // Rectangle with one even side is fine; both odd is not.
        ring_on(TopologySpec::RectMesh { kx: 4, ky: 3 }).validate().unwrap();
        let rect_bad = ring_on(TopologySpec::RectMesh { kx: 5, ky: 3 });
        assert!(matches!(rect_bad.validate(), Err(ConfigError::RingUnsupported { .. })));
        // Ring transfer VC and exit-stamping limits.
        let one_vc = NocConfig { regular_vcs: 1, ..ring_on(TopologySpec::Mesh { k: 4 }) };
        assert_eq!(one_vc.validate(), Err(ConfigError::RingNeedsTransferVc));
        let huge = ring_on(TopologySpec::Mesh { k: 18 });
        assert_eq!(huge.validate(), Err(ConfigError::RingTooLarge { nodes: 324 }));
    }

    #[test]
    fn validate_requires_escape_on_torus() {
        let c = NocConfig {
            topology: TopologySpec::Torus { k: 4 },
            escape_vcs: 0,
            ..NocConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::TorusNeedsEscapeVc));
    }

    #[test]
    fn validate_bounds_node_ids() {
        let at = |topology| NocConfig { topology, ..NocConfig::default() };
        let err = |routers, cores| Err(ConfigError::TooManyNodes { routers, cores });
        // 16 routers but 80,000 cores: core ids would alias modulo 2^16.
        assert_eq!(at(TopologySpec::CMesh { k: 4, c: 5_000 }).validate(), err(16, 80_000));
        assert_eq!(at(TopologySpec::RectMesh { kx: 300, ky: 300 }).validate(), err(90_000, 90_000));
        // 65,536 cores: `65_536 as NodeId` is 0, an empty id range.
        assert_eq!(at(TopologySpec::CMesh { k: 4, c: 4_096 }).validate(), err(16, 65_536));
        // The limit itself is legal.
        at(TopologySpec::RectMesh { kx: 13_107, ky: 5 }).validate().unwrap();
        assert_eq!(at(TopologySpec::RectMesh { kx: 256, ky: 256 }).validate(), err(65_536, 65_536));
    }

    #[test]
    fn validate_bounds_vc_bitmasks() {
        let c = NocConfig { vnets: 13, regular_vcs: 4, escape_vcs: 1, ..NocConfig::default() };
        assert_eq!(c.validate(), Err(ConfigError::TooManyVcs { total: 65 }));
    }

    #[test]
    fn validate_bounds_buffer_depth() {
        let at = |buf_depth| NocConfig { buf_depth, ..NocConfig::default() }.validate();
        for depth in [0, 256, 65_536, 65_542] {
            assert_eq!(at(depth), Err(ConfigError::BufDepthOutOfRange { depth }));
        }
        // Table I's 6, the ablation's 2..=8 and the limit itself are legal.
        for depth in [1, 2, 6, 8, MAX_BUF_DEPTH] {
            assert_eq!(at(depth), Ok(()));
        }
    }

    #[test]
    fn validate_bounds_link_latency() {
        let at = |link_latency| NocConfig { link_latency, ..NocConfig::default() }.validate();
        for latency in [0, MAX_LINK_LATENCY + 1, 1_000, u32::MAX] {
            assert_eq!(at(latency), Err(ConfigError::LinkLatencyOutOfRange { latency }));
        }
        // Table I's one-cycle links and the limit itself are legal.
        for latency in [1, 2, MAX_LINK_LATENCY] {
            assert_eq!(at(latency), Ok(()));
        }
        let msg = at(0).unwrap_err().to_string();
        assert_eq!(msg, format!("link latency 0 is outside 1..={MAX_LINK_LATENCY} cycles"));
    }

    #[test]
    fn node_count() {
        assert_eq!(NocConfig::default().nodes(), 64);
        assert_eq!(NocConfig::small_test().nodes(), 16);
        let cmesh =
            NocConfig { topology: TopologySpec::CMesh { k: 4, c: 4 }, ..NocConfig::default() };
        assert_eq!(cmesh.nodes(), 16);
        assert_eq!(cmesh.cores(), 64);
    }

    #[test]
    fn v4_encoding_names_each_field_once() {
        // The result cache keys on these bytes: the derive writes the
        // fields in declaration order, the topology first.
        let c = NocConfig { topology: TopologySpec::CMesh { k: 4, c: 4 }, ..NocConfig::default() };
        let v = c.to_value();
        let Value::Map(entries) = &v else { panic!("config must encode as a map") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "topology",
                "vnets",
                "regular_vcs",
                "escape_vcs",
                "buf_depth",
                "link_latency",
                "wakeup_latency",
                "idle_threshold",
                "escape_timeout",
                "synth_packet_len",
                "enable_ring",
                "watchdog_cycles"
            ]
        );
        assert_eq!(entries[0].1, c.topology.to_value());
        assert_eq!(NocConfig::from_value(&v).unwrap(), c);
        // A v3 encoding (a bare `k` in place of `topology`) no longer parses.
        let mut v3 = entries.clone();
        v3[0] = ("k".into(), 4u16.to_value());
        let err = NocConfig::from_value(&Value::Map(v3)).unwrap_err().to_string();
        assert!(err.contains("topology"), "{err}");
    }
}
