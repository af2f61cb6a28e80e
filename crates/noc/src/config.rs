//! Simulation configuration (paper Table I).

use crate::topology::TopologySpec;
use crate::types::{Cycle, NodeId};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Most routers, and most cores, a fabric may have: ids `0..=65_534`.
/// Router ids keep `NodeId::MAX` free to mark "no neighbor"; core counts
/// must fit `NodeId` themselves, since workloads build id ranges as
/// `0..cores as NodeId`.
pub const MAX_NODES: usize = NodeId::MAX as usize;

/// Deepest input VC buffer: each VC is a ring with 8-bit indices over
/// its slots of the router's flit plane.
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
    /// Zero-stage router pipeline.
    ZeroPipelineStages,
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
            ConfigError::ZeroPipelineStages => write!(f, "router needs at least one stage"),
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

/// Configuration of the simulated NoC.
///
/// Defaults reproduce Table I of the paper:
/// 8x8 mesh, 3-stage routers at 2 GHz, 6-flit input buffers, 3 regular VCs +
/// 1 escape VC per virtual network, 3 virtual networks, 1-cycle 16-byte
/// links, 10-cycle wakeup latency and 17.7 pJ power-gating overhead.
#[derive(Clone, Debug, PartialEq)]
pub struct NocConfig {
    /// Mesh radix: with no explicit [`NocConfig::topology`], the network is
    /// a square `k x k` 2D mesh (the seed behavior).
    pub k: u16,
    /// Number of virtual networks (message classes).
    pub vnets: usize,
    /// Regular (non-escape) VCs per vnet per input port.
    pub regular_vcs: usize,
    /// Escape VCs per vnet (Duato deadlock recovery); the escape VC is the
    /// last VC index of each vnet.
    pub escape_vcs: usize,
    /// Input buffer depth, in flits, per VC.
    pub buf_depth: usize,
    /// Router pipeline depth in cycles (RC / VA+SA / ST).
    pub pipeline_stages: u32,
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
    /// Router/link clock frequency in Hz (2 GHz in the paper). Only Table
    /// I's row reads it: the power model prices time with
    /// `PowerParams::clock_hz`. Kept because it is serialized, so removing
    /// it changes every cache key.
    pub clock_hz: f64,
    /// Unread: nothing reports NIC back-pressure against it (source queues
    /// are unbounded). Kept because it is serialized, so removing it
    /// changes every cache key.
    pub nic_queue_warn: usize,
    /// Enable the NoRD bypass ring (node-router decoupling): a Hamiltonian
    /// ring over all routers that keeps gated nodes reachable without FLOV
    /// links. Requires a topology admitting a Hamiltonian cycle (the
    /// paper's critique of NoRD: a square mesh needs even `k`; a torus or
    /// concentration lifts the restriction), at most 256 routers, and at
    /// least two regular VCs (ring-to-mesh transfers reserve the last one).
    pub enable_ring: bool,
    /// Unread: arbitration tie-breaks are deterministic, and workloads take
    /// their seed from the run's workload spec. Kept because it is
    /// serialized, so removing it changes every cache key.
    pub seed: u64,
    /// Cycles without any network event after which the watchdog declares a
    /// deadlock (0 disables).
    pub watchdog_cycles: u64,
    /// Explicit topology selection; `None` means the default square
    /// `k x k` mesh. Serialized (and thus cache-key-affecting) only when
    /// set, so seed configurations keep byte-identical encodings.
    pub topology: Option<TopologySpec>,
}

// `NocConfig` carries a hand-written serde impl instead of the derive:
// the compat shim has no `skip_serializing_if`, and the `topology` field
// must vanish from the encoding when unset so every pre-topology cache
// key and golden JSON stays byte-identical. Field order below mirrors
// the struct declaration (the shim's canonical map order).
impl Serialize for NocConfig {
    fn to_value(&self) -> Value {
        let mut m: Vec<(String, Value)> = vec![
            ("k".into(), self.k.to_value()),
            ("vnets".into(), self.vnets.to_value()),
            ("regular_vcs".into(), self.regular_vcs.to_value()),
            ("escape_vcs".into(), self.escape_vcs.to_value()),
            ("buf_depth".into(), self.buf_depth.to_value()),
            ("pipeline_stages".into(), self.pipeline_stages.to_value()),
            ("link_latency".into(), self.link_latency.to_value()),
            ("wakeup_latency".into(), self.wakeup_latency.to_value()),
            ("idle_threshold".into(), self.idle_threshold.to_value()),
            ("escape_timeout".into(), self.escape_timeout.to_value()),
            ("synth_packet_len".into(), self.synth_packet_len.to_value()),
            ("clock_hz".into(), self.clock_hz.to_value()),
            ("nic_queue_warn".into(), self.nic_queue_warn.to_value()),
            ("enable_ring".into(), self.enable_ring.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("watchdog_cycles".into(), self.watchdog_cycles.to_value()),
        ];
        if let Some(spec) = &self.topology {
            m.push(("topology".into(), spec.to_value()));
        }
        Value::Map(m)
    }
}

impl Deserialize for NocConfig {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(NocConfig {
            k: u16::from_value(v.field("k")?)?,
            vnets: usize::from_value(v.field("vnets")?)?,
            regular_vcs: usize::from_value(v.field("regular_vcs")?)?,
            escape_vcs: usize::from_value(v.field("escape_vcs")?)?,
            buf_depth: usize::from_value(v.field("buf_depth")?)?,
            pipeline_stages: u32::from_value(v.field("pipeline_stages")?)?,
            link_latency: u32::from_value(v.field("link_latency")?)?,
            wakeup_latency: u32::from_value(v.field("wakeup_latency")?)?,
            idle_threshold: u32::from_value(v.field("idle_threshold")?)?,
            escape_timeout: u32::from_value(v.field("escape_timeout")?)?,
            synth_packet_len: u16::from_value(v.field("synth_packet_len")?)?,
            clock_hz: f64::from_value(v.field("clock_hz")?)?,
            nic_queue_warn: usize::from_value(v.field("nic_queue_warn")?)?,
            enable_ring: bool::from_value(v.field("enable_ring")?)?,
            seed: u64::from_value(v.field("seed")?)?,
            watchdog_cycles: u64::from_value(v.field("watchdog_cycles")?)?,
            // Absent in every pre-topology encoding.
            topology: match v.field("topology") {
                Ok(t) => Option::<TopologySpec>::from_value(t)?,
                Err(_) => None,
            },
        })
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            k: 8,
            vnets: 3,
            regular_vcs: 3,
            escape_vcs: 1,
            buf_depth: 6,
            pipeline_stages: 3,
            link_latency: 1,
            wakeup_latency: 10,
            idle_threshold: 16,
            escape_timeout: 128,
            synth_packet_len: 4,
            clock_hz: 2.0e9,
            nic_queue_warn: 4096,
            enable_ring: false,
            seed: 0xF10F_F10F,
            watchdog_cycles: 50_000,
            topology: None,
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

    /// The effective topology selection (`None` means square `k x k` mesh).
    #[inline]
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology.unwrap_or(TopologySpec::Mesh { k: self.k })
    }

    /// Router-grid width.
    #[inline]
    pub fn kx(&self) -> u16 {
        self.topology_spec().kx()
    }

    /// Router-grid height.
    #[inline]
    pub fn ky(&self) -> u16 {
        self.topology_spec().ky()
    }

    /// Cores per router (1 except for concentrated meshes).
    #[inline]
    pub fn concentration(&self) -> u16 {
        self.topology_spec().concentration()
    }

    /// Number of routers (= nodes of the fabric).
    #[inline]
    pub fn nodes(&self) -> usize {
        self.topology_spec().routers()
    }

    /// Number of cores (traffic endpoints): routers times concentration.
    #[inline]
    pub fn cores(&self) -> usize {
        self.topology_spec().cores()
    }

    /// Validate invariants, returning a structured [`ConfigError`] on
    /// misconfiguration (surfaced by the CLI as a diagnostic; panicking
    /// entry points wrap this).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let spec = self.topology_spec();
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
        if self.pipeline_stages < 1 {
            return Err(ConfigError::ZeroPipelineStages);
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
        NocConfig { k: 4, vnets: 1, watchdog_cycles: 20_000, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = NocConfig::default();
        assert_eq!(c.k, 8);
        assert_eq!(c.buf_depth, 6);
        assert_eq!(c.regular_vcs, 3);
        assert_eq!(c.escape_vcs, 1);
        assert_eq!(c.vnets, 3);
        assert_eq!(c.pipeline_stages, 3);
        assert_eq!(c.link_latency, 1);
        assert_eq!(c.wakeup_latency, 10);
        assert_eq!(c.synth_packet_len, 4);
        assert_eq!(c.clock_hz, 2.0e9);
        assert_eq!(c.topology, None);
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
        let err = NocConfig { k: 1, ..NocConfig::default() }.validate().unwrap_err();
        assert_eq!(err, ConfigError::RadixTooSmall { kx: 1, ky: 1 });
        assert!(err.to_string().contains("mesh radix"));
    }

    #[test]
    fn validate_gates_the_ring_on_topology() {
        // Odd square mesh: no Hamiltonian cycle — the paper's §II critique.
        let odd = NocConfig { k: 5, enable_ring: true, ..NocConfig::default() };
        assert!(matches!(odd.validate(), Err(ConfigError::RingUnsupported { .. })));
        // The same odd radix on a torus admits the tornado cycle.
        let torus = NocConfig {
            topology: Some(TopologySpec::Torus { k: 5 }),
            enable_ring: true,
            ..NocConfig::default()
        };
        torus.validate().unwrap();
        // Rectangle with one even side is fine; both odd is not.
        let rect_ok = NocConfig {
            topology: Some(TopologySpec::RectMesh { kx: 4, ky: 3 }),
            enable_ring: true,
            ..NocConfig::default()
        };
        rect_ok.validate().unwrap();
        let rect_bad = NocConfig {
            topology: Some(TopologySpec::RectMesh { kx: 5, ky: 3 }),
            enable_ring: true,
            ..NocConfig::default()
        };
        assert!(matches!(rect_bad.validate(), Err(ConfigError::RingUnsupported { .. })));
        // Ring transfer VC and exit-stamping limits.
        let one_vc = NocConfig { k: 4, enable_ring: true, regular_vcs: 1, ..NocConfig::default() };
        assert_eq!(one_vc.validate(), Err(ConfigError::RingNeedsTransferVc));
        let huge = NocConfig { k: 18, enable_ring: true, ..NocConfig::default() };
        assert_eq!(huge.validate(), Err(ConfigError::RingTooLarge { nodes: 324 }));
    }

    #[test]
    fn validate_requires_escape_on_torus() {
        let c = NocConfig {
            topology: Some(TopologySpec::Torus { k: 4 }),
            escape_vcs: 0,
            ..NocConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::TorusNeedsEscapeVc));
    }

    #[test]
    fn validate_bounds_node_ids() {
        let at = |topology| NocConfig { topology: Some(topology), ..NocConfig::default() };
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
        let cmesh = NocConfig {
            k: 4,
            topology: Some(TopologySpec::CMesh { k: 4, c: 4 }),
            ..NocConfig::default()
        };
        assert_eq!(cmesh.nodes(), 16);
        assert_eq!(cmesh.cores(), 64);
    }

    #[test]
    fn serialization_is_byte_identical_without_topology() {
        // The seed encoding (no `topology` key) must be preserved exactly:
        // the result cache keys on these bytes.
        let v = NocConfig::default().to_value();
        let Value::Map(entries) = &v else { panic!("config must encode as a map") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "k",
                "vnets",
                "regular_vcs",
                "escape_vcs",
                "buf_depth",
                "pipeline_stages",
                "link_latency",
                "wakeup_latency",
                "idle_threshold",
                "escape_timeout",
                "synth_packet_len",
                "clock_hz",
                "nic_queue_warn",
                "enable_ring",
                "seed",
                "watchdog_cycles"
            ]
        );
        // And it round-trips (missing `topology` key tolerated).
        let back = NocConfig::from_value(&v).unwrap();
        assert_eq!(back, NocConfig::default());
    }

    #[test]
    fn serialization_roundtrips_with_topology() {
        let c = NocConfig {
            topology: Some(TopologySpec::CMesh { k: 4, c: 4 }),
            ..NocConfig::default()
        };
        let v = c.to_value();
        let Value::Map(entries) = &v else { panic!("config must encode as a map") };
        assert_eq!(entries.last().unwrap().0, "topology");
        assert_eq!(NocConfig::from_value(&v).unwrap(), c);
    }
}
