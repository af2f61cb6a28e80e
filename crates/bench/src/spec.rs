//! Run specifications and results.
//!
//! A [`RunSpec`] is a complete, serializable description of one
//! simulation: config, mechanism, workload, measurement window, and power
//! model. Specs round-trip through JSON with a canonical encoding, which
//! is what the result cache keys on — two specs that serialize to the
//! same bytes are the same experiment. Build them with
//! [`RunSpec::builder`] (paper defaults, fluent overrides) or the
//! [`RunSpec::synthetic_paper`] / [`RunSpec::parsec`] shorthands.

use flov_noc::config::ConfigError;
use flov_noc::stats::IntervalSample;
use flov_noc::topology::TopologySpec;
use flov_noc::types::Cycle;
use flov_noc::NocConfig;
use flov_power::{PowerParams, PowerReport};
use flov_workloads::Pattern;
use serde::{Deserialize, Serialize};

/// Workload selection for one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// §VI-B synthetic traffic.
    Synthetic {
        pattern: Pattern,
        /// flits/cycle/node.
        rate: f64,
        /// Fraction of cores power-gated.
        gated_fraction: f64,
        seed: u64,
        /// Cycles at which the gated set is re-randomized (Fig. 10).
        changes: Vec<Cycle>,
    },
    /// §VI-B-3 full-system traffic (PARSEC proxy); runs to completion.
    Parsec { name: String, seed: u64 },
    /// MMPP bursty traffic: synthetic injection whose rate walks `rates`
    /// cyclically, dwelling geometrically with mean `mean_dwell` cycles.
    Mmpp {
        pattern: Pattern,
        /// Per-phase rates \[flits/cycle/node\], visited cyclically.
        rates: Vec<f64>,
        /// Mean phase dwell \[cycles\] (geometric, >= 1).
        mean_dwell: Cycle,
        gated_fraction: f64,
        seed: u64,
    },
    /// Diurnal load curve: like [`WorkloadSpec::Mmpp`] but with fixed
    /// `dwell`-cycle phases (a deterministic day/night rate schedule).
    Diurnal {
        pattern: Pattern,
        rates: Vec<f64>,
        /// Exact phase length \[cycles\] (>= 1).
        dwell: Cycle,
        gated_fraction: f64,
        seed: u64,
    },
    /// Replay a recorded flit trace (see `flov trace record`). The CRC-32C
    /// of the trace file ties the cache key to the trace *content*, not
    /// just its path; `closed_loop` runs to trace completion instead of
    /// the fixed cycle window.
    Trace { path: String, crc: u32, closed_loop: bool },
}

/// Everything needed to execute one simulation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    pub cfg: NocConfig,
    /// "Baseline" | "RP" | "RP-aggressive" | "rFLOV" | "gFLOV" | "NoRD" |
    /// "PowerPunch".
    pub mechanism: String,
    pub workload: WorkloadSpec,
    /// Warmup cycles excluded from measurement (paper: 10k).
    pub warmup: Cycle,
    /// Synthetic: total run length (paper: 100k). Parsec: cycle cap.
    pub cycles: Cycle,
    /// Extra cycles allowed for in-flight packets after a synthetic run.
    pub drain: Cycle,
    /// Latency-timeline bucket width (0 = off); used by Fig. 10.
    pub timeline_width: u64,
    pub power_params: PowerParams,
    /// Attach the invariant auditor ([`flov_noc::audit`]) at its default
    /// interval. Auditing is read-only — results are bit-identical either
    /// way — but the periodic sweep costs time, so it is off by default.
    /// The `FLOV_AUDIT` environment variable overrides this (see
    /// [`crate::audit_override`]).
    pub audit: bool,
    /// Mid-run mechanism switches: at each `(cycle, name)`, in order, the
    /// running mechanism is replaced by `name` (same config; mechanism
    /// state starts fresh). Only legal "loosening" switches are accepted
    /// — Baseline→{rFLOV,gFLOV} and rFLOV→gFLOV — since a stricter
    /// protocol's invariants do not hold over a looser one's fabric.
    /// Synthetic workloads only. Empty = never switch.
    pub mech_switches: Vec<(Cycle, String)>,
}

impl RunSpec {
    /// A builder pre-loaded with the paper's synthetic methodology
    /// (Table 1 config, uniform random at 0.02 flits/cycle/node, 10k
    /// warmup / 100k cycles, gFLOV).
    pub fn builder() -> RunSpecBuilder {
        RunSpecBuilder::default()
    }

    /// The paper's synthetic methodology: 10k warmup, 100k cycles.
    pub fn synthetic_paper(
        mechanism: &str,
        pattern: Pattern,
        rate: f64,
        gated_fraction: f64,
        seed: u64,
    ) -> RunSpec {
        RunSpec::builder()
            .mechanism(mechanism)
            .pattern(pattern)
            .rate(rate)
            .gated_fraction(gated_fraction)
            .seed(seed)
            .build()
    }

    /// Full-system run of one PARSEC-proxy benchmark to completion.
    pub fn parsec(mechanism: &str, bench: &str, seed: u64) -> RunSpec {
        RunSpec::builder().mechanism(mechanism).parsec(bench).seed(seed).build()
    }

    /// Canonicalize mechanism-implied config requirements, in place:
    /// NoRD needs the bypass ring, PowerPunch models no escape VCs. Both
    /// the builder and the runner apply this, so a spec constructed by
    /// hand, deserialized from JSON, or built fluently all execute — and
    /// cache — identically. Idempotent.
    pub fn resolve(&mut self) {
        if self.mechanism == "NoRD" {
            self.cfg.enable_ring = true;
        }
        if self.mechanism == "PowerPunch" {
            self.cfg = flov_core::punch_config(&self.cfg);
        }
    }

    /// [`RunSpec::resolve`], by value.
    pub fn resolved(&self) -> RunSpec {
        let mut s = self.clone();
        s.resolve();
        s
    }

    /// Full spec validation: the mechanism name, the resolved config's
    /// structural checks, the mechanism switches, plus workload-level
    /// sanity — notably rejecting over-saturated injection rates, which
    /// `SyntheticWorkload` would otherwise silently clamp to one packet
    /// per node-cycle (a different experiment than requested).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !flov_core::mechanism::NAMES.contains(&self.mechanism.as_str()) {
            return Err(ConfigError::UnknownMechanism { name: self.mechanism.clone() });
        }
        let resolved = self.resolved();
        resolved.cfg.validate()?;
        if !self.mech_switches.is_empty() && matches!(self.workload, WorkloadSpec::Parsec { .. }) {
            return Err(ConfigError::SwitchOnParsec);
        }
        let (mut from, mut after) = (self.mechanism.as_str(), 0);
        for (at, to) in &self.mech_switches {
            if *at < after {
                return Err(ConfigError::UnorderedSwitches { at: *at, after });
            }
            if !loosens(from, to) {
                return Err(ConfigError::IllegalSwitch {
                    from: from.to_string(),
                    to: to.clone(),
                    at: *at,
                });
            }
            (from, after) = (to, *at);
        }
        let pkt_len = resolved.cfg.synth_packet_len;
        let rate_ok = |rate: f64| {
            if rate.is_finite() && (0.0..=pkt_len as f64).contains(&rate) {
                Ok(())
            } else {
                Err(ConfigError::OversaturatedRate { rate, pkt_len })
            }
        };
        let gated_ok = |fraction: f64| {
            if (0.0..=1.0).contains(&fraction) {
                Ok(())
            } else {
                Err(ConfigError::InvalidGatedFraction { fraction })
            }
        };
        let rates_ok = |rates: &[f64]| {
            if rates.is_empty() {
                return Err(ConfigError::InvalidModulation {
                    why: "at least one phase rate is required",
                });
            }
            rates.iter().try_for_each(|&r| rate_ok(r))
        };
        match &self.workload {
            WorkloadSpec::Synthetic { rate, gated_fraction, .. } => {
                gated_ok(*gated_fraction)?;
                rate_ok(*rate)
            }
            WorkloadSpec::Parsec { name, .. } => {
                let cfg = &resolved.cfg;
                if flov_workloads::benchmark(name).is_none() {
                    Err(ConfigError::UnknownBenchmark { name: name.clone() })
                } else if cfg.kx() != cfg.ky() || cfg.concentration() != 1 {
                    Err(ConfigError::ParsecNeedsSquareGrid {
                        topology: cfg.topology_spec().label(),
                    })
                } else {
                    Ok(())
                }
            }
            WorkloadSpec::Trace { path, crc, .. } => {
                crate::tracefmt::load_trace(path, *crc, resolved.cfg.cores()).map(drop)
            }
            WorkloadSpec::Mmpp { rates, mean_dwell, gated_fraction, .. } => {
                gated_ok(*gated_fraction)?;
                rates_ok(rates)?;
                if *mean_dwell == 0 {
                    return Err(ConfigError::InvalidModulation {
                        why: "mean phase dwell must be at least one cycle",
                    });
                }
                Ok(())
            }
            WorkloadSpec::Diurnal { rates, dwell, gated_fraction, .. } => {
                gated_ok(*gated_fraction)?;
                rates_ok(rates)?;
                if *dwell == 0 {
                    return Err(ConfigError::InvalidModulation {
                        why: "phase dwell must be at least one cycle",
                    });
                }
                Ok(())
            }
        }
    }
}

/// True if a mid-run switch from mechanism `from` to `to` loosens the
/// protocol (see [`RunSpec::mech_switches`]).
pub(crate) fn loosens(from: &str, to: &str) -> bool {
    matches!((from, to), ("Baseline", "rFLOV" | "gFLOV") | ("rFLOV", "gFLOV"))
}

/// Fluent constructor for [`RunSpec`]; see [`RunSpec::builder`].
#[derive(Clone, Debug)]
pub struct RunSpecBuilder {
    cfg: NocConfig,
    mechanism: String,
    pattern: Pattern,
    rate: f64,
    gated_fraction: f64,
    seed: u64,
    changes: Vec<Cycle>,
    parsec: Option<String>,
    mmpp: Option<(Vec<f64>, Cycle)>,
    diurnal: Option<(Vec<f64>, Cycle)>,
    trace: Option<(String, u32, bool)>,
    warmup: Cycle,
    cycles: Cycle,
    drain: Cycle,
    timeline_width: u64,
    power_params: PowerParams,
    audit: bool,
    mech_switches: Vec<(Cycle, String)>,
}

impl Default for RunSpecBuilder {
    fn default() -> Self {
        RunSpecBuilder {
            cfg: NocConfig::paper_table1(),
            mechanism: "gFLOV".into(),
            pattern: Pattern::UniformRandom,
            rate: 0.02,
            gated_fraction: 0.0,
            seed: 0xF10F,
            changes: Vec::new(),
            parsec: None,
            mmpp: None,
            diurnal: None,
            trace: None,
            warmup: 10_000,
            cycles: 100_000,
            drain: 100_000,
            timeline_width: 0,
            power_params: PowerParams::default(),
            audit: false,
            mech_switches: Vec::new(),
        }
    }
}

impl RunSpecBuilder {
    /// Power-gating mechanism by name (see `flov_core::mechanism`).
    pub fn mechanism(mut self, m: &str) -> Self {
        self.mechanism = m.into();
        self
    }

    /// Replace the whole NoC config.
    pub fn cfg(mut self, cfg: NocConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Mesh radix shorthand: a `k x k` network.
    pub fn k(mut self, k: u16) -> Self {
        self.cfg.k = k;
        self
    }

    /// Select the fabric topology. `Mesh { k }` is spelled as the bare
    /// `k` field instead, keeping the serialized spec — and so the result
    /// cache key — byte-identical to the pre-topology encoding.
    pub fn topology(mut self, t: TopologySpec) -> Self {
        if let TopologySpec::Mesh { k } = t {
            self.cfg.k = k;
            self.cfg.topology = None;
        } else {
            self.cfg.topology = Some(t);
        }
        self
    }

    /// Synthetic traffic pattern.
    pub fn pattern(mut self, p: Pattern) -> Self {
        self.pattern = p;
        self
    }

    /// Injection rate \[flits/cycle/node\].
    pub fn rate(mut self, r: f64) -> Self {
        self.rate = r;
        self
    }

    /// Fraction of cores power-gated.
    pub fn gated_fraction(mut self, f: f64) -> Self {
        self.gated_fraction = f;
        self
    }

    /// Workload seed (also salts the injection-process PRNG).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Cycles at which the gated set is re-randomized (Fig. 10).
    pub fn changes(mut self, c: Vec<Cycle>) -> Self {
        self.changes = c;
        self
    }

    /// Switch to the PARSEC-proxy workload `name`, adopting the
    /// full-system methodology (no warmup, 3M-cycle cap, no drain).
    /// Call [`cycles`](Self::cycles) *after* this to change the cap.
    pub fn parsec(mut self, name: &str) -> Self {
        self.parsec = Some(name.into());
        self.warmup = 0;
        self.cycles = 3_000_000;
        self.drain = 0;
        self
    }

    /// Switch to MMPP bursty traffic: the injection rate walks `rates`
    /// cyclically with geometric phase dwells of mean `mean_dwell` cycles.
    /// Keeps the synthetic run shape (warmup / cycles / drain).
    pub fn mmpp(mut self, rates: Vec<f64>, mean_dwell: Cycle) -> Self {
        self.mmpp = Some((rates, mean_dwell));
        self
    }

    /// Switch to a diurnal load curve: `rates` phases of exactly `dwell`
    /// cycles each. Keeps the synthetic run shape.
    pub fn diurnal(mut self, rates: Vec<f64>, dwell: Cycle) -> Self {
        self.diurnal = Some((rates, dwell));
        self
    }

    /// Replay a recorded flit trace. `crc` is the trace file's CRC-32C
    /// (cache-key content binding; `flov trace record` prints it);
    /// `closed_loop` runs to trace completion instead of the cycle window.
    pub fn trace(mut self, path: &str, crc: u32, closed_loop: bool) -> Self {
        self.trace = Some((path.into(), crc, closed_loop));
        self
    }

    /// Warmup cycles excluded from measurement.
    pub fn warmup(mut self, w: Cycle) -> Self {
        self.warmup = w;
        self
    }

    /// Synthetic: total run length. Parsec: cycle cap.
    pub fn cycles(mut self, c: Cycle) -> Self {
        self.cycles = c;
        self
    }

    /// Extra cycles allowed for in-flight packets after a synthetic run.
    pub fn drain(mut self, d: Cycle) -> Self {
        self.drain = d;
        self
    }

    /// Latency-timeline bucket width (0 = off).
    pub fn timeline_width(mut self, w: u64) -> Self {
        self.timeline_width = w;
        self
    }

    /// Replace the power model parameters.
    pub fn power_params(mut self, p: PowerParams) -> Self {
        self.power_params = p;
        self
    }

    /// Attach the invariant auditor (see [`RunSpec::audit`]).
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Mid-run mechanism switches (see [`RunSpec::mech_switches`]).
    pub fn mech_switches(mut self, s: Vec<(Cycle, String)>) -> Self {
        self.mech_switches = s;
        self
    }

    /// Assemble the spec, applying [`RunSpec::resolve`]. Workload
    /// precedence when several selectors were called: trace, then PARSEC,
    /// then MMPP, then diurnal, then plain synthetic.
    pub fn build(self) -> RunSpec {
        let workload = if let Some((path, crc, closed_loop)) = self.trace {
            WorkloadSpec::Trace { path, crc, closed_loop }
        } else if let Some(name) = self.parsec {
            WorkloadSpec::Parsec { name, seed: self.seed }
        } else if let Some((rates, mean_dwell)) = self.mmpp {
            WorkloadSpec::Mmpp {
                pattern: self.pattern,
                rates,
                mean_dwell,
                gated_fraction: self.gated_fraction,
                seed: self.seed,
            }
        } else if let Some((rates, dwell)) = self.diurnal {
            WorkloadSpec::Diurnal {
                pattern: self.pattern,
                rates,
                dwell,
                gated_fraction: self.gated_fraction,
                seed: self.seed,
            }
        } else {
            WorkloadSpec::Synthetic {
                pattern: self.pattern,
                rate: self.rate,
                gated_fraction: self.gated_fraction,
                seed: self.seed,
                changes: self.changes,
            }
        };
        let mut spec = RunSpec {
            cfg: self.cfg,
            mechanism: self.mechanism,
            workload,
            warmup: self.warmup,
            cycles: self.cycles,
            drain: self.drain,
            timeline_width: self.timeline_width,
            power_params: self.power_params,
            audit: self.audit,
            mech_switches: self.mech_switches,
        };
        spec.resolve();
        spec
    }
}

/// Everything a figure needs from one run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    pub mechanism: String,
    /// Packets measured (born inside the window).
    pub packets: u64,
    /// Mean total packet latency \[cycles\].
    pub avg_latency: f64,
    pub max_latency: u64,
    /// (p50, p95, p99) latency bucket *lower* edges (powers of two; see
    /// `LatencyHistogram::quantile_lower` for the exact convention).
    pub latency_percentiles: (u64, u64, u64),
    /// Per-packet averages: \[router, link, serialization, contention, flov\].
    pub breakdown: [f64; 5],
    pub avg_hops: f64,
    pub avg_flov_hops: f64,
    pub escape_packets: u64,
    pub escape_diversions: u64,
    /// Delivered flits/cycle over the window.
    pub throughput: f64,
    pub power: PowerReport,
    /// Cycle count at the end of the measured portion (Parsec: completion).
    pub runtime_cycles: u64,
    /// Node-cycles of mechanism-stalled injection: each node with backlog
    /// blocked by the injection gate counts once per cycle. (The field name
    /// predates the node-cycle clarification; it is kept for cache-entry
    /// compatibility.)
    pub stalled_injection_cycles: u64,
    pub gating_events: u64,
    pub flov_latch_flits: u64,
    /// Flit hops on the NoRD bypass ring over the window.
    pub ring_flits: u64,
    /// Per-vnet (packets, avg latency) for the first three message classes.
    pub vnet_latency: [(u64, f64); 3],
    pub timeline: Vec<IntervalSample>,
    /// True if every injected packet was delivered by the end of the run.
    pub delivered_all: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_defaults_match_methodology() {
        let s = RunSpec::synthetic_paper("gFLOV", Pattern::UniformRandom, 0.02, 0.3, 1);
        assert_eq!(s.warmup, 10_000);
        assert_eq!(s.cycles, 100_000);
        assert_eq!(s.cfg.k, 8);
        assert_eq!(s.mechanism, "gFLOV");
    }

    #[test]
    fn parsec_spec_runs_to_completion() {
        let s = RunSpec::parsec("RP", "canneal", 2);
        assert_eq!(s.warmup, 0);
        assert!(matches!(s.workload, WorkloadSpec::Parsec { .. }));
    }

    #[test]
    fn builder_defaults_match_paper_constructor() {
        let b = RunSpec::builder().mechanism("rFLOV").gated_fraction(0.3).seed(7).build();
        let c = RunSpec::synthetic_paper("rFLOV", Pattern::UniformRandom, 0.02, 0.3, 7);
        assert_eq!(b, c);
    }

    #[test]
    fn builder_parsec_matches_parsec_constructor() {
        let b = RunSpec::builder().mechanism("RP").parsec("canneal").seed(2).build();
        assert_eq!(b, RunSpec::parsec("RP", "canneal", 2));
    }

    #[test]
    fn resolve_enables_ring_for_nord() {
        let s = RunSpec::builder().mechanism("NoRD").build();
        assert!(s.cfg.enable_ring);
        // Idempotent: resolving an already-resolved spec changes nothing.
        assert_eq!(s.resolved(), s);
    }

    #[test]
    fn resolve_strips_escape_vcs_for_powerpunch() {
        let s = RunSpec::builder().mechanism("PowerPunch").build();
        assert_eq!(s.cfg.escape_vcs, 0);
        assert_eq!(s.resolved(), s);
    }

    #[test]
    fn builder_k_shorthand_sets_mesh_radix() {
        let s = RunSpec::builder().k(4).build();
        assert_eq!(s.cfg.k, 4);
    }

    #[test]
    fn validate_rejects_oversaturated_rate() {
        // Table I packets are 4 flits: a 5 flits/cycle/node request would
        // silently clamp to one packet per node-cycle. Validation rejects
        // it instead of running the wrong experiment.
        let s = RunSpec::builder().rate(5.0).build();
        assert_eq!(s.validate(), Err(ConfigError::OversaturatedRate { rate: 5.0, pkt_len: 4 }));
        // The saturation boundary itself (rate == pkt_len) is legal.
        assert_eq!(RunSpec::builder().rate(4.0).build().validate(), Ok(()));
        // Negative and non-finite rates are the same class of error.
        assert!(RunSpec::builder().rate(-0.1).build().validate().is_err());
        assert!(RunSpec::builder().rate(f64::NAN).build().validate().is_err());
        // validate() includes the structural config checks.
        let mut bad = RunSpec::builder().build();
        bad.cfg.vnets = 0;
        assert_eq!(bad.validate(), Err(ConfigError::NoVnets));
    }

    #[test]
    fn validate_rejects_out_of_range_gated_fraction() {
        // Rounding `nodes * fraction` would turn 1.5 into "every core" and
        // -1 or NaN into "no core": a different experiment than requested.
        for f in [1.5, -0.1, -1.0, f64::NAN, f64::INFINITY] {
            let s = RunSpec::builder().gated_fraction(f).build();
            match s.validate() {
                Err(ConfigError::InvalidGatedFraction { fraction }) => {
                    assert_eq!(fraction.to_bits(), f.to_bits())
                }
                other => panic!("gated fraction {f} validated as {other:?}"),
            }
        }
        // Both ends of the range are legal.
        assert_eq!(RunSpec::builder().gated_fraction(0.0).build().validate(), Ok(()));
        assert_eq!(RunSpec::builder().gated_fraction(1.0).build().validate(), Ok(()));
        // The modulated workloads carry the same field and the same check.
        for s in [
            RunSpec::builder().mmpp(vec![0.1], 1_000).gated_fraction(2.0).build(),
            RunSpec::builder().diurnal(vec![0.1], 1_000).gated_fraction(f64::NAN).build(),
        ] {
            assert!(matches!(s.validate(), Err(ConfigError::InvalidGatedFraction { .. })));
        }
    }

    #[test]
    fn validate_checks_modulated_workloads() {
        assert_eq!(RunSpec::builder().mmpp(vec![0.001, 0.3], 2_000).build().validate(), Ok(()));
        assert_eq!(RunSpec::builder().diurnal(vec![0.0, 0.2], 5_000).build().validate(), Ok(()));
        // Every phase rate is checked, not just the first.
        assert_eq!(
            RunSpec::builder().mmpp(vec![0.001, 9.0], 2_000).build().validate(),
            Err(ConfigError::OversaturatedRate { rate: 9.0, pkt_len: 4 })
        );
        assert!(matches!(
            RunSpec::builder().mmpp(vec![], 2_000).build().validate(),
            Err(ConfigError::InvalidModulation { .. })
        ));
        assert!(matches!(
            RunSpec::builder().mmpp(vec![0.1], 0).build().validate(),
            Err(ConfigError::InvalidModulation { .. })
        ));
        assert!(matches!(
            RunSpec::builder().diurnal(vec![0.1], 0).build().validate(),
            Err(ConfigError::InvalidModulation { .. })
        ));
    }

    #[test]
    fn builder_workload_precedence_and_shapes() {
        let s = RunSpec::builder().mmpp(vec![0.01, 0.3], 1_000).build();
        assert!(matches!(&s.workload, WorkloadSpec::Mmpp { rates, mean_dwell: 1_000, .. }
            if rates == &[0.01, 0.3]));
        // The modulated workloads keep the synthetic run shape.
        assert_eq!(s.warmup, 10_000);
        assert_eq!(s.cycles, 100_000);

        let s = RunSpec::builder().trace("results/t.flovtrace", 0xDEAD_BEEF, true).build();
        assert!(
            matches!(&s.workload, WorkloadSpec::Trace { crc: 0xDEAD_BEEF, closed_loop: true, path }
            if path == "results/t.flovtrace")
        );

        // Trace wins over every other selector (it *is* the recorded run).
        let s = RunSpec::builder().mmpp(vec![0.1], 10).trace("t", 1, false).build();
        assert!(matches!(s.workload, WorkloadSpec::Trace { .. }));
    }

    #[test]
    fn legacy_workload_encodings_are_stable() {
        // Adding WorkloadSpec variants must not perturb the serialized form
        // of the existing ones: the result cache keys on these bytes.
        let synth = RunSpec::builder().build();
        let json = serde_json::to_string(&synth.workload).unwrap();
        assert_eq!(
            json,
            "{\"Synthetic\":{\"pattern\":\"UniformRandom\",\"rate\":0.02,\
             \"gated_fraction\":0.0,\"seed\":61711,\"changes\":[]}}"
        );
        let parsec = RunSpec::parsec("RP", "canneal", 2);
        let json = serde_json::to_string(&parsec.workload).unwrap();
        assert_eq!(json, "{\"Parsec\":{\"name\":\"canneal\",\"seed\":2}}");
    }
}
