//! Converting simulator activity counters + power-state residency into
//! static/dynamic/total power and energy.

use crate::params::PowerParams;
use flov_noc::activity::{ActivityCounters, Residency};
use serde::{Deserialize, Serialize};

/// What a power-gated router keeps alive, which differs per mechanism:
/// FLOV keeps the output latches and HSC powered (fly-over capability);
/// Router Parking turns routers off completely; the Baseline never gates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GatedResidual {
    /// FLOV: latches + muxes + HSC stay on while gated.
    FlovLatches,
    /// RP: nothing stays on in a parked router.
    FullyOff,
    /// NoRD: gated routers are fully off, but every node's ring bypass
    /// station leaks constantly (the ring is always on).
    NordBypass,
}

impl GatedResidual {
    /// Residual for a mechanism by its paper name.
    pub fn for_mechanism(name: &str) -> GatedResidual {
        match name {
            "rFLOV" | "gFLOV" => GatedResidual::FlovLatches,
            "NoRD" => GatedResidual::NordBypass,
            _ => GatedResidual::FullyOff,
        }
    }
}

/// Dynamic-energy breakdown by component \[J\].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DynamicEnergy {
    pub buffers: f64,
    /// NoRD bypass-ring hop energy.
    pub ring: f64,
    pub crossbar: f64,
    pub arbitration: f64,
    pub links: f64,
    pub flov_latches: f64,
    pub credits: f64,
    pub handshake: f64,
    pub gating: f64,
}

impl DynamicEnergy {
    pub fn total(&self) -> f64 {
        self.buffers
            + self.ring
            + self.crossbar
            + self.arbitration
            + self.links
            + self.flov_latches
            + self.credits
            + self.handshake
            + self.gating
    }
}

/// Power/energy report over one measurement window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Window length in cycles.
    pub cycles: u64,
    /// Window length in seconds.
    pub seconds: f64,
    /// Average static (leakage) power \[W\].
    pub static_w: f64,
    /// Static power of routers alone \[W\].
    pub static_router_w: f64,
    /// Static power of links alone \[W\].
    pub static_link_w: f64,
    /// Average dynamic power \[W\].
    pub dynamic_w: f64,
    /// Dynamic breakdown \[J\] over the window.
    pub dynamic_energy: DynamicEnergy,
    /// static + dynamic \[W\].
    pub total_w: f64,
}

impl PowerReport {
    /// Static energy over the window \[J\].
    pub fn static_j(&self) -> f64 {
        self.static_w * self.seconds
    }

    /// Dynamic energy over the window \[J\].
    pub fn dynamic_j(&self) -> f64 {
        self.dynamic_w * self.seconds
    }

    /// Total energy over the window \[J\].
    pub fn total_j(&self) -> f64 {
        self.total_w * self.seconds
    }
}

/// Number of directed inter-router links in a `k x k` mesh
/// (each bidirectional mesh channel is two directed links).
pub fn directed_links(k: u16) -> u64 {
    4 * k as u64 * (k as u64 - 1)
}

/// Compute the power report for one measurement window.
///
/// * `activity` — counter *delta* over the window;
/// * `residency` — per-router powered/gated cycle counts over the window;
/// * `cycles` — window length;
/// * `residual` — what gated routers keep alive (mechanism-dependent).
pub fn compute(
    params: &PowerParams,
    k: u16,
    activity: &ActivityCounters,
    residency: &[Residency],
    cycles: u64,
    residual: GatedResidual,
) -> PowerReport {
    compute_links(params, directed_links(k), activity, &[(residual, residency.to_vec())], cycles)
}

/// [`compute`] with an explicit directed-link count, for fabrics that are
/// not `k x k` meshes (torus wrap links, rectangular grids), over a window
/// split into intervals that each carry their own residual and residency:
/// a run that switches mechanism prices each interval by the mechanism
/// that ran it, and static router power weights each interval by its
/// length. Dynamic energy does not depend on the residual.
pub fn compute_links(
    params: &PowerParams,
    links: u64,
    activity: &ActivityCounters,
    intervals: &[(GatedResidual, Vec<Residency>)],
    cycles: u64,
) -> PowerReport {
    assert!(cycles > 0, "empty measurement window");
    let seconds = cycles as f64 / params.clock_hz;
    // Every router accrues one residency cycle per cycle, powered or gated.
    let span = |residency: &[Residency]| residency.first().map_or(0, Residency::total);
    let total = intervals.iter().map(|(_, r)| span(r)).sum::<u64>().max(1) as f64;
    let mut static_router_w = 0.0;
    for (residual, residency) in intervals {
        static_router_w +=
            span(residency) as f64 / total * router_leakage(params, residency, *residual);
    }
    let static_link_w = links as f64 * params.p_link_leak;
    let static_w = static_router_w + static_link_w;
    // Dynamic: event counts x per-event energies.
    let e = DynamicEnergy {
        buffers: activity.buffer_writes as f64 * params.e_buffer_write
            + activity.buffer_reads as f64 * params.e_buffer_read,
        ring: activity.ring_flits as f64 * params.e_ring_hop,
        crossbar: activity.xbar_traversals as f64 * params.e_xbar,
        arbitration: (activity.sa_grants + activity.va_grants) as f64 * params.e_arbiter,
        links: activity.link_flits as f64 * params.e_link,
        flov_latches: activity.flov_latch_flits as f64 * params.e_flov_latch,
        credits: activity.credit_msgs as f64 * params.e_credit,
        handshake: activity.handshake_signals as f64 * params.e_handshake,
        gating: activity.gating_events as f64 * params.e_gating_event,
    };
    let dynamic_w = e.total() / seconds;
    PowerReport {
        cycles,
        seconds,
        static_w,
        static_router_w,
        static_link_w,
        dynamic_w,
        dynamic_energy: e,
        total_w: static_w + dynamic_w,
    }
}

/// Average static power of the routers over one interval: leakage weighted
/// by each router's powered/gated residency, plus what `residual` keeps on.
fn router_leakage(params: &PowerParams, residency: &[Residency], residual: GatedResidual) -> f64 {
    let mut w = 0.0;
    for r in residency {
        let total = r.total().max(1) as f64;
        let powered_frac = r.powered as f64 / total;
        let gated_frac = r.gated as f64 / total;
        w += powered_frac * params.p_router_leak;
        match residual {
            GatedResidual::FlovLatches => w += gated_frac * params.p_latch_leak + params.p_hsc_leak,
            GatedResidual::FullyOff => {}
            GatedResidual::NordBypass => w += params.p_ring_node_leak,
        }
    }
    w
}

/// Element-wise residency delta between two snapshots (window extraction).
pub fn residency_delta(end: &[Residency], start: &[Residency]) -> Vec<Residency> {
    assert_eq!(end.len(), start.len());
    end.iter()
        .zip(start)
        .map(|(e, s)| Residency { powered: e.powered - s.powered, gated: e.gated - s.gated })
        .collect()
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn params() -> PowerParams {
        PowerParams::default()
    }

    fn all_powered(n: usize, cycles: u64) -> Vec<Residency> {
        vec![Residency { powered: cycles, gated: 0 }; n]
    }

    #[test]
    fn idle_network_has_zero_dynamic_power() {
        let a = ActivityCounters::default();
        let res = all_powered(64, 1000);
        let r = compute(&params(), 8, &a, &res, 1000, GatedResidual::FullyOff);
        assert_eq!(r.dynamic_w, 0.0);
        assert!(r.static_w > 0.0);
        assert_eq!(r.total_w, r.static_w);
    }

    #[test]
    fn baseline_static_magnitude_plausible() {
        // 64 routers x 13.1 mW + 224 links x 1.1 mW ~ 1.08 W.
        let r = compute(
            &params(),
            8,
            &ActivityCounters::default(),
            &all_powered(64, 100),
            100,
            GatedResidual::FullyOff,
        );
        assert!(r.static_w > 0.8 && r.static_w < 1.5, "static {}", r.static_w);
        assert_eq!(directed_links(8), 224);
    }

    #[test]
    fn gating_reduces_static_power() {
        let full = compute(
            &params(),
            8,
            &ActivityCounters::default(),
            &all_powered(64, 100),
            100,
            GatedResidual::FlovLatches,
        );
        let mut res = all_powered(64, 100);
        for r in res.iter_mut().take(32) {
            *r = Residency { powered: 0, gated: 100 };
        }
        let half = compute(
            &params(),
            8,
            &ActivityCounters::default(),
            &res,
            100,
            GatedResidual::FlovLatches,
        );
        assert!(half.static_w < full.static_w);
        // 32 routers' leakage saved, minus latch residual.
        let saved = full.static_w - half.static_w;
        let expect = 32.0 * (params().p_router_leak - params().p_latch_leak);
        assert!((saved - expect).abs() < 1e-9, "saved {saved} vs {expect}");
    }

    #[test]
    fn rp_gated_router_saves_more_than_flov_gated() {
        let mut res = all_powered(64, 100);
        res[0] = Residency { powered: 0, gated: 100 };
        let a = ActivityCounters::default();
        let flov = compute(&params(), 8, &a, &res, 100, GatedResidual::FlovLatches);
        let rp = compute(&params(), 8, &a, &res, 100, GatedResidual::FullyOff);
        assert!(rp.static_w < flov.static_w);
    }

    #[test]
    fn dynamic_scales_with_activity() {
        let res = all_powered(64, 1000);
        let mut a = ActivityCounters::default();
        a.buffer_writes = 1000;
        a.buffer_reads = 1000;
        a.xbar_traversals = 1000;
        a.link_flits = 1000;
        let r1 = compute(&params(), 8, &a, &res, 1000, GatedResidual::FullyOff);
        let mut a2 = a.clone();
        a2.buffer_writes *= 2;
        a2.buffer_reads *= 2;
        a2.xbar_traversals *= 2;
        a2.link_flits *= 2;
        let r2 = compute(&params(), 8, &a2, &res, 1000, GatedResidual::FullyOff);
        assert!((r2.dynamic_w / r1.dynamic_w - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut a = ActivityCounters::default();
        a.link_flits = 500;
        let r = compute(&params(), 8, &a, &all_powered(64, 2000), 2000, GatedResidual::FullyOff);
        assert!((r.total_j() - (r.static_j() + r.dynamic_j())).abs() < 1e-18);
        assert!((r.seconds - 1e-6).abs() < 1e-12); // 2000 cycles at 2 GHz
    }

    #[test]
    fn gating_events_cost_energy() {
        let mut a = ActivityCounters::default();
        a.gating_events = 100;
        let r = compute(&params(), 8, &a, &all_powered(64, 1000), 1000, GatedResidual::FlovLatches);
        assert!((r.dynamic_energy.gating - 100.0 * 17.7e-12).abs() < 1e-18);
    }

    #[test]
    fn each_interval_is_priced_by_its_residual_and_weighted_by_length() {
        // 300 cycles of FLOV with every router gated 200 of them, then 100
        // cycles of a mechanism that gates fully off.
        let a = ActivityCounters::default();
        let res = |powered, gated| vec![Residency { powered, gated }; 64];
        let flov = compute(&params(), 8, &a, &res(100, 200), 300, GatedResidual::FlovLatches);
        let off = compute(&params(), 8, &a, &res(100, 0), 100, GatedResidual::FullyOff);
        let intervals =
            [(GatedResidual::FlovLatches, res(100, 200)), (GatedResidual::FullyOff, res(100, 0))];
        let both = compute_links(&params(), directed_links(8), &a, &intervals, 400);
        let expect = (3.0 * flov.static_router_w + off.static_router_w) / 4.0;
        assert!((both.static_router_w - expect).abs() < 1e-12, "{both:?}");
    }

    #[test]
    fn residency_delta_subtracts() {
        let start = vec![Residency { powered: 10, gated: 5 }];
        let end = vec![Residency { powered: 25, gated: 11 }];
        let d = residency_delta(&end, &start);
        assert_eq!(d[0], Residency { powered: 15, gated: 6 });
    }

    #[test]
    fn mechanism_residual_mapping() {
        assert_eq!(GatedResidual::for_mechanism("rFLOV"), GatedResidual::FlovLatches);
        assert_eq!(GatedResidual::for_mechanism("gFLOV"), GatedResidual::FlovLatches);
        assert_eq!(GatedResidual::for_mechanism("RP"), GatedResidual::FullyOff);
        assert_eq!(GatedResidual::for_mechanism("Baseline"), GatedResidual::FullyOff);
    }
}
