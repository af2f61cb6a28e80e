//! Ablation studies for the design choices DESIGN.md calls out:
//! escape-timeout threshold, idle-detection threshold, Router Parking's
//! Phase-I stall length, buffer depth, VC count, and RP parking policy.
//! Each returns a [`Table`]; `flov ablations` prints them all, and the
//! tests below run each at reduced scale.
//!
//! Sweeps whose knob lives in the [`RunSpec`] go through the [`Engine`]
//! (and therefore the result cache). Sweeps that tweak mechanism-internal
//! parameters the spec cannot see (`min_stall`, `handshake_rtt`) call
//! [`run_with`] directly — caching them by spec would conflate distinct
//! experiments under one key.

use crate::engine::{batch, Engine};
use crate::report::{f2, mw, Table};
use crate::run_with;
use crate::spec::{RunSpec, WorkloadSpec};
use flov_core::{Flov, FlovParams, RouterParking, RpMode};
use flov_workloads::Pattern;

/// Common scenario for the ablations: UR at the paper's low rate, 50%
/// cores gated.
fn base_spec(cycles: u64) -> RunSpec {
    RunSpec::builder()
        .gated_fraction(0.5)
        .warmup(cycles / 10)
        .cycles(cycles)
        .drain(cycles * 2)
        .build()
}

/// Escape-timeout sensitivity: too low floods the single escape VC, too
/// high leaves blocked packets waiting (pre-diversion latency).
pub fn ablate_escape_timeout(engine: &Engine, cycles: u64) -> Table {
    let mut t = Table::new(
        "ablation: escape timeout (gFLOV, UR 0.02, 50% gated)",
        &["timeout [cy]", "avg lat", "max lat", "escape pkts", "diversions"],
    );
    let points = batch(engine, &[16u32, 64, 128, 512], |timeout| {
        let mut spec = base_spec(cycles);
        spec.cfg.escape_timeout = timeout;
        spec
    });
    for (timeout, r) in points {
        t.row(vec![
            timeout.to_string(),
            f2(r.avg_latency),
            r.max_latency.to_string(),
            r.escape_packets.to_string(),
            r.escape_diversions.to_string(),
        ]);
    }
    t
}

/// Idle-detection threshold: how long a router waits for local silence
/// before draining. Lower = more sleep residency but more gating churn.
pub fn ablate_idle_threshold(engine: &Engine, cycles: u64) -> Table {
    let mut t = Table::new(
        "ablation: idle-detect threshold before draining (gFLOV)",
        &["threshold [cy]", "avg lat", "gating events", "static [mW]", "total [mW]"],
    );
    let points = batch(engine, &[4u32, 16, 64, 256], |thr| {
        let mut spec = base_spec(cycles);
        spec.cfg.idle_threshold = thr;
        spec.warmup = 0; // count the gating churn
        spec
    });
    for (thr, r) in points {
        t.row(vec![
            thr.to_string(),
            f2(r.avg_latency),
            r.gating_events.to_string(),
            mw(r.power.static_w),
            mw(r.power.total_w),
        ]);
    }
    t
}

/// Router Parking Phase-I stall length: the paper measures >700 cycles;
/// what would a faster Fabric Manager buy?
pub fn ablate_rp_stall(_engine: &Engine, cycles: u64) -> Table {
    let mut t = Table::new(
        "ablation: RP Phase-I minimum stall (UR 0.02, 10% gated, 2 reconfigs)",
        &["min stall [cy]", "avg lat", "max lat", "stalled node-cycles"],
    );
    for stall in [100u64, 700, 2000] {
        let mut spec = base_spec(cycles);
        spec.workload = WorkloadSpec::Synthetic {
            pattern: Pattern::UniformRandom,
            rate: 0.02,
            gated_fraction: 0.1,
            seed: 0xF10F,
            changes: vec![cycles / 2, cycles * 6 / 10],
        };
        spec.mechanism = "RP".into();
        let mut rp = RouterParking::new(&spec.cfg, RpMode::Aggressive);
        rp.min_stall = stall;
        let r = run_with(&spec, Box::new(rp));
        t.row(vec![
            stall.to_string(),
            f2(r.avg_latency),
            r.max_latency.to_string(),
            r.stalled_injection_cycles.to_string(),
        ]);
    }
    t
}

/// Buffer-depth sensitivity under gFLOV: credit round trips across FLOV
/// chains grow with chain length, so shallow buffers throttle fly-over
/// throughput (the paper's round-trip-credit-latency discussion).
pub fn ablate_buffer_depth(engine: &Engine, cycles: u64) -> Table {
    let mut t = Table::new(
        "ablation: input buffer depth (gFLOV, UR 0.08, 50% gated)",
        &["depth [flits]", "avg lat", "throughput [f/cy]", "contention"],
    );
    let points = batch(engine, &[2usize, 4, 6, 8], |depth| {
        let mut spec = base_spec(cycles);
        spec.cfg.buf_depth = depth;
        if let WorkloadSpec::Synthetic { ref mut rate, .. } = spec.workload {
            *rate = 0.08;
        }
        spec
    });
    for (depth, r) in points {
        t.row(vec![depth.to_string(), f2(r.avg_latency), f2(r.throughput), f2(r.breakdown[3])]);
    }
    t
}

/// VC-count sensitivity: regular VCs per vnet.
pub fn ablate_vc_count(engine: &Engine, cycles: u64) -> Table {
    let mut t = Table::new(
        "ablation: regular VCs per vnet (gFLOV, UR 0.08, 50% gated)",
        &["regular VCs", "avg lat", "throughput [f/cy]"],
    );
    let points = batch(engine, &[1usize, 2, 3, 4], |vcs| {
        let mut spec = base_spec(cycles);
        spec.cfg.regular_vcs = vcs;
        if let WorkloadSpec::Synthetic { ref mut rate, .. } = spec.workload {
            *rate = 0.08;
        }
        spec
    });
    for (vcs, r) in points {
        t.row(vec![vcs.to_string(), f2(r.avg_latency), f2(r.throughput)]);
    }
    t
}

/// RP parking policy: aggressive vs adaptive at both paper rates.
pub fn ablate_rp_policy(engine: &Engine, cycles: u64) -> Table {
    let mut t = Table::new(
        "ablation: RP parking policy (UR, 50% gated)",
        &["rate", "policy", "avg lat", "static [mW]", "total [mW]"],
    );
    let policies = [
        (0.02f64, "aggressive", "RP-aggressive"),
        (0.02, "adaptive", "RP"),
        (0.08, "aggressive", "RP-aggressive"),
        (0.08, "adaptive", "RP"),
    ];
    let points = batch(engine, &policies, |(rate, _, mech)| {
        let mut spec = base_spec(cycles);
        spec.mechanism = mech.into();
        if let WorkloadSpec::Synthetic { rate: ref mut r, .. } = spec.workload {
            *r = rate;
        }
        spec
    });
    for ((rate, name, _), r) in points {
        t.row(vec![
            format!("{rate}"),
            name.into(),
            f2(r.avg_latency),
            mw(r.power.static_w),
            mw(r.power.total_w),
        ]);
    }
    t
}

/// gFLOV handshake-window sensitivity (the drain/wake signal RTT model).
pub fn ablate_handshake_rtt(_engine: &Engine, cycles: u64) -> Table {
    let mut t = Table::new(
        "ablation: handshake RTT window (gFLOV, UR 0.02, 50% gated)",
        &["rtt [cy]", "avg lat", "gating events", "static [mW]"],
    );
    for rtt in [1u32, 2, 8, 32] {
        let mut spec = base_spec(cycles);
        spec.warmup = 0;
        let mut params = FlovParams::for_config(&spec.cfg);
        params.handshake_rtt = rtt;
        let mech = Box::new(Flov::new(flov_core::FlovMode::Generalized, params, spec.cfg.nodes()));
        let r = run_with(&spec, mech);
        t.row(vec![
            rtt.to_string(),
            f2(r.avg_latency),
            r.gating_events.to_string(),
            mw(r.power.static_w),
        ]);
    }
    t
}

/// Run every ablation at the given scale.
pub fn all(engine: &Engine, cycles: u64) -> Vec<Table> {
    vec![
        ablate_escape_timeout(engine, cycles),
        ablate_idle_threshold(engine, cycles),
        ablate_rp_stall(engine, cycles),
        ablate_buffer_depth(engine, cycles),
        ablate_vc_count(engine, cycles),
        ablate_rp_policy(engine, cycles),
        ablate_handshake_rtt(engine, cycles),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_have_a_row_per_point() {
        let engine = Engine::without_cache();
        for t in [
            ablate_escape_timeout(&engine, 6_000),
            ablate_vc_count(&engine, 6_000),
            ablate_rp_policy(&engine, 6_000),
            ablate_handshake_rtt(&engine, 6_000),
        ] {
            assert_eq!(t.rows.len(), 4, "{}", t.title);
        }
    }

    /// Every sweep whose knob lives in the spec submits its four points
    /// as one batch, not as four one-spec batches on one worker each.
    #[test]
    fn idle_threshold_ablation_runs_through_the_engine() {
        let engine = Engine::without_cache();
        let sweeps: [fn(&Engine, u64) -> Table; 5] = [
            ablate_escape_timeout,
            ablate_idle_threshold,
            ablate_buffer_depth,
            ablate_vc_count,
            ablate_rp_policy,
        ];
        for (i, sweep) in sweeps.into_iter().enumerate() {
            let t = sweep(&engine, 6_000);
            assert_eq!(t.rows.len(), 4, "{}", t.title);
            assert_eq!(engine.sched_stats().unwrap().jobs, 4, "{}", t.title);
            assert_eq!(engine.stats().simulated, 4 * (i + 1), "{}", t.title);
        }
    }

    #[test]
    fn rp_stall_ablation_orders_latency() {
        let t = ablate_rp_stall(&Engine::without_cache(), 20_000);
        // Longer stalls => more stalled node-cycles.
        let stalled: Vec<u64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        assert!(stalled[0] < stalled[2], "stall cycles not increasing: {stalled:?}");
    }

    #[test]
    fn deeper_buffers_do_not_hurt() {
        let t = ablate_buffer_depth(&Engine::without_cache(), 6_000);
        let lat: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(lat[3] <= lat[0] * 1.1, "depth-8 latency {} vs depth-2 {}", lat[3], lat[0]);
    }
}
