//! Simulator-kernel micro-benchmarks: cycles/second per mechanism, route
//! computation, arbitration, and PRNG throughput. These guard the
//! performance-engineering discipline of the hot loop (no allocation,
//! compact flits, O(1) channel delivery).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use flov_core::mechanism;
use flov_core::routing::{flov_route_escape, flov_route_regular};
use flov_noc::network::Simulation;
use flov_noc::rng::Rng;
use flov_noc::router::arbiter::RoundRobin;
use flov_noc::routing::{yx_route, RouteCtx};
use flov_noc::types::{Coord, Dir, Port, PowerState};
use flov_noc::NocConfig;
use flov_workloads::{GatingSchedule, Pattern, SyntheticWorkload};
use std::hint::black_box;

fn make_sim(mech: &str, rate: f64, fraction: f64) -> Simulation {
    let cfg = NocConfig::paper_table1();
    let m = mechanism::by_name(mech, &cfg).unwrap();
    let w = SyntheticWorkload::new(
        cfg.k,
        Pattern::UniformRandom,
        rate,
        cfg.synth_packet_len,
        u64::MAX,
        GatingSchedule::static_fraction(cfg.nodes(), fraction, 3, &[]),
        7,
    );
    let mut sim = Simulation::new(cfg, m, Box::new(w));
    sim.run(2_000); // settle power states
    sim
}

fn sim_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_cycles_per_sec");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1_000));
    for mech in ["Baseline", "RP", "rFLOV", "gFLOV"] {
        let mut sim = make_sim(mech, 0.05, 0.4);
        g.bench_function(format!("{mech} 8x8 @0.05"), |b| {
            b.iter(|| {
                sim.run(1_000);
                black_box(sim.core.cycle)
            })
        });
    }
    // Idle network: the fast path when nothing moves.
    let mut idle = make_sim("gFLOV", 0.0, 0.4);
    g.bench_function("gFLOV 8x8 idle", |b| {
        b.iter(|| {
            idle.run(1_000);
            black_box(idle.core.cycle)
        })
    });
    g.finish();
}

fn routing_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing_decision");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    let mk_ctx = |gated_n: bool| RouteCtx {
        kx: 8,
        ky: 8,
        torus: false,
        at: Coord::new(3, 3),
        in_port: Port::West,
        dst: Coord::new(6, 6),
        escape: false,
        neighbors: [
            Some(if gated_n { PowerState::Sleep } else { PowerState::Active }),
            Some(PowerState::Active),
            Some(PowerState::Sleep),
            Some(PowerState::Active),
        ],
    };
    g.bench_function("yx_route", |b| {
        b.iter(|| black_box(yx_route(black_box(Coord::new(3, 3)), black_box(Coord::new(6, 6)))))
    });
    g.bench_function("flov_regular_fast_path", |b| {
        let ctx = mk_ctx(false);
        b.iter(|| black_box(flov_route_regular(black_box(&ctx))))
    });
    g.bench_function("flov_regular_gated_neighbors", |b| {
        let ctx = mk_ctx(true);
        b.iter(|| black_box(flov_route_regular(black_box(&ctx))))
    });
    g.bench_function("flov_escape", |b| {
        let ctx = RouteCtx { escape: true, ..mk_ctx(true) };
        b.iter(|| black_box(flov_route_escape(black_box(&ctx))))
    });
    g.finish();
}

fn arbiter_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("arbitration");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    let mut rr = RoundRobin::new(12);
    g.bench_function("round_robin_12way_dense", |b| {
        b.iter(|| black_box(rr.grant_mask(black_box(0xFFF))))
    });
    let mut rr2 = RoundRobin::new(12);
    g.bench_function("round_robin_12way_sparse", |b| {
        b.iter(|| black_box(rr2.grant_mask(black_box(1 << 7))))
    });
    g.finish();
}

fn rng_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("prng");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    let mut rng = Rng::new(1);
    g.bench_function("next_u64", |b| b.iter(|| black_box(rng.next_u64())));
    g.bench_function("below_64", |b| b.iter(|| black_box(rng.below(64))));
    g.bench_function("chance", |b| b.iter(|| black_box(rng.chance(0.02))));
    g.finish();
}

fn chain_walk_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("chain_walk");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    let mut sim = make_sim("gFLOV", 0.0, 0.6);
    sim.run(2_000);
    let core = &sim.core;
    g.bench_function("walk_over_sleepers_8x8", |b| {
        b.iter(|| black_box(core.chain_walk(black_box(8), Dir::East, black_box(15))))
    });
    g.finish();
}

criterion_group!(kernel, sim_throughput, routing_micro, arbiter_micro, rng_micro, chain_walk_micro);
criterion_main!(kernel);
