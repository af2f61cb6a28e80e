//! Input-VC buffer memory follows traffic, not capacity: each router
//! leases a ring to an input VC only while the VC holds flits, so even a
//! saturated mesh allocates a fraction of the rings a full-capacity flit
//! plane would hold.

use flov_bench::RunSpec;
use flov_noc::types::NUM_PORTS;
use flov_workloads::Pattern;

#[test]
fn a_saturated_mesh16_allocates_under_a_third_of_its_rings() {
    // perfbench's `saturated_mesh16` run at seed 1.
    let spec = RunSpec::builder()
        .mechanism("rFLOV")
        .k(16)
        .seed(1)
        .pattern(Pattern::UniformRandom)
        .gated_fraction(0.0)
        .warmup(200)
        .cycles(600)
        .drain(600)
        .rate(0.30)
        .build();
    let mut sim = flov_bench::try_simulation(&spec).expect("valid spec");
    // `cycles` is the total run length, warm-up included: 200 warm-up and
    // 400 measured cycles, then the drain, as `run_audited_inner` runs them.
    sim.run(spec.cycles);
    sim.drain(spec.drain);
    let capacity: usize = sim.core.routers.iter().map(|r| NUM_PORTS * r.total_vcs()).sum();
    assert_eq!(capacity, 15_360);
    let rings: usize = sim.core.routers.iter().map(|r| r.rings()).sum();
    // 256 nodes at 0.30 flits/cycle over the 600 cycles offer about 46k flits.
    let delivered = sim.core.activity.flits_delivered;
    assert!(delivered > 40_000, "only {delivered} flits delivered");
    assert!(rings > 0 && 3 * rings < capacity, "{rings} of {capacity} rings allocated");
}
