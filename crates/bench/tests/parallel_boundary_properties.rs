//! Property tests for the parallel kernel's cross-tile boundary exchange,
//! against a single-tile oracle.
//!
//! A one-tile `KernelMode::Parallel` run executes the exact same
//! buffered-delta code path with no boundary in the fabric, so it is the
//! natural oracle: any defect in the *exchange* (flits reordered across a
//! tile seam, boundary credits dropped or duplicated, latch/chain state
//! applied in the wrong order) shows up as a divergence from the one-tile
//! run while leaving the one-tile run itself correct. The sharded run
//! draws a random 2-D tile grid, so north/south and east/west seams (and
//! their corners) are all exercised.
//!
//! Two properties per random spec:
//!
//! * **Flit order** — the sharded end state is bit-identical to the
//!   oracle's. Wheel delivery is a stable sort by arrival cycle, so any
//!   cross-seam reordering perturbs per-packet latencies, the timeline,
//!   or the delivery digest.
//! * **Credit conservation** — the invariant auditor sweeps the sharded
//!   run (credit counters vs. audited ground truth per router, direction
//!   and VC); a boundary credit leaked or double-applied trips it.

use flov_bench::{run_kernel_audited, AuditedRun, KernelMode, RunSpec};
use flov_workloads::Pattern;
use proptest::prelude::*;

fn digest(r: &AuditedRun) -> String {
    serde_json::to_string(&r.result).expect("result serializes")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]
    #[test]
    fn boundary_exchange_matches_single_tile_oracle(
        seed in 0u64..u64::MAX,
        rows in 1u16..4,
        cols in 1u16..4,
        rate_steps in 1u32..9,   // 0.01 .. 0.08 flits/cycle/node
        gated_steps in 0u32..7,  // 0.0 .. 0.6 of cores gated
        mech_pick in 0u32..3,
    ) {
        let mech = ["gFLOV", "rFLOV", "NoRD"][mech_pick as usize];
        // Guarantee at least one seam; a 1x1 grid would equal the oracle.
        let rows = if rows * cols == 1 { 2 } else { rows };
        let grid = format!("{rows}x{cols}");
        let spec = RunSpec::builder()
            .mechanism(mech)
            .pattern(Pattern::UniformRandom)
            .rate(rate_steps as f64 / 100.0)
            .gated_fraction(gated_steps as f64 / 10.0)
            .seed(seed)
            .warmup(500)
            .cycles(3_000)
            .drain(20_000)
            .audit(true)
            .build();
        let oracle = run_kernel_audited(&spec, KernelMode::Parallel { tiles: 1, grid: None });
        let sharded = run_kernel_audited(
            &spec,
            KernelMode::Parallel { tiles: rows as usize * cols as usize, grid: Some((rows, cols)) },
        );
        prop_assert!(
            oracle.violations.is_empty(),
            "{mech}: single-tile oracle itself violated invariants: {:?}",
            oracle.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        prop_assert!(
            sharded.violations.is_empty(),
            "{mech}/grid={grid}: boundary exchange broke an invariant \
             (credit conservation or state legality): {:?}",
            sharded.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        prop_assert!(sharded.audit_checks > 0, "auditor never swept the sharded run");
        prop_assert_eq!(
            digest(&oracle),
            digest(&sharded),
            "{}/grid={}: sharded end state diverged from the single-tile oracle",
            mech,
            grid
        );
        prop_assert!(
            sharded.result.delivered_all,
            "{mech}/grid={grid}: packets left in flight after drain"
        );
    }
}
