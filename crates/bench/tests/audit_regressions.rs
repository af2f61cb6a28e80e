//! Pinned auditor regressions: specs that once produced spurious (or
//! missed) `AuditViolation`s, replayed end-to-end on every kernel.

use flov_bench::spec::RunSpec;
use flov_bench::{run_kernel_audited, KernelMode};
use flov_noc::NocConfig;
use flov_workloads::Pattern;

/// Fuzzer-found no-progress false positive (pre-existing at PR 5; fixed
/// alongside the parallel kernel): RP-aggressive on a 4×4 mesh, Transpose,
/// 80% of cores gated, with two mid-run gating re-draws. The first two
/// active-set draws contain no active transpose pair, so nothing is ever
/// generated and `last_progress` stays 0; the final re-draw at cycle
/// 13696 produces a pair, packets enter the NIC queues during RP's
/// Phase-I injection stall, and the watchdog — measuring from cycle 0 —
/// reported "no progress for 14336 cycles" over packets that were ~600
/// cycles old, with zero flits resident. The movement digest now counts
/// NIC-queue churn, so the stall clock starts from the enqueue instead.
fn rp_nic_parked_spec() -> RunSpec {
    let cfg = NocConfig { watchdog_cycles: 10_000, ..NocConfig::default() };
    RunSpec::builder()
        .cfg(cfg)
        .k(4)
        .mechanism("RP-aggressive")
        .pattern(Pattern::Transpose)
        .rate(0.02)
        .gated_fraction(0.8)
        .changes(vec![1395, 13696])
        .seed(14426764939842553696)
        .warmup(3788)
        .cycles(18942)
        .drain(30_000)
        .audit(true)
        .build()
}

#[test]
fn rp_phase_i_nic_parked_packets_are_not_a_stall() {
    let spec = rp_nic_parked_spec();
    for (name, kernel) in [
        ("active", KernelMode::ActiveSet),
        ("reference", KernelMode::Reference),
        ("parallel4", KernelMode::Parallel { tiles: 4, grid: None }),
        ("parallel2x2", KernelMode::Parallel { tiles: 4, grid: Some((2, 2)) }),
    ] {
        let run = run_kernel_audited(&spec, kernel);
        assert!(
            run.violations.is_empty(),
            "{name} kernel reported spurious violation(s): {:?}",
            run.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        assert!(run.audit_checks > 0, "{name}: auditor never ran");
        // The run is not trivial: the final gating re-draw produces real
        // traffic that must eventually drain and deliver.
        assert!(run.result.packets > 0, "{name}: no packets delivered");
    }
}
