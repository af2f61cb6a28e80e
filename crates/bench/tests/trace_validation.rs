//! A trace-replay spec whose file cannot replay on its config is rejected by
//! `RunSpec::validate` with a `ConfigError` naming the file: the library
//! returns `Err` instead of panicking, and `flov sweep` exits 2.

use flov_bench::{tracefmt, try_run_kernel_audited, KernelMode, RunSpec, KERNEL_VERSION};
use flov_noc::traits::PacketRequest;
use flov_noc::ConfigError;
use flov_workloads::TraceData;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh path under the temp dir, unique per test.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("flov-trace-validation-{}-{tag}", std::process::id()))
}

/// Write a trace whose one packet, injected at cycle 10, is `req`; returns
/// the file's CRC.
fn write_packet(path: &Path, req: PacketRequest) -> u32 {
    let data = TraceData { packets: vec![(10, req)], core_events: vec![], changed_cycles: vec![] };
    let bytes = tracefmt::encode_trace(KERNEL_VERSION, "{}", &data);
    std::fs::write(path, &bytes).unwrap();
    tracefmt::decode_trace(&bytes).unwrap().crc
}

/// Write a trace whose one packet runs from node 0 to `dst`; returns the
/// file's CRC.
fn write_trace(path: &Path, dst: u16) -> u32 {
    write_packet(path, PacketRequest { src: 0, dst, vnet: 0, len: 4 })
}

/// A 2x2 replay of `path`, pinned to `crc`.
fn replay_spec(path: &Path, crc: u32) -> RunSpec {
    RunSpec::builder()
        .k(2)
        .warmup(0)
        .cycles(200)
        .drain(1_000)
        .trace(path.to_str().unwrap(), crc, false)
        .build()
}

/// Every surface must reject `spec` with a diagnostic naming its file
/// and containing `why`.
fn assert_rejected(spec: &RunSpec, path: &Path, why: &str) {
    let shown = path.to_str().unwrap();
    match spec.validate() {
        Err(ConfigError::BadTrace { path: p, why: w }) => {
            assert_eq!(p, shown);
            assert!(w.contains(why), "{w:?} does not mention {why:?}");
        }
        other => panic!("validate() returned {other:?}"),
    }
    assert!(try_run_kernel_audited(spec, KernelMode::ActiveSet).is_err());

    let spec_file =
        temp_path(&format!("spec-{}.json", path.file_name().unwrap().to_str().unwrap()));
    std::fs::write(&spec_file, serde_json::to_string(spec).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_flov"))
        .args(["sweep", "--spec", spec_file.to_str().unwrap(), "--no-cache", "--quiet"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "flov sweep: {stderr}");
    assert!(stderr.contains(shown) && stderr.contains(why), "flov sweep: {stderr}");
    let _ = std::fs::remove_file(spec_file);
}

#[test]
fn a_valid_trace_replays() {
    let path = temp_path("valid.flovtrace");
    let crc = write_trace(&path, 3);
    let spec = replay_spec(&path, crc);
    assert_eq!(spec.validate(), Ok(()));
    let run = try_run_kernel_audited(&spec, KernelMode::ActiveSet).unwrap();
    assert_eq!(run.result.packets, 1);
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_missing_trace_file_is_a_config_error() {
    let path = temp_path("missing.flovtrace");
    let _ = std::fs::remove_file(&path);
    assert_rejected(&replay_spec(&path, 0), &path, "cannot read");
}

#[test]
fn a_corrupt_trace_container_is_a_config_error() {
    let path = temp_path("corrupt.flovtrace");
    let crc = write_trace(&path, 3);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[9] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
    assert_rejected(&replay_spec(&path, crc), &path, "CRC mismatch");
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_trace_changed_since_the_spec_is_a_config_error() {
    let path = temp_path("changed.flovtrace");
    let crc = write_trace(&path, 3);
    assert_rejected(&replay_spec(&path, crc ^ 1), &path, "does not match the spec's");
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_trace_naming_a_missing_node_is_a_config_error() {
    let path = temp_path("node.flovtrace");
    let crc = write_trace(&path, 7);
    assert_rejected(
        &replay_spec(&path, crc),
        &path,
        "references node 7 but the config has 4 cores",
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_trace_packet_on_a_missing_vnet_is_a_config_error() {
    // Before this check it panicked indexing the NIC's 3 vnet queues.
    let path = temp_path("vnet.flovtrace");
    let crc = write_packet(&path, PacketRequest { src: 0, dst: 3, vnet: 7, len: 4 });
    assert_rejected(
        &replay_spec(&path, crc),
        &path,
        "packet 0 (cycle 10) is on vnet 7 but the config has 3 vnets",
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_trace_packet_without_flits_is_a_config_error() {
    // Before this check the run reported 0 packets, `delivered_all` false.
    let path = temp_path("len.flovtrace");
    let crc = write_packet(&path, PacketRequest { src: 0, dst: 3, vnet: 0, len: 0 });
    assert_rejected(&replay_spec(&path, crc), &path, "packet 0 (cycle 10) has no flits");
    let _ = std::fs::remove_file(path);
}
