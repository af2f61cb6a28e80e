//! `flov sim --map` draws the run the report describes: the snapshot is
//! built from the same spec, so a modulated or PARSEC workload maps as
//! itself, not as a stationary synthetic stand-in.

use std::process::Command;

#[test]
fn map_draws_the_reported_run() {
    // Both MMPP phases inject nothing: the report counts 0 packets, and
    // the map must show no link traffic either.
    let out = Command::new(env!("CARGO_BIN_EXE_flov"))
        .args(["sim", "--k", "4", "--mmpp", "0.0,0.0", "--cycles", "2000", "--warmup", "100"])
        .args(["--map", "--no-cache"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("run flov");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("packets          0\n"), "{stdout}");
    assert!(stdout.contains("link utilization: max 0,"), "{stdout}");
}
