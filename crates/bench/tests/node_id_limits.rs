//! Fabrics with more routers or cores than 16-bit node ids can name are
//! rejected up front: `flov sim` exits 2 with the `TooManyNodes`
//! diagnostic instead of simulating aliased core ids.

use std::process::Command;

fn sim(topology: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_flov"))
        .args(["sim", "--k", "4", "--topology", topology, "--mech", "Baseline"])
        .args(["--rate", "0.0001", "--gated", "0", "--warmup", "0", "--cycles", "200"])
        .arg("--no-cache")
        .current_dir(std::env::temp_dir())
        .output()
        .expect("run flov")
}

#[test]
fn sim_rejects_fabrics_beyond_16_bit_node_ids() {
    for (topology, counts) in [
        ("cmesh:5000", "16 routers, 80000 cores"),
        ("cmesh:4096", "16 routers, 65536 cores"),
        ("rect:300x300", "90000 routers, 90000 cores"),
    ] {
        let out = sim(topology);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{topology}: {stderr}");
        assert!(
            stderr.contains("16-bit node ids") && stderr.contains(counts),
            "{topology}: {stderr}"
        );
    }
}

#[test]
fn sim_runs_a_fabric_near_the_core_limit() {
    // 4x4 routers with 4,095 cores each: 65,520 cores, ids up to 65,519.
    let out = sim("cmesh:4095");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
