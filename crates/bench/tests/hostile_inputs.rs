//! Bad `FLOV_*` environment values and out-of-range gated fractions are
//! rejected up front: `flov` exits 2 with a message naming the variable
//! or the value, like a bad flag, instead of panicking or silently running
//! a clamped experiment.

use std::process::{Command, Output};

const FLOV_VARS: [&str; 4] = ["FLOV_KERNEL", "FLOV_THREADS", "FLOV_TILES", "FLOV_AUDIT"];

/// `flov sim` on a tiny mesh with exactly `env` set among the `FLOV_*`
/// switches (the caller's own, e.g. a parallel-kernel test job, are
/// removed first).
fn sim(env: &[(&str, &str)], extra: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flov"));
    cmd.args(["sim", "--k", "4", "--cycles", "100", "--no-cache"]).args(extra);
    for var in FLOV_VARS {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied()).current_dir(std::env::temp_dir()).output().expect("run flov")
}

#[test]
fn bad_env_values_exit_2_naming_the_variable() {
    for (env, named) in [
        (&[("FLOV_KERNEL", "bogus")][..], "FLOV_KERNEL"),
        (&[("FLOV_KERNEL", "parallel"), ("FLOV_THREADS", "0")][..], "FLOV_THREADS"),
        (&[("FLOV_THREADS", "abc")][..], "FLOV_THREADS"),
        (&[("FLOV_KERNEL", "parallel"), ("FLOV_TILES", "0x2")][..], "FLOV_TILES"),
        (&[("FLOV_AUDIT", "1x")][..], "FLOV_AUDIT"),
    ] {
        let out = sim(env, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{env:?}: {stderr}");
        assert!(stderr.contains(named), "{env:?}: stderr does not name {named}: {stderr}");
    }
}

#[test]
fn out_of_range_gated_fractions_exit_2_naming_the_value() {
    for (value, shown) in [("1.5", "1.5"), ("-0.1", "-0.1"), ("nan", "NaN")] {
        let out = sim(&[], &["--gated", value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--gated {value}: {stderr}");
        assert!(
            stderr.contains(&format!("gated-core fraction {shown} ")),
            "--gated {value}: {stderr}"
        );
    }
}
