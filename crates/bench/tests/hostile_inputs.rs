//! Bad `FLOV_*` environment values, out-of-range gated fractions and
//! hostile spec files are rejected up front: `flov` exits 2 with a message
//! naming the variable or the value, like a bad flag, instead of panicking
//! or silently running a clamped experiment.

use flov_bench::{RunSpec, WorkloadSpec};
use flov_noc::types::Cycle;
use flov_noc::TopologySpec;
use std::process::{Command, Output};

const FLOV_VARS: [&str; 4] = ["FLOV_KERNEL", "FLOV_THREADS", "FLOV_TILES", "FLOV_AUDIT"];

/// `flov` with `args` and exactly `env` set among the `FLOV_*` switches
/// (the caller's own, e.g. a parallel-kernel test job, are removed first).
fn flov(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flov"));
    cmd.args(args);
    for var in FLOV_VARS {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied()).current_dir(std::env::temp_dir()).output().expect("run flov")
}

/// `flov sim` on a tiny mesh.
fn sim(env: &[(&str, &str)], extra: &[&str]) -> Output {
    flov(&[&["sim", "--k", "4", "--cycles", "100", "--no-cache"], extra].concat(), env)
}

/// `flov sweep --spec` on `spec`, written to a temp file.
fn sweep(spec: &RunSpec, tag: usize) -> Output {
    let name = format!("flov-hostile-spec-{}-{tag}.json", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, serde_json::to_string(spec).expect("serialize spec")).expect("write");
    let out = flov(&["sweep", "--spec", path.to_str().expect("utf-8 path"), "--no-cache"], &[]);
    let _ = std::fs::remove_file(&path);
    out
}

fn parsec(name: &str) -> WorkloadSpec {
    WorkloadSpec::Parsec { name: name.into(), seed: 1 }
}

fn switches(list: &[(Cycle, &str)]) -> Vec<(Cycle, String)> {
    list.iter().map(|&(at, name)| (at, name.to_string())).collect()
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

#[test]
fn hostile_specs_exit_2_naming_the_value() {
    let base = RunSpec::builder().mechanism("Baseline").warmup(100).cycles(1_000).drain(1_000);
    let base = base.build();
    assert_eq!(base.validate(), Ok(()));
    let with = |mutate: fn(&mut RunSpec)| {
        let mut spec = base.clone();
        mutate(&mut spec);
        spec
    };
    let rows = [
        (with(|s| s.mechanism = "Bogus".into()), "unknown mechanism \"Bogus\""),
        (with(|s| s.workload = parsec("nope")), "unknown PARSEC benchmark \"nope\""),
        (
            with(|s| {
                s.workload = parsec("swaptions");
                s.cfg.topology = Some(TopologySpec::CMesh { k: 4, c: 4 });
            }),
            "cmesh4x4c4 is not one",
        ),
        (
            with(|s| {
                s.mechanism = "rFLOV".into();
                s.mech_switches = switches(&[(800, "Baseline")]);
            }),
            "rFLOV -> \"Baseline\" at cycle 800",
        ),
        (with(|s| s.mech_switches = switches(&[(800, "Bogus")])), "Baseline -> \"Bogus\""),
        (
            with(|s| {
                s.workload = parsec("swaptions");
                s.mech_switches = switches(&[(100, "gFLOV")]);
            }),
            "closed-loop PARSEC",
        ),
        (
            with(|s| s.mech_switches = switches(&[(800, "rFLOV"), (400, "gFLOV")])),
            "switch at cycle 400 is listed after one at cycle 800",
        ),
    ];
    for (tag, (spec, named)) in rows.iter().enumerate() {
        let out = sweep(spec, tag);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "row {tag} ({named}): {stderr}");
        assert!(stderr.contains(named), "row {tag}: stderr does not name {named}: {stderr}");
    }
}

#[test]
fn parsec_with_an_unknown_benchmark_exits_2_naming_it() {
    let out = flov(&["parsec", "--bench", "nope", "--no-cache"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown PARSEC benchmark \"nope\""), "{stderr}");
}
