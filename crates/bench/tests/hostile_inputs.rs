//! Bad `FLOV_*` environment values, flags a subcommand does not read,
//! out-of-range gated fractions and hostile spec files are rejected up
//! front: `flov` exits 2 with a message naming the variable, flag or value
//! instead of panicking, silently running a clamped or different
//! experiment or measuring an empty window. A run whose invariant auditor
//! finds a violation makes `flov` exit 1 instead of printing a silent
//! wrong answer, and is never cached. A reader that closes `flov`'s
//! stdout early ends it quietly, not with a panic. `FLOV_QUIET` silences
//! engine progress whether or not the run uses a cache.

use flov_bench::{RunSpec, WorkloadSpec};
use flov_noc::types::Cycle;
use flov_noc::TopologySpec;
use std::process::{Command, Output, Stdio};

const FLOV_VARS: [&str; 5] =
    ["FLOV_KERNEL", "FLOV_THREADS", "FLOV_TILES", "FLOV_AUDIT", "FLOV_QUIET"];

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

/// `flov sim` on a tiny mesh, measuring from cycle 0.
fn sim(env: &[(&str, &str)], extra: &[&str]) -> Output {
    let args = ["sim", "--k", "4", "--warmup", "0", "--cycles", "100", "--no-cache"];
    flov(&[&args[..], extra].concat(), env)
}

/// `flov sweep --spec` on `spec`, written to a temp file, with `cache`
/// (`--no-cache` or `--cache-dir D`).
fn sweep(spec: &RunSpec, tag: usize, cache: &[&str]) -> Output {
    let name = format!("flov-hostile-spec-{}-{tag}.json", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, serde_json::to_string(spec).expect("serialize spec")).expect("write");
    let out =
        flov(&[&["sweep", "--spec", path.to_str().expect("utf-8 path")], cache].concat(), &[]);
    let _ = std::fs::remove_file(&path);
    out
}

/// The `entries` line of `flov cache stats` over `cache`.
fn cache_entries(cache: &str) -> String {
    let out = flov(&["cache", "--cache-dir", cache, "stats"], &[]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = stdout.lines().find(|l| l.starts_with("entries")).map(str::to_owned);
    line.unwrap_or_else(|| panic!("no entries line in {stdout}"))
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
        (&[("FLOV_TILES", "2x2")][..], "FLOV_TILES"),
        (&[("FLOV_AUDIT", "1x")][..], "FLOV_AUDIT"),
        (&[("FLOV_KERNEL", "ref")][..], "FLOV_KERNEL"),
        (&[("FLOV_KERNEL", "par")][..], "FLOV_KERNEL"),
        (&[("FLOV_KERNEL", "active-set")][..], "FLOV_KERNEL"),
    ] {
        let out = sim(env, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{env:?}: {stderr}");
        assert!(stderr.contains(named), "{env:?}: stderr does not name {named}: {stderr}");
    }
}

#[test]
fn flov_quiet_silences_engine_progress_with_and_without_a_cache() {
    let cache = std::env::temp_dir().join(format!("flov-quiet-{}", std::process::id()));
    let cache = cache.to_str().expect("utf-8 path");
    let run = ["sim", "--k", "4", "--warmup", "0", "--cycles", "100"];
    for (env, prints) in
        [(&[][..], true), (&[("FLOV_QUIET", "0")], true), (&[("FLOV_QUIET", "1")], false)]
    {
        for store in [&["--no-cache"][..], &["--cache-dir", cache]] {
            let out = flov(&[&run[..], store].concat(), env);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{env:?} {store:?}: {stderr}");
            assert_eq!(stderr.contains("[flov] engine:"), prints, "{env:?} {store:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(cache);
}

#[test]
fn unknown_and_unread_flags_exit_2_naming_them() {
    let parsec_run = ["sim", "--parsec", "swaptions", "--k", "4", "--cycles", "1000", "--no-cache"];
    // A cache holding one entry, which no rejected command line below may
    // touch (`cache clear --no-cache` among them).
    let cache = std::env::temp_dir().join(format!("flov-no-cache-{}", std::process::id()));
    let cache = cache.to_str().expect("utf-8 path");
    let run = ["sim", "--k", "4", "--warmup", "0", "--cycles", "100", "--cache-dir", cache];
    assert_eq!(flov(&run, &[]).status.code(), Some(0));
    let entries = || cache_entries(cache);
    assert_eq!(entries().split_whitespace().collect::<Vec<_>>(), ["entries", "1"]);
    for (out, named) in [
        (flov(&["table1", "--bogus"], &[]), "--bogus"),
        (flov(&["cache", "stats", "--max-bytes", "1"], &[]), "--max-bytes"),
        (flov(&["trace", "replay", "--in", "x.flovtrace", "--mmpp", "0.1"], &[]), "--mmpp"),
        (sim(&[], &["--out", "x"]), "--out"),
        (flov(&parsec_run, &[]), "--cycles"),
        (sim(&[], &["--dwell", "10"]), "--dwell"),
        (sim(&[], &["--mmpp", "0.1,0.2", "--rate", "0.2"]), "--rate"),
        (flov(&["bench-kernel", "--quick", "--min-cp", "5000"], &[]), "--min-cp"),
        (sim(&[], &["--quick"]), "--quick"),
        (flov(&["table1", "--quick"], &[]), "--quick"),
        (flov(&["cache", "--cache-dir", cache, "clear", "--no-cache"], &[]), "--no-cache"),
        (flov(&["cache", "--cache-dir", cache, "migrate"], &[]), "cache migrate"),
        (sim(&[], &["--threads", "0"]), "--threads must be >= 1"),
        (sim(&[], &["--threads", "x"]), "--threads"),
        (sim(&[], &["--tiles", "0x2"]), "--tiles wants RxC"),
        (sim(&[], &["--threads", "2", "--tiles", "2"]), "--tiles wants RxC"),
        // A flag stands for `FLOV_KERNEL=parallel`, but a bad variable it
        // overrides is still an error.
        (sim(&[("FLOV_KERNEL", "bogus")], &["--threads", "2"]), "FLOV_KERNEL"),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{named}: {stderr}");
        assert!(stderr.contains(named), "stderr does not name {named}: {stderr}");
    }
    let survived = entries();
    let _ = std::fs::remove_dir_all(cache);
    assert_eq!(survived.split_whitespace().collect::<Vec<_>>(), ["entries", "1"]);
    // A flag may come before the verb it belongs to.
    let dir = std::env::temp_dir().join(format!("flov-flag-order-{}", std::process::id()));
    let out = flov(&["cache", "--cache-dir", dir.to_str().expect("utf-8 path"), "stats"], &[]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn an_unknown_mechanism_exits_2_listing_the_known_ones() {
    let out = sim(&[], &["--mech", "Bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let names = "(one of: Baseline|RP|RP-aggressive|rFLOV|gFLOV|NoRD|PowerPunch)";
    assert!(stderr.contains(&format!("unknown mechanism \"Bogus\" {names}")), "{stderr}");
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
                s.cfg.topology = TopologySpec::CMesh { k: 4, c: 4 };
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
        (
            with(|s| {
                s.mechanism = "rFLOV".into();
                s.mech_switches = switches(&[(1_000, "gFLOV")]);
            }),
            "switch at cycle 1000 would never apply",
        ),
        (
            with(|s| {
                // Rejected before the (missing) trace file is read.
                let path = "missing.flovtrace".into();
                s.workload = WorkloadSpec::Trace { path, crc: 0, closed_loop: true };
                s.mechanism = "rFLOV".into();
                s.mech_switches = switches(&[(500, "gFLOV")]);
            }),
            "switch at cycle 500 does not apply to a closed-loop trace replay",
        ),
        (with(|s| s.warmup = 1_000), "warmup 1000 leaves no measurement window"),
        (with(|s| s.cfg.buf_depth = 65_536), "buffer depth 65536 "),
        (with(|s| s.cfg.buf_depth = 65_542), "buffer depth 65542 "),
        (with(|s| s.cfg.link_latency = 0), "link latency 0 "),
        (with(|s| s.cfg.link_latency = u32::MAX), "link latency 4294967295 "),
    ];
    for (tag, (spec, named)) in rows.iter().enumerate() {
        let out = sweep(spec, tag, &["--no-cache"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "row {tag} ({named}): {stderr}");
        assert!(stderr.contains(named), "row {tag}: stderr does not name {named}: {stderr}");
    }
}

#[test]
fn a_v3_spec_file_fails_naming_topology() {
    // v3 spelled the default mesh as a bare `k` and had no `topology`.
    let spec = RunSpec::builder().k(4).warmup(100).cycles(1_000).drain(1_000).build();
    let v4 = serde_json::to_string(&spec).expect("serialize spec");
    let v3 = v4.replacen("\"topology\":{\"Mesh\":{\"k\":4}}", "\"k\":4", 1);
    assert_ne!(v3, v4);
    let path = std::env::temp_dir().join(format!("flov-v3-spec-{}.json", std::process::id()));
    std::fs::write(&path, v3).expect("write");
    let out = flov(&["sweep", "--spec", path.to_str().expect("utf-8 path"), "--no-cache"], &[]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("missing field `topology`"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_spec_key_no_type_declares_fails_naming_it() {
    // A misspelt or retired key fails naming it: dropped, it would let
    // the run go ahead as the clean spec, with the same packets.
    let spec = RunSpec::builder()
        .k(4)
        .gated_fraction(0.5)
        .seed(7)
        .warmup(100)
        .cycles(1_000)
        .drain(1_000)
        .build();
    let clean = serde_json::to_string(&spec).expect("serialize spec");
    let extra = "{\"mechansim\":\"gFLOV\",\"cfg\":{\"buf_dpth\":2,\"pipeline_stages\":5,";
    let hostile = clean.replacen("{\"cfg\":{", extra, 1);
    assert_ne!(hostile, clean);
    // A list names the key too, not "expected a map, found a sequence".
    let (clean_list, hostile_list) = (format!("[{clean}]"), format!("[{hostile}]"));
    let inputs = [(&clean, 0), (&hostile, 1), (&clean_list, 0), (&hostile_list, 1)];
    for (i, (json, code)) in inputs.into_iter().enumerate() {
        let name = format!("flov-unknown-key-spec-{}-{i}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, json).expect("write");
        let out = flov(&["sweep", "--spec", path.to_str().expect("utf-8 path"), "--no-cache"], &[]);
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{stderr}");
        assert_eq!(stderr.contains("unknown field `buf_dpth`"), code == 1, "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_flov_without_a_panic() {
    use std::os::unix::process::ExitStatusExt;
    let dir = std::env::temp_dir().join(format!("flov-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_flov"))
        .arg("table1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .current_dir(&dir)
        .spawn()
        .expect("spawn flov");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for flov");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let status = out.status;
    assert!(status.code() == Some(0) || status.signal() == Some(13), "{status:?}: {stderr}");
}

#[test]
fn parsec_with_an_unknown_benchmark_exits_2_naming_it() {
    let out = flov(&["parsec", "--bench", "nope", "--no-cache"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown PARSEC benchmark \"nope\""), "{stderr}");
}

/// A one-VC torus at saturation with escape diversion effectively off:
/// it deadlocks, and NIC queues keep growing behind their stuck heads.
fn deadlocking_audited_spec() -> RunSpec {
    let mut spec = RunSpec::builder()
        .mechanism("Baseline")
        .k(4)
        .topology(TopologySpec::Torus { k: 4 })
        .rate(0.6)
        .gated_fraction(0.0)
        .seed(7)
        .warmup(0)
        .cycles(4_000)
        .drain(0)
        .audit(true)
        .build();
    spec.cfg.vnets = 1;
    spec.cfg.regular_vcs = 1;
    spec.cfg.escape_vcs = 1;
    spec.cfg.buf_depth = 2;
    spec.cfg.escape_timeout = 4_000_000_000;
    spec.cfg.watchdog_cycles = 500;
    spec
}

#[test]
fn audit_violation_exits_1_naming_it() {
    let out = sweep(&deadlocking_audited_spec(), 100, &["--no-cache"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("[no-progress]"), "{stderr}");
}

#[test]
fn a_run_with_audit_violations_is_not_cached() {
    // Were the first sweep's result cached, the second would replay it
    // clean and exit 0.
    let cache = std::env::temp_dir().join(format!("flov-audit-cache-{}", std::process::id()));
    let cache = cache.to_str().expect("utf-8 path");
    let spec = deadlocking_audited_spec();
    let outs = [101, 102].map(|tag| sweep(&spec, tag, &["--cache-dir", cache, "--quiet"]));
    let entries = cache_entries(cache);
    let _ = std::fs::remove_dir_all(cache);
    for (pass, out) in outs.iter().enumerate() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "sweep {pass}: {stderr}");
        assert!(stderr.contains("[no-progress]"), "sweep {pass}: {stderr}");
    }
    assert_eq!(entries.split_whitespace().collect::<Vec<_>>(), ["entries", "0"]);
}
