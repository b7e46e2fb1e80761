//! `mbal-loadgen` command-line handling: a flag the load generator
//! cannot honour is a usage error (exit status 2) before any cell runs,
//! never a silent fallback to a default.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `mbal-loadgen` with `args` for at most 5 s. Returns its exit
/// code and stderr, or `None` when it was still running (it accepted
/// the flags and started a run) and had to be killed.
fn run(args: &[&str]) -> Option<(Option<i32>, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mbal-loadgen"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mbal-loadgen");
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("poll mbal-loadgen") {
            let mut stderr = String::new();
            child
                .stderr
                .take()
                .expect("piped stderr")
                .read_to_string(&mut stderr)
                .expect("read stderr");
            return Some((status.code(), stderr));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn bad_values_and_unknown_flags_are_usage_errors() {
    // Each case writes its report to a path that cannot be created, so
    // an accepted flag set never leaves a file behind.
    let out = "/nonexistent-dir/report.json";
    for args in [
        &["--engine", "seg", "--out", out][..],
        &["--rate", "fast", "--out", out],
        &["--mix", "ycsb-b,nope", "--out", out],
        &["--transport", "udp", "--out", out],
        &["--autoscale", "maybe", "--out", out],
        &["--out"],
    ] {
        let (code, stderr) = run(args).unwrap_or_else(|| panic!("{args:?} started a run"));
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr:?}");
        assert!(
            stderr.contains("usage: mbal-loadgen"),
            "{args:?}: {stderr:?}"
        );
    }
}
