//! `mbal-cli` command-line handling: a flag the CLI cannot honour is a
//! usage error (exit status 2) before anything connects, never a silent
//! fallback to a default.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `mbal-cli` with `args` for at most 5 s. Returns its exit code
/// and stderr, or `None` when it was still running and had to be
/// killed.
fn run(args: &[&str]) -> Option<(Option<i32>, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mbal-cli"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mbal-cli");
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Some(status) = child.try_wait().expect("poll mbal-cli") {
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
    // Port 1 on loopback: should a flag be accepted, the command fails
    // to connect (exit 1) instead of reaching a server.
    for args in [
        &["--port", "1", "--tenant", "abc", "get", "k"][..],
        &["--port", "70000", "get", "k"],
        &["--port", "1", "--workers", "abc", "get", "k"],
        &["--port", "1", "--cachelets", "-3", "get", "k"],
        &["--port", "1", "--front-cache", "many", "get", "k"],
        &["--port", "1", "--engine", "seg", "get", "k"],
        &["--port", "1", "get", "k", "--tenant"],
    ] {
        let (code, stderr) = run(args).unwrap_or_else(|| panic!("{args:?} kept running"));
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr:?}");
        assert!(stderr.contains("usage: mbal-cli"), "{args:?}: {stderr:?}");
    }
}
