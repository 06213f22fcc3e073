//! The run-length arguments of the `chaos`, `sim` and `bench_soak`
//! binaries.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin args…` and returns its exit code and stderr, killing it
/// (and failing) if it is still running after 30 s.
fn exit_code_within_timeout(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(std::env::temp_dir())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let started = Instant::now();
    while child.try_wait().expect("poll child").is_none() {
        if started.elapsed() > Duration::from_secs(30) {
            child.kill().expect("kill hung child");
            child.wait().expect("reap hung child");
            panic!("{bin} {args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A run of zero epochs has no last instant: unchecked, its deadline
/// wraps to the end of simulated time in release builds and
/// `chaos --epochs 0` never returns.
#[test]
fn zero_epochs_is_a_usage_error_not_a_hang() {
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--plans", "1", "--nodes", "30", "--epochs", "0"][..],
        ),
        (
            env!("CARGO_BIN_EXE_chaos"),
            &["--compare-detectors", "--check", "--epochs", "0"][..],
        ),
        (env!("CARGO_BIN_EXE_sim"), &["--epochs", "0"][..]),
        (
            env!("CARGO_BIN_EXE_bench_soak"),
            &["--nodes", "30", "--hours", "0"][..],
        ),
    ] {
        let (code, stderr) = exit_code_within_timeout(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{bin} {args:?}: {stderr}");
    }
}
