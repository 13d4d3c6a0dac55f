//! A panic or a hang inside a universe must become `failed > 0` and a
//! non-zero exit within the deadline — never a stuck process.

use std::process::Command;
use std::time::{Duration, Instant};

/// Run `wallbench run <workload> --seconds 1` and return
/// `(exit code, last stdout line, wall time)`.
fn run(workload: &str) -> (Option<i32>, String, Duration) {
    let t = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .args(["run", workload, "--seconds", "1"])
        .output()
        .expect("run wallbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    (out.status.code(), last, t.elapsed())
}

#[test]
fn a_panicking_image_fails_the_run_at_once() {
    let (code, last, wall) = run("selftest-panic");
    assert_eq!(code, Some(1), "{last}");
    assert!(
        last.contains(r#""correct": false"#) && last.contains(r#""failed": 1"#),
        "{last}"
    );
    assert!(
        wall < Duration::from_secs(8),
        "took {wall:?}: waited for the deadline"
    );
}

#[test]
fn a_hung_universe_fails_the_run_at_the_deadline() {
    let (code, last, wall) = run("selftest-hang");
    assert_eq!(code, Some(1), "{last}");
    assert!(
        last.contains(r#""correct": false"#) && last.contains(r#""failed": 1"#),
        "{last}"
    );
    // The launch deadline is 10 s at this run length.
    assert!(wall < Duration::from_secs(25), "took {wall:?}");
}

#[test]
fn an_unknown_workload_is_a_usage_error() {
    let (code, last, _) = run("no-such-workload");
    assert_eq!(code, Some(2));
    assert!(!last.starts_with('{'), "no result line: {last}");
}
