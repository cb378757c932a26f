//! `fig01_timeline --trace-out` renders the flight rings of both runs: it
//! refuses to run with the recorder off and reports events the rings
//! evicted instead of writing a silently truncated trace.

use std::process::Command;

/// Run `fig01_timeline` in a scratch directory with `--flight flight`;
/// its exit code, stderr and the trace it wrote.
fn fig01(flight: &str, name: &str) -> (Option<i32>, String, Option<String>) {
    let dir = std::env::temp_dir().join(format!("fig01_trace_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig01_timeline"))
        .current_dir(&dir)
        .args(["--amplify", "0", "--steps", "10", "--trace-out", "t.json"])
        .args(["--flight", flight])
        .output()
        .expect("run fig01_timeline");
    let trace = std::fs::read_to_string(dir.join("t.json")).ok();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
        trace,
    )
}

#[test]
fn trace_with_the_recorder_off_is_a_usage_error() {
    let (code, stderr, trace) = fig01("0", "off");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--flight 0"), "stderr: {stderr}");
    assert!(trace.is_none());
}

#[test]
fn evicted_trace_events_are_reported() {
    let (code, stderr, trace) = fig01("40", "evicted");
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stderr.contains("evicted"), "stderr: {stderr}");
    assert!(stderr.contains("--flight N keeps more"), "stderr: {stderr}");
    let trace = trace.expect("trace written");
    lts_obs::validate_trace(&trace).expect("valid trace");
    // one pid per partition strategy
    for label in ["standard partition", "p-level balanced partition"] {
        assert!(trace.contains(label), "no run {label:?}");
    }
}
