//! The `wave-lts` command line is strict: a flag the subcommand does not
//! accept, or a value that does not parse, exits 2 with a message naming
//! it, instead of silently running with a default. The same holds for a
//! trace request the flight recorder cannot serve.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use wave_lts::obs::{validate_trace, Json};

/// Run the built binary; its exit code and stderr.
fn wave_lts(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wave-lts"))
        .args(args)
        .output()
        .expect("run wave-lts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// A fresh path for a trace file of test `name`.
fn trace_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wave_lts_cli_{name}_{}.json", std::process::id()))
}

/// A small 2-rank `simulate` that writes its trace to `trace`.
fn simulate_args<'a>(transport: &'a str, trace: &'a str) -> Vec<&'a str> {
    vec![
        "simulate",
        "--mesh",
        "trench",
        "--elements",
        "600",
        "--order",
        "2",
        "--steps",
        "4",
        "--ranks",
        "2",
        "--transport",
        transport,
        "--trace-out",
        trace,
    ]
}

#[test]
fn misspelled_flag_is_a_usage_error() {
    let (code, stderr) = wave_lts(&["info", "--elemnts", "500"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--elemnts"), "stderr: {stderr}");
}

#[test]
fn unparsable_value_is_a_usage_error() {
    let (code, stderr) = wave_lts(&["info", "--elements", "many"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--elements"), "stderr: {stderr}");
    assert!(stderr.contains("\"many\""), "stderr: {stderr}");
}

#[test]
fn flag_of_another_subcommand_is_rejected() {
    let (code, stderr) = wave_lts(&["info", "--ranks", "2"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--ranks"), "stderr: {stderr}");
}

/// The shared-memory ring folded into the one in-process `channel`
/// backend; its spellings are no transport now.
#[test]
fn retired_ring_transport_is_a_usage_error() {
    for name in ["shm-ring", "shm", "ring"] {
        let (code, stderr) = wave_lts(&["simulate", "--ranks", "2", "--transport", name]);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stderr.contains(&format!("{name:?}")), "{name}: {stderr}");
        assert!(
            stderr.contains("channel|unix-socket|process"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn bad_flight_value_is_a_usage_error() {
    let trace = trace_path("bad_flight");
    let mut args = simulate_args("channel", trace.to_str().unwrap());
    args.extend(["--flight", "lots"]);
    let (code, stderr) = wave_lts(&args);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--flight"), "stderr: {stderr}");
    assert!(stderr.contains("\"lots\""), "stderr: {stderr}");
    assert!(!trace.exists());
}

/// A trace is rendered from the flight rings, so asking for one with the
/// recorder off is refused.
#[test]
fn trace_with_the_recorder_off_is_a_usage_error() {
    let trace = trace_path("off");
    let mut args = simulate_args("channel", trace.to_str().unwrap());
    args.extend(["--flight", "0"]);
    let (code, stderr) = wave_lts(&args);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--trace-out"), "stderr: {stderr}");
    assert!(stderr.contains("--flight 0"), "stderr: {stderr}");
    assert!(!trace.exists());
}

#[test]
fn evicted_trace_events_are_reported() {
    let trace = trace_path("evicted");
    let mut args = simulate_args("channel", trace.to_str().unwrap());
    args.extend(["--flight", "16"]);
    let (code, stderr) = wave_lts(&args);
    let written = std::fs::read_to_string(&trace);
    let _ = std::fs::remove_file(&trace);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stderr.contains("evicted"), "stderr: {stderr}");
    assert!(stderr.contains("--flight N keeps more"), "stderr: {stderr}");
    validate_trace(&written.expect("trace written")).expect("valid trace");
}

/// Trace events per `(rank, name)`, minus the stall monitor's warnings:
/// whether a window warns depends on the wait measured in that run.
fn trace_counts(rendered: &str) -> BTreeMap<(u64, String), usize> {
    validate_trace(rendered).expect("valid trace");
    let doc = Json::parse(rendered).unwrap();
    let mut counts = BTreeMap::new();
    for e in doc.get("traceEvents").unwrap().as_arr().unwrap() {
        let name = e.get("name").and_then(|n| n.as_str()).unwrap();
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") && name != "stall_warning" {
            let tid = e.get("tid").and_then(|t| t.as_u64()).unwrap();
            *counts.entry((tid, name.to_string())).or_insert(0) += 1;
        }
    }
    counts
}

/// In-process ranks and worker processes write one trace format, with the
/// same slices on every rank.
#[cfg(unix)]
#[test]
fn channel_and_process_traces_agree() {
    let mut counts = Vec::new();
    for transport in ["channel", "process"] {
        let trace = trace_path(transport);
        let (code, stderr) = wave_lts(&simulate_args(transport, trace.to_str().unwrap()));
        assert_eq!(code, Some(0), "{transport}: {stderr}");
        let rendered = std::fs::read_to_string(&trace).expect("trace written");
        let _ = std::fs::remove_file(&trace);
        counts.push(trace_counts(&rendered));
    }
    for rank in [0, 1] {
        for name in ["step", "level", "wait", "send", "recv"] {
            assert!(
                counts[0].contains_key(&(rank, name.to_string())),
                "no {name} on rank {rank}"
            );
        }
    }
    assert_eq!(counts[0], counts[1]);
}
