//! The `wave-lts` command line is strict: a flag the subcommand does not
//! accept, or a value that does not parse, exits 2 with a message naming
//! it, instead of silently running with a default.

use std::process::Command;

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
