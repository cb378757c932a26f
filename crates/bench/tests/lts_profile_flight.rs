//! `lts-profile --flight` refuses a value that is not a ring size, so its
//! recorder-off leg cannot silently run recorder-on.

use std::process::Command;

#[test]
fn malformed_flight_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("lts_profile_flight_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lts-profile"))
        .current_dir(&dir)
        .args(["--mode", "run", "--out", "s.json", "--flight", "off"])
        .output()
        .expect("run lts-profile");
    let wrote = dir.join("s.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--flight"), "stderr: {stderr}");
    assert!(stderr.contains("\"off\""), "stderr: {stderr}");
    assert!(!wrote, "no document may be written");
}
