//! Command-line contract of `scenario_replay`: an out-of-range option value is a
//! one-line `error:` diagnosis with exit code 2, never a driver panic.

use std::process::Command;

#[test]
fn a_bad_delta_override_is_a_one_line_error() {
    for bad in ["-1", "nan"] {
        let trace = std::env::temp_dir().join(format!(
            "selsync-replay-bad-delta-{}-{bad}.jsonl",
            std::process::id()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_scenario_replay"))
            .arg("--record")
            .arg(&trace)
            .args(["--scenario", "steady", "--quick", "--delta", bad])
            .output()
            .expect("scenario_replay runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--delta {bad}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "--delta {bad}: {stderr}");
        assert!(lines[0].starts_with("error: "), "--delta {bad}: {stderr}");
        assert!(!trace.exists(), "--delta {bad} recorded a trace");
    }
}
