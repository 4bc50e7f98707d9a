//! Environment capture: every output records where and under what load it was
//! measured, so two result files can be told apart before their numbers are.

use crate::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
}

/// 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment block of a result file. `load_start` is sampled by the
/// caller before measuring; the end sample is taken here. A run is marked
/// `noisy` — never aborted — when either load sample exceeds the core count:
/// something else was competing for the machine.
pub fn capture(load_start: f64) -> Json {
    let load_end = load_average();
    let nproc = nproc();
    let commit = command_line(
        "git",
        &[
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ],
    );
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "selsync_threads",
            Json::Num(selsync_tensor::par::configured_threads() as f64),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            Json::str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("load_start", Json::Num(load_start)),
        ("load_end", Json::Num(load_end)),
        ("noisy", Json::Bool(load_start.max(load_end) > nproc as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_has_every_field_and_flags_overload() {
        let env = capture(0.0);
        for key in [
            "nproc",
            "selsync_threads",
            "rustc",
            "git_commit",
            "load_start",
            "load_end",
            "noisy",
        ] {
            assert!(env.get(key).is_some(), "missing {key}");
        }
        assert!(nproc() >= 1);
        let overloaded = capture(1e9);
        assert_eq!(overloaded.get("noisy"), Some(&Json::Bool(true)));
    }
}
