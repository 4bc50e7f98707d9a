//! Child-process side of a run: the harness re-executes its own binary once per
//! role (as `scenario_cluster` does), so every run — simulator and threaded ones
//! too — is a fresh process whose CPU time and peak memory are its own.
//!
//! A child loads the resolved scenario from its run directory, runs its role
//! through the crates' public entry points, and writes one output file: its
//! resource usage, the synchronization schedule(s) it observed, a blank line, and
//! its trace shard.

use crate::workloads::train_config;
use selsync::process::{run_process_hub_with, run_process_worker_with, WorkerOptions};
use selsync_comm::socket::SocketAddrSpec;
use selsync_scenario::Scenario;
use std::time::Duration;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at 100 for
/// userspace on every architecture.
const TICK_MS: f64 = 10.0;

/// User + system CPU milliseconds this process (all threads, including exited
/// ones) has consumed.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields count from after
    // its closing parenthesis, where utime and stime are the 12th and 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => (utime + stime) * TICK_MS,
        _ => f64::NAN,
    }
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
fn hwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// A synchronization schedule as one comma-separated word.
pub fn join_rounds(rounds: &[usize]) -> String {
    let list: Vec<String> = rounds.iter().map(usize::to_string).collect();
    list.join(",")
}

pub fn parse_rounds(word: &str) -> Result<Vec<usize>, String> {
    word.split(',')
        .filter(|r| !r.is_empty())
        .map(|r| r.parse().map_err(|_| format!("bad round {r:?}")))
        .collect()
}

fn rounds_line(label: &str, rounds: &[usize]) -> String {
    format!("schedule {label} {}\n", join_rounds(rounds))
}

pub struct ChildArgs {
    pub role: String,
    pub index: usize,
    pub scenario: String,
    pub socket: String,
    pub out: String,
    /// Rounds to replay (traced-walk roles only).
    pub rounds: usize,
}

/// A run takes about a second. A child still alive after this long is stuck in
/// a rendezvous its peers left; it gives up by itself, so that no process
/// outlives a harness the driver had to kill.
const CHILD_LIMIT: Duration = Duration::from_secs(100);

/// Run one role and exit. Never returns to the harness path.
pub fn run(args: &ChildArgs) -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("error: benchmark child ({}): {msg}", args.role);
        std::process::exit(1);
    };
    // Never joined: whichever of this thread and the role finishes first ends
    // the process.
    std::thread::spawn(|| {
        std::thread::sleep(CHILD_LIMIT);
        eprintln!("error: benchmark child gave up after {CHILD_LIMIT:?}");
        std::process::exit(3);
    });
    let text = std::fs::read_to_string(&args.scenario)
        .unwrap_or_else(|e| fail(format!("{}: {e}", args.scenario)));
    let scenario = Scenario::from_toml_str(&text).unwrap_or_else(|e| fail(e));
    if args.role.starts_with("walk-") {
        match crate::walk::child(&args.role, args.index, &scenario, args.rounds, &args.out) {
            Ok(()) => std::process::exit(0),
            Err(e) => fail(e),
        }
    }
    let cfg = train_config(&scenario);
    let addr = SocketAddrSpec::parse(&args.socket);
    let mut schedules = String::new();
    let shard = match args.role.as_str() {
        "sim" => {
            let report = selsync::algorithms::run(&cfg);
            schedules.push_str(&rounds_line("*", &report.sync_rounds));
            cfg.trace.take_log().encode()
        }
        "threaded" => {
            for report in selsync::threaded::run_threaded_selsync(&cfg) {
                schedules.push_str(&rounds_line(
                    &report.worker.to_string(),
                    &report.sync_rounds,
                ));
            }
            cfg.trace.take_log().encode()
        }
        "hub" => run_process_hub_with(&cfg, &addr, None),
        "worker" => {
            let (report, shard) =
                run_process_worker_with(&cfg, args.index, &addr, WorkerOptions::default());
            schedules.push_str(&rounds_line(
                &report.worker.to_string(),
                &report.sync_rounds,
            ));
            shard
        }
        other => fail(format!("unknown role {other:?}")),
    };
    let output = format!(
        "cpu_ms {}\nhwm_kb {}\nthreads {}\n{schedules}\n{shard}",
        cpu_ms(),
        hwm_kb(),
        selsync_tensor::par::configured_threads(),
    );
    if let Err(e) = std::fs::write(&args.out, output) {
        fail(format!("{}: {e}", args.out));
    }
    std::process::exit(0);
}

/// What the harness reads back from one child's output file.
pub struct ChildOutput {
    pub cpu_ms: f64,
    pub hwm_kb: f64,
    pub threads: usize,
    /// `(None, rounds)` for a cluster-level schedule (the simulator's), or
    /// `(Some(worker), rounds)` for one worker's view.
    pub schedules: Vec<(Option<usize>, Vec<usize>)>,
    pub shard: String,
}

pub fn parse_output(text: &str) -> Result<ChildOutput, String> {
    let (head, shard) = text
        .split_once("\n\n")
        .ok_or("child output has no header/shard separator")?;
    let mut out = ChildOutput {
        cpu_ms: f64::NAN,
        hwm_kb: f64::NAN,
        threads: 0,
        schedules: Vec::new(),
        shard: shard.to_string(),
    };
    for line in head.lines() {
        let mut words = line.split(' ');
        let bad = || format!("bad child header line {line:?}");
        match words.next() {
            Some("cpu_ms") => {
                out.cpu_ms = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?
            }
            Some("hwm_kb") => {
                out.hwm_kb = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?
            }
            Some("threads") => {
                out.threads = words.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?
            }
            Some("schedule") => {
                let who = match words.next().ok_or_else(bad)? {
                    "*" => None,
                    w => Some(w.parse().map_err(|_| bad())?),
                };
                let rounds = parse_rounds(words.next().unwrap_or("")).map_err(|_| bad())?;
                out.schedules.push((who, rounds));
            }
            _ => return Err(bad()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_resource_usage_is_readable() {
        assert!(cpu_ms() >= 0.0);
        assert!(hwm_kb() > 0.0);
    }

    #[test]
    fn output_round_trips_through_the_parser() {
        let text = format!(
            "cpu_ms 1230\nhwm_kb 20480\nthreads 2\n{}{}\n{{\"e\":\"header\"}}\n",
            rounds_line("*", &[3, 9]),
            rounds_line("1", &[]),
        );
        let out = parse_output(&text).unwrap();
        assert_eq!((out.cpu_ms, out.hwm_kb, out.threads), (1230.0, 20480.0, 2));
        assert_eq!(out.schedules, vec![(None, vec![3, 9]), (Some(1), vec![])]);
        assert_eq!(out.shard, "{\"e\":\"header\"}\n");
        assert!(parse_output("cpu_ms 1\n").is_err());
        assert!(parse_output("bogus 1\n\n").is_err());
    }
}
