//! Record, replay and diff deterministic SelSync event logs (see `docs/EVENT_LOG.md`).
//!
//! ```text
//! scenario_replay --record out.jsonl --scenario crash-rejoin --quick
//!                                         # run a scenario, write its event log
//! scenario_replay --record out.jsonl --scenario elastic-churn --quick \
//!                 --backend threaded --policy adaptive --delta 0.055
//!                                         # same, on the threaded cluster backend
//! scenario_replay --diff sim.jsonl threaded.jsonl
//!                                         # pin the first divergent round + fields
//! scenario_replay --check committed.jsonl --scenario elastic-churn --quick \
//!                 --policy adaptive --delta 0.055
//!                                         # replay live and diff against a recording
//! scenario_replay --list                  # list built-in scenarios
//! ```
//!
//! Event logs carry no timestamps and no backend tag, and the sink orders events
//! canonically, so `--diff` on a simulator log and a threaded log of the same config
//! must report them identical — that is the cross-backend determinism contract, and
//! `--check` turns any committed log into a regression test. Exit status: 0 when the
//! logs match, 1 on divergence (the first divergent round and every differing field
//! are printed), 2 on usage errors.

use selsync::algorithms;
use selsync::config::{AlgorithmSpec, CheckpointSpec, TrainConfig};
use selsync::policy::PolicySpec;
use selsync::threaded::{run_threaded_selsync, run_threaded_selsync_resumed};
use selsync::Checkpoint;
use selsync_bench::CheckpointArgs;
use selsync_scenario::{library, load, sweep, Scenario, BUILTIN_NAMES};
use selsync_tracelog::{diff_report, EventLog, TraceGranularity, TraceSink};

fn usage() -> ! {
    eprintln!(
        "usage: scenario_replay --record FILE --scenario <builtin-name | file.toml>\n\
         \x20                      [--backend sim|threaded]\n\
         \x20                      [--policy fixed|scheduled|adaptive|variance]\n\
         \x20                      [--delta D] [--seed N] [--quick]\n\
         \x20                      [--ckpt-every N] [--ckpt-dir DIR] [--ckpt-keep N]\n\
         \x20                      [--halt ROUND] [--resume CKPT]\n\
         \x20      scenario_replay --check FILE --scenario <...> [same options]\n\
         \x20      scenario_replay --diff LEFT RIGHT\n\
         \x20      scenario_replay --list\n\
         built-ins: {}",
        BUILTIN_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Sim,
    Threaded,
}

/// Scenario + run options resolved from the command line; `config()` turns them
/// into the exact `TrainConfig` the recording (or the live replay) uses.
struct RunSpec {
    scenario: Scenario,
    backend: Backend,
    policy: String,
    delta: f32,
    /// CLI checkpoint policy; overrides the scenario's `[checkpoint]` block.
    checkpoint: Option<CheckpointSpec>,
    /// A checkpoint image — of any backend — to resume from instead of starting at
    /// round 0.
    resume: Option<Checkpoint>,
}

/// Same CI-sized rescale the trace-parity suite applies: 30 iterations with the
/// fault schedule rescaled to fit, small sample counts, no sweep block. `--record
/// --quick` therefore reproduces the suite's committed traces byte for byte.
fn scaled(mut s: Scenario) -> Scenario {
    sweep::rescale_fault_windows(&mut s, 30);
    s.eval_every = 10;
    s.train_samples = 512;
    s.test_samples = 128;
    s.eval_samples = 128;
    s.batch_size = 8;
    s.sweep = None;
    s
}

impl RunSpec {
    fn config(&self) -> TrainConfig {
        let mut cfg = self
            .scenario
            .train_config(AlgorithmSpec::selsync(self.delta));
        cfg.delta_policy = match self.policy.as_str() {
            "fixed" => None,
            "scheduled" => Some(PolicySpec::Schedule {
                starts: vec![0, 10],
                deltas: vec![0.0, self.delta],
            }),
            "adaptive" => Some(PolicySpec::adaptive_default()),
            "variance" => Some(PolicySpec::variance_default()),
            other => fail(&format!(
                "unknown policy {other:?} (expected fixed, scheduled, adaptive or variance)"
            )),
        };
        if self.checkpoint.is_some() {
            cfg.checkpoint = self.checkpoint.clone();
        }
        cfg
    }

    /// Run the configured backend with a full-granularity sink and return the
    /// encoded canonical event log. With `--resume` the run continues from the
    /// checkpoint image: the sink is preloaded with the recorded trace prefix, so
    /// the returned log covers the *whole* run and must be byte-identical to an
    /// uninterrupted recording (the recovery contract in `docs/RECOVERY.md`).
    fn record(&self) -> String {
        let mut cfg = self.config();
        cfg.trace = TraceSink::capture(TraceGranularity::Full);
        match &self.resume {
            Some(ckpt) => match self.backend {
                Backend::Sim => {
                    algorithms::selsync::run_resumed(&cfg, ckpt);
                }
                Backend::Threaded => {
                    run_threaded_selsync_resumed(&cfg, ckpt);
                }
            },
            None => match self.backend {
                Backend::Sim => {
                    algorithms::run(&cfg);
                }
                Backend::Threaded => {
                    run_threaded_selsync(&cfg);
                }
            },
        }
        cfg.trace.take_log().encode()
    }
}

fn read_log(path: &str) -> (String, EventLog) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let log = EventLog::decode(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    (text, log)
}

/// Diff two decoded logs; prints the verdict and returns the process exit code.
fn diff_logs(left: &EventLog, right: &EventLog, left_label: &str, right_label: &str) -> i32 {
    match diff_report(left, right, left_label, right_label) {
        Some(report) => {
            print!("{report}");
            1
        }
        None => {
            println!(
                "logs are identical: {} events, {left_label} == {right_label}",
                left.events.len()
            );
            0
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "--list" {
        for scenario in library::all_builtin() {
            println!("{:22} {}", scenario.name, scenario.description);
        }
        return;
    }
    if args[0] == "--diff" {
        let (left_path, right_path) = match (args.get(1), args.get(2)) {
            (Some(l), Some(r)) if args.len() == 3 => (l, r),
            _ => usage(),
        };
        let (_, left) = read_log(left_path);
        let (_, right) = read_log(right_path);
        std::process::exit(diff_logs(&left, &right, left_path, right_path));
    }

    let (mode, file) = match args[0].as_str() {
        "--record" | "--check" => (
            args[0].clone(),
            args.get(1).unwrap_or_else(|| usage()).clone(),
        ),
        _ => usage(),
    };
    let mut scenario_spec: Option<String> = None;
    let mut backend = Backend::Sim;
    let mut policy = "fixed".to_string();
    let mut delta: Option<f32> = None;
    let mut seed: Option<u64> = None;
    let mut quick = false;
    let mut ckpt_args = CheckpointArgs::default();
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                scenario_spec = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--backend" => {
                backend = match args.get(i + 1).unwrap_or_else(|| usage()).as_str() {
                    "sim" => Backend::Sim,
                    "threaded" => Backend::Threaded,
                    other => fail(&format!(
                        "unknown backend {other:?} (expected sim or threaded)"
                    )),
                };
                i += 2;
            }
            "--policy" => {
                policy = args.get(i + 1).unwrap_or_else(|| usage()).clone();
                i += 2;
            }
            "--delta" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                delta = Some(v.parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--seed" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                seed = Some(v.parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            flag => match ckpt_args.take(flag, args.get(i + 1)) {
                Ok(true) => i += 2,
                Ok(false) => usage(),
                Err(e) => fail(&e),
            },
        }
    }
    let mut scenario = load(&scenario_spec.unwrap_or_else(|| usage())).unwrap_or_else(|e| fail(&e));
    if let Some(seed) = seed {
        scenario.seed = seed;
    }
    if quick {
        scenario = scaled(scenario);
    }
    // The override passes the same checks as a scenario file's `delta` key.
    if let Some(delta) = delta {
        scenario.delta = delta;
        scenario.validate().unwrap_or_else(|e| fail(&e));
    }
    let delta = scenario.delta;
    let checkpoint = ckpt_args
        .spec(Some(format!("target/replay-ckpt/{}", scenario.name)))
        .unwrap_or_else(|e| fail(&e));
    let mut spec = RunSpec {
        scenario,
        backend,
        policy,
        delta,
        checkpoint,
        resume: None,
    };
    // Checked against the resolved configuration: an image recorded under another
    // `--delta`/`--quick`/`--policy` is a one-line diagnosis, not a driver panic.
    spec.resume = ckpt_args
        .resume_image(&spec.config())
        .unwrap_or_else(|e| fail(&e));

    match mode.as_str() {
        "--record" => {
            let log = spec.record();
            if let Err(e) = std::fs::write(&file, &log) {
                fail(&format!("could not write {file}: {e}"));
            }
            println!(
                "recorded {} lines to {file} ({} backend, {} policy, delta {})",
                log.lines().count(),
                match spec.backend {
                    Backend::Sim => "sim",
                    Backend::Threaded => "threaded",
                },
                spec.policy,
                delta
            );
        }
        "--check" => {
            let (_, committed) = read_log(&file);
            let live_text = spec.record();
            let live = EventLog::decode(&live_text).expect("live log decodes");
            std::process::exit(diff_logs(&committed, &live, "committed", "live"));
        }
        _ => unreachable!(),
    }
}
