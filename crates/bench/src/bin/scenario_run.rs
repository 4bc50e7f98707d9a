//! Run one scenario — built-in or a TOML file — through every algorithm arm and print
//! the deterministic comparison report.
//!
//! ```text
//! scenario_run --list                         # list built-in scenarios
//! scenario_run transient-straggler            # run a built-in
//! scenario_run path/to/custom.toml            # run a scenario file
//! scenario_run transient-straggler --seed 7   # override the seed
//! scenario_run transient-straggler --out r.md # also write the report to a file
//! scenario_run crash-rejoin --trace t.jsonl   # also record the SelSync arm's
//!                                             # event log (docs/EVENT_LOG.md)
//! scenario_run ps-brownout --ckpt-every 40    # persist a recovery image of the
//!                                             # SelSync arm every 40 rounds
//! scenario_run ps-brownout --resume target/checkpoints/ps-brownout/ckpt-79
//!                                             # resume the SelSync arm from a
//!                                             # checkpoint (docs/RECOVERY.md)
//! scenario_run --dump crash-rejoin            # print a built-in as TOML
//! ```
//!
//! Same scenario + same seed ⇒ byte-identical report, so piping the output to a file
//! and diffing against a recorded run is a regression test. A `--resume` run prints
//! the resumed SelSync arm's report only (the other arms are not re-run), and its
//! trace/report are byte-identical to the uninterrupted run's.

use selsync::config::AlgorithmSpec;
use selsync_bench::CheckpointArgs;
use selsync_scenario::{builtin, library, load, runner, BUILTIN_NAMES};
use selsync_tracelog::TraceSink;

fn usage() -> ! {
    eprintln!(
        "usage: scenario_run <builtin-name | file.toml> [--seed N] [--out FILE] [--trace FILE]\n\
         \x20                   [--ckpt-every N] [--ckpt-dir DIR] [--ckpt-keep N] [--halt ROUND]\n\
         \x20                   [--resume CKPT]\n\
         \x20      scenario_run --list\n\
         \x20      scenario_run --dump <builtin-name>\n\
         built-ins: {}",
        BUILTIN_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
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
    if args[0] == "--dump" {
        let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
        match builtin(name) {
            Some(s) => print!("{}", s.to_toml_string()),
            None => {
                eprintln!("unknown built-in scenario {name:?}");
                std::process::exit(2);
            }
        }
        return;
    }

    let mut scenario = match load(&args[0]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut out_path: Option<String> = None;
    let mut ckpt_args = CheckpointArgs::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                scenario.seed = v.parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                out_path = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--trace" => {
                // Equivalent to a `[trace]` block in the scenario file: enable
                // capture and point the recording at FILE.
                scenario.trace.enabled = true;
                scenario.trace.path = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            flag => match ckpt_args.take(flag, args.get(i + 1)) {
                Ok(true) => i += 2,
                Ok(false) => usage(),
                Err(e) => usage_error(&e),
            },
        }
    }
    // Equivalent to a `[checkpoint]` block in the scenario file; only the SelSync
    // arm writes recovery images (the runner withholds the block from the baseline
    // arms, which would write into the same directory).
    match ckpt_args.spec(Some(format!("target/checkpoints/{}", scenario.name))) {
        Ok(Some(spec)) => scenario.checkpoint = Some(spec),
        Ok(None) => {}
        Err(e) => usage_error(&e),
    }

    // An image that does not read back, or belongs to another configuration, is a
    // one-line diagnosis here rather than the driver's panic.
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
    let resume = ckpt_args
        .resume_image(&cfg)
        .unwrap_or_else(|e| usage_error(&e));
    if let Some(ckpt) = resume {
        // Resume the SelSync arm from the checkpoint image — written by any
        // backend — and print its report; the resumed trace and report are
        // byte-identical to an uninterrupted run's (docs/RECOVERY.md), so diffing
        // them against a full run's output is the recovery regression test.
        if scenario.trace.enabled {
            cfg.trace = TraceSink::capture(scenario.trace.granularity);
        }
        let report = selsync::algorithms::selsync::run_resumed(&cfg, &ckpt);
        let mut text = format!(
            "# scenario: {} (seed {}) resumed from round {}\n",
            scenario.name, scenario.seed, ckpt.round
        );
        text.push_str(&format!("{report:#?}\n"));
        print!("{text}");
        if let Some(path) = out_path {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
        }
        if let Some(path) = &scenario.trace.path {
            if let Err(e) = std::fs::write(path, cfg.trace.take_log().encode()) {
                eprintln!("error: could not write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("event log written to {path}");
        }
        return;
    }

    let report = match runner::run_scenario(&scenario) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let text = report.render();
    print!("{text}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &scenario.trace.path {
        let Some(trace) = &report.trace else {
            eprintln!("error: trace capture was enabled but no SelSync arm ran");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("event log written to {path}");
    }
}
