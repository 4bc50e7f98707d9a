//! Run one scenario's δ-grid/seed/policy sweep and print the aggregated mean ± spread
//! comparison report.
//!
//! ```text
//! scenario_sweep --list                            # list built-in scenarios
//! scenario_sweep degraded-network                  # sweep a built-in
//! scenario_sweep path/to/custom.toml               # sweep a scenario file ([sweep] block)
//! scenario_sweep degraded-network --quick          # CI-sized smoke sweep
//! scenario_sweep degraded-network --seed 7         # rebase the scenario + sweep seeds
//! scenario_sweep degraded-network --out report.md  # also write the text report
//! scenario_sweep degraded-network --json sweep.json# also write the JSON report
//! scenario_sweep elastic-churn --threaded-schedule ts.json
//!                                                  # also run the threaded driver's
//!                                                  # adaptive arm and archive its
//!                                                  # sync schedule + simulator parity
//! scenario_sweep elastic-churn --trace-dir traces/ # also record each arm's
//!                                                  # first-seed event log
//!                                                  # (docs/EVENT_LOG.md)
//! ```
//!
//! Scenarios without a `[sweep]` block use the default grid (δ ∈ {0, 0.05, 0.15, 0.3,
//! 0.6} × 3 seeds × the default adaptive-δ arm). Same scenario + same sweep + same
//! seeds ⇒ byte-identical report and JSON, for every `SELSYNC_THREADS` value — piping
//! the output to a file and diffing against a recorded run is a regression test.

use selsync::algorithms;
use selsync::config::AlgorithmSpec;
use selsync::policy::PolicySpec;
use selsync::threaded::run_threaded_selsync;
use selsync_scenario::{library, load, sweep, Scenario, BUILTIN_NAMES};
use selsync_tracelog::{diff_report, TraceGranularity, TraceSink};

fn usage() -> ! {
    eprintln!(
        "usage: scenario_sweep <builtin-name | file.toml> [--quick] [--seed N] [--out FILE] \
         [--json FILE] [--threaded-schedule FILE] [--trace-dir DIR]\n\
         \x20      scenario_sweep --list\n\
         built-ins: {}",
        BUILTIN_NAMES.join(", ")
    );
    std::process::exit(2);
}

/// Run the scenario's adaptive arm (its first adaptive `[[policy]]`, or the default
/// adaptive policy) through the *threaded* driver and the simulator, and render a
/// deterministic JSON record of both synchronization schedules plus the parity
/// verdict (every worker's threaded schedule == the simulator's restricted to that
/// worker's present rounds). Both runs capture event logs, so a parity break ships
/// its own diagnosis: `first_divergence` pins the first divergent round and field
/// via the trace-diff engine (null when the logs agree). Archived by CI next to the
/// sweep report so the threaded adaptive schedule is comparable PR over PR.
fn threaded_schedule_json(scenario: &Scenario) -> String {
    let policy = scenario
        .sweep
        .as_ref()
        .and_then(|s| {
            s.policies
                .iter()
                .find(|p| matches!(p, PolicySpec::Adaptive { .. }))
        })
        .cloned()
        .unwrap_or_else(PolicySpec::adaptive_default);
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
    cfg.delta_policy = Some(policy.clone());
    cfg.trace = TraceSink::capture(TraceGranularity::Full);

    let sim = algorithms::run(&cfg);
    let sim_log = cfg.trace.take_log();
    let workers = run_threaded_selsync(&cfg);
    let threaded_log = cfg.trace.take_log();
    let divergence = diff_report(&sim_log, &threaded_log, "simulator", "threaded");
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }
    let fmt_rounds = |rounds: &[usize]| -> String {
        let items: Vec<String> = rounds.iter().map(|r| r.to_string()).collect();
        format!("[{}]", items.join(", "))
    };
    let parity = workers.iter().all(|w| {
        let expected: Vec<usize> = sim
            .sync_rounds
            .iter()
            .copied()
            .filter(|&round| cfg.conditions.is_present(w.worker, round))
            .collect();
        w.sync_rounds == expected
    });

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", esc(&scenario.name)));
    out.push_str(&format!("  \"policy\": \"{}\",\n", esc(&policy.label())));
    out.push_str(&format!("  \"seed\": {},\n", scenario.seed));
    out.push_str(&format!("  \"iterations\": {},\n", cfg.iterations));
    out.push_str(&format!(
        "  \"rejoin_pull\": \"{}\",\n",
        match cfg.rejoin_pull {
            selsync::config::RejoinPull::WallClock => "wall-clock",
            selsync::config::RejoinPull::Scheduled => "scheduled",
        }
    ));
    out.push_str(&format!(
        "  \"simulator_sync_rounds\": {},\n",
        fmt_rounds(&sim.sync_rounds)
    ));
    out.push_str("  \"workers\": [\n");
    for (i, w) in workers.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"worker\": {}, \"sync_rounds\": {}}}{}\n",
            w.worker,
            fmt_rounds(&w.sync_rounds),
            if i + 1 == workers.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"parity_with_simulator\": {parity},\n"));
    match &divergence {
        Some(report) => out.push_str(&format!(
            "  \"first_divergence\": \"{}\"\n",
            esc(report.trim_end())
        )),
        None => out.push_str("  \"first_divergence\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Deterministic, filesystem-safe file name for one sweep arm's event log.
fn trace_file_name(label: &str) -> String {
    let mut name = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '-') {
            name.push(c);
        } else if !name.ends_with('_') {
            name.push('_');
        }
    }
    format!("{}.trace.jsonl", name.trim_matches('_'))
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

    let mut scenario = match load(&args[0]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut threaded_path: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--seed" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                let seed: u64 = v.parse().unwrap_or_else(|_| usage());
                scenario.seed = seed;
                // The sweep's seed set is the spread axis; rebase it on the override
                // (same cardinality) so --seed is never a silent no-op for scenarios
                // with an explicit [sweep] block.
                if let Some(sweep) = &mut scenario.sweep {
                    sweep.seeds = (0..sweep.seeds.len())
                        .map(|k| seed.wrapping_add(k as u64))
                        .collect();
                }
                i += 2;
            }
            "--out" => {
                out_path = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--json" => {
                json_path = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--threaded-schedule" => {
                threaded_path = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--trace-dir" => {
                trace_dir = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            _ => usage(),
        }
    }
    if quick {
        scenario = sweep::quick_variant(&scenario);
    }
    if trace_dir.is_some() {
        // Equivalent to `[trace] enabled = true`: the sweep records each arm's
        // first-seed event log alongside its statistics.
        scenario.trace.enabled = true;
    }

    let report = match sweep::run_sweep(&scenario) {
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
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = threaded_path {
        if let Err(e) = std::fs::write(&path, threaded_schedule_json(&scenario)) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(dir) = trace_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: could not create {dir}: {e}");
            std::process::exit(1);
        }
        for arm in &report.arms {
            let Some(trace) = &arm.trace else { continue };
            let path = std::path::Path::new(&dir).join(trace_file_name(&arm.label));
            if let Err(e) = std::fs::write(&path, trace) {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("event log written to {}", path.display());
        }
    }
}
