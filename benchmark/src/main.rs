//! The repository's benchmark: wall-clock end-to-end metrics and per-layer
//! timings across the simulator, threaded and process backends, measured from
//! outside through the crates' public entry points. See `benchmark/README.md`.

mod child;
mod compare;
mod contract;
mod env;
mod json;
mod layers;
mod report;
mod runner;
mod stats;
mod walk;
mod workloads;

use json::Json;
use report::{Effort, WorkloadResult};
use workloads::WORKLOADS;

const USAGE: &str = "\
usage: benchmark --workload NAME --seed N --seconds S --trace 0|1
           one workload, one JSON result line (the form BENCHMARK.json's command takes):
           --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
       benchmark run [--seed N] [--seconds S] [--out FILE] [--smoke]
           every workload end to end and traced, plus the per-layer metrics
       benchmark layers [--seed N] [--seconds S]
       benchmark trace WORKLOAD [--seed N]
       benchmark check-workloads [--seed N]
       benchmark compare BASE.json[,MORE.json] CHANGE.json[,MORE.json]";

const DEFAULT_SEED: u64 = 42;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn die(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        match self.0.get(at + 1) {
            Some(value) => Some(value),
            None => die(&format!("{name} needs a value\n{USAGE}")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            Some(text) => text
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value {text:?} for {name}\n{USAGE}"))),
            None => default,
        }
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let first = args.0.first().map(String::as_str);
    if first == Some("--role") {
        // Hidden child mode: the harness re-invokes this binary once per role.
        let need = |name: &str| args.value(name).unwrap_or_default().to_string();
        child::run(&child::ChildArgs {
            role: need("--role"),
            index: args.parsed("--index", 0),
            scenario: need("--scenario"),
            socket: need("--socket"),
            out: need("--out"),
            rounds: args.parsed("--rounds", 0),
        });
    }
    let seed = args.parsed("--seed", DEFAULT_SEED);
    let seconds = args.parsed("--seconds", DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 3600.0) {
        die("--seconds must be positive");
    }
    let load_start = env::load_average();
    let ok = match first {
        Some("run") => run_all(
            seed,
            Effort {
                seconds,
                smoke: args.has("--smoke"),
            },
            args.value("--out"),
            load_start,
        ),
        Some("layers") => {
            let (layers, failures) = layers::measure(seed, seconds);
            report::print_layers(&layers);
            failures.iter().for_each(|f| eprintln!("FAILED: {f}"));
            let file = Json::obj([
                ("env", env::capture(load_start)),
                ("layers", report::layers_json(&layers)),
            ]);
            println!("{}", file.to_pretty());
            failures.is_empty()
        }
        Some("trace") => {
            let name = args.0.get(1).unwrap_or_else(|| die(USAGE));
            let workload = workloads::find(name).unwrap_or_else(|e| die(&e));
            let effort = Effort {
                seconds: 3.0,
                smoke: false,
            };
            let mut result = report::measure_end_to_end(workload, seed, effort);
            result.trace();
            result.print();
            let file = Json::obj([
                ("env", env::capture(load_start)),
                (workload.name, result.to_json()),
            ]);
            println!("{}", file.to_pretty());
            result.failed() == 0
        }
        Some("check-workloads") => check_workloads(seed),
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(base), Some(change)) => compare::run(base, change).unwrap_or_else(|e| die(&e)),
            _ => die(USAGE),
        },
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            true
        }
        _ if args.has("--workload") => driver(&args, seed, seconds),
        _ => die(USAGE),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// One workload, one result line: what `BENCHMARK.json`'s command is run as.
fn driver(args: &Args, seed: u64, seconds: f64) -> bool {
    let name = args.value("--workload").unwrap_or_else(|| die(USAGE));
    let workload = workloads::find(name).unwrap_or_else(|e| die(&e));
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => die(&format!("--trace takes 0 or 1, not {other:?}")),
    };
    let effort = Effort {
        // A traced invocation spends most of its time on the layers; it needs the
        // real run only for `round.unattributed_share`.
        seconds: if traced { seconds * 0.25 } else { seconds },
        smoke: false,
    };
    let mut result = report::measure_end_to_end(workload, seed, effort);
    let mut attempted = result.attempted();
    let mut failed = result.failed();
    let metrics: Vec<(String, Json)> = if traced {
        result.trace();
        let (layers, layer_failures) = layers::measure(seed, seconds * 0.5);
        report::print_layers(&layers);
        layer_failures.iter().for_each(|f| eprintln!("FAILED: {f}"));
        attempted = result.attempted() + layers.len() + layer_failures.len();
        failed = result.failed() + layer_failures.len();
        layers
            .iter()
            .map(|m| (m.name.clone(), report::value_json(m.summary.median, m.unit)))
            .chain(
                result
                    .round_metrics()
                    .into_iter()
                    .map(|(name, unit, value)| (name.to_string(), report::value_json(value, unit))),
            )
            .collect()
    } else if result.e2e.complete() {
        result
            .e2e
            .metrics()
            .iter()
            .map(|m| (m.name.to_string(), report::value_json(m.value, m.unit)))
            .collect()
    } else {
        Vec::new()
    };
    result.print();
    // The driver reads the last line of standard output; everything for people
    // goes to standard error.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    );
    failed == 0
}

/// Every workload end to end and traced, plus the per-layer metrics, into one
/// result file. With `--smoke`: 1/20 length, one repeat, names validated
/// against `BENCHMARK.json`.
fn run_all(seed: u64, effort: Effort, out: Option<&str>, load_start: f64) -> bool {
    let mut ok = true;
    let mut results: Vec<WorkloadResult> = Vec::new();
    for workload in &WORKLOADS {
        let mut result = report::measure_end_to_end(workload, seed, effort);
        result.trace();
        result.print();
        ok &= result.failed() == 0;
        results.push(result);
    }
    let layer_seconds = if effort.smoke {
        1.0
    } else {
        effort.seconds.max(4.0)
    };
    let (layers, layer_failures) = layers::measure(seed, layer_seconds);
    report::print_layers(&layers);
    layer_failures.iter().for_each(|f| eprintln!("FAILED: {f}"));
    ok &= layer_failures.is_empty();

    let named = contract::load().and_then(|c| check_against_contract(&c, &results, &layers));
    match named {
        Ok(()) => eprintln!("names match BENCHMARK.json"),
        Err(e) => {
            eprintln!("FAILED: {e}");
            ok = false;
        }
    }
    let attempted: usize = results.iter().map(WorkloadResult::attempted).sum();
    let failed: usize = results.iter().map(WorkloadResult::failed).sum();
    eprintln!("runs: {attempted} attempted, {failed} failed");
    let file = Json::obj([
        ("schema", Json::str("selsync-benchmark/1")),
        (
            "mode",
            Json::str(if effort.smoke { "smoke" } else { "full" }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_workload", Json::Num(effort.seconds)),
        ("env", env::capture(load_start)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "workloads",
            Json::obj(results.iter().map(|r| (r.workload.name, r.to_json()))),
        ),
        ("layers", report::layers_json(&layers)),
        (
            "layer_failures",
            Json::Arr(layer_failures.iter().map(Json::str).collect()),
        ),
    ]);
    match out {
        Some(path) => match std::fs::write(path, file.to_pretty()) {
            Ok(()) => eprintln!("results written to {path}"),
            Err(e) => {
                eprintln!("FAILED: write {path}: {e}");
                ok = false;
            }
        },
        None => println!("{}", file.to_pretty()),
    }
    ok
}

/// What a full run emits must be exactly what the contract lists.
fn check_against_contract(
    contract: &Json,
    results: &[WorkloadResult],
    layers: &[layers::LayerMetric],
) -> Result<(), String> {
    let names: Vec<String> = results
        .iter()
        .map(|r| r.workload.name.to_string())
        .collect();
    contract::check_names(contract, "workloads", &names)?;
    for result in results {
        if !result.e2e.complete() {
            return Err(format!(
                "{}: no complete end-to-end measurement",
                result.workload.name
            ));
        }
        let end_to_end: Vec<String> = result
            .e2e
            .metrics()
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        contract::check_names(contract, "end_to_end", &end_to_end)?;
        let per_layer: Vec<String> = layers
            .iter()
            .map(|m| m.name.clone())
            .chain(result.round_metrics().iter().map(|(n, ..)| n.to_string()))
            .collect();
        contract::check_names(contract, "per_layer", &per_layer)?;
    }
    Ok(())
}

/// From the oracle alone: does each workload still have the character it was
/// chosen for? A numerics or policy change must not silently turn one workload
/// into another.
fn check_workloads(seed: u64) -> bool {
    let mut ok = true;
    println!(
        "{:20} {:>10} {:>16} {:>9} {:>9} {:>7}  verdict",
        "workload", "sync_share", "rounds_to_target", "retries", "evictions", "images"
    );
    for workload in &WORKLOADS {
        let scenario = workload.scenario(seed, None);
        let oracle = runner::oracle(workload, &scenario);
        let mut problems = Vec::new();
        let (lo, hi) = workload.sync_share;
        if !(lo..=hi).contains(&oracle.sync_share()) {
            problems.push(format!("sync share outside [{lo}, {hi}]"));
        }
        if oracle.rounds_to_target.is_none() {
            problems.push(format!("never reaches top-1 >= {}%", workload.target));
        }
        if oracle.evictions > 0 {
            problems.push("workers are evicted".to_string());
        }
        if let Some(faults) = &scenario.comm_faults {
            if !faults.is_lossless() && oracle.retries_per_round <= 0.0 {
                problems.push("lossy links cause no retries".to_string());
            }
        }
        if oracle.ckpt_images != workload.ckpt_images {
            problems.push(format!(
                "{} checkpoint images, not {}",
                oracle.ckpt_images, workload.ckpt_images
            ));
        }
        println!(
            "{:20} {:>10.4} {:>16} {:>9.4} {:>9} {:>7}  {}",
            workload.name,
            oracle.sync_share(),
            oracle
                .rounds_to_target
                .map_or("never".to_string(), |r| r.to_string()),
            oracle.retries_per_round,
            oracle.evictions,
            oracle.ckpt_images,
            if problems.is_empty() {
                "ok".to_string()
            } else {
                format!("FAILED: {}", problems.join("; "))
            }
        );
        ok &= problems.is_empty();
    }
    ok
}
