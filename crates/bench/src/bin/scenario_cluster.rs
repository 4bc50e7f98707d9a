//! Run a scenario's SelSync arm as a real multi-process cluster — one OS process
//! per worker plus a parameter-server hub process — over the socket transport,
//! then verify the merged event log against the in-process simulator.
//!
//! ```text
//! scenario_cluster crash-rejoin                  # built-in, UDS hub socket
//! scenario_cluster flaky-links --workers 4       # override the worker count
//! scenario_cluster crash-rejoin --iterations 60  # shorter smoke run
//! scenario_cluster steady --trace merged.jsonl   # write the merged event log
//! scenario_cluster flaky-links --check           # exit 1 unless byte-identical
//! scenario_cluster steady --kill 1:12            # kill worker 1 at round 12;
//!                                                # verify against the
//!                                                # equivalent scheduled crash
//! scenario_cluster steady --ckpt-dir D --halt 9  # checkpoint and halt
//! scenario_cluster steady --resume D/ckpt-9      # resume; merged trace must
//!                                                # equal the uninterrupted run
//! scenario_cluster custom.toml                   # scenario file; a
//!                                                # [scenario] transport =
//!                                                # "socket" block may pick TCP
//! ```
//!
//! The orchestrator writes the resolved scenario to a run directory, spawns
//! itself once per role (`--role hub` / `--role worker --index I`), waits for
//! every process, merges the per-process trace shards with
//! [`selsync_tracelog::EventLog::merge`], and runs the sequential simulator on
//! the same scenario in-process. The verdict compares:
//!
//! * the **merged event log** against the simulator's, byte for byte, and
//! * each worker's **synchronization schedule** against the simulator's
//!   schedule restricted to the rounds that worker was present.
//!
//! Timing and accuracy metrics (simulated seconds, eval history) are cost-model
//! quantities only the simulator computes — the cluster reports schedule-level
//! facts (docs/TRANSPORT.md).

use selsync::conditions::FaultEvent;
use selsync::config::AlgorithmSpec;
use selsync::process::{
    decode_worker_report, encode_worker_report, ensure_supported, run_process_hub_with,
    run_process_worker_with, WorkerOptions,
};
use selsync_bench::{read_resume_image, CheckpointArgs};
use selsync_comm::socket::SocketAddrSpec;
use selsync_scenario::{load, Scenario, TransportSpec, BUILTIN_NAMES};
use selsync_tracelog::{EventLog, TraceGranularity, TraceSink};
use std::path::{Path, PathBuf};
use std::process::Command;

fn usage() -> ! {
    eprintln!(
        "usage: scenario_cluster <builtin-name | file.toml> [--workers N] [--seed N]\n\
         \x20                       [--iterations N] [--trace FILE] [--check]\n\
         \x20                       [--kill WORKER:ROUND] [--ckpt-every N]\n\
         \x20                       [--ckpt-dir DIR] [--ckpt-keep N] [--halt N]\n\
         \x20                       [--resume IMAGE]\n\
         built-ins: {}",
        BUILTIN_NAMES.join(", ")
    );
    std::process::exit(2);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The training configuration every process (and the reference simulator)
/// derives from the scenario: the SelSync arm with full trace capture.
fn cluster_config(scenario: &Scenario) -> selsync::config::TrainConfig {
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    cfg
}

/// Parse a `--kill WORKER:ROUND` operand.
fn parse_kill(text: &str) -> Option<(usize, usize)> {
    let (w, r) = text.split_once(':')?;
    Some((w.parse().ok()?, r.parse().ok()?))
}

/// Child-process entry: run one role against the hub socket and write the
/// role's output file (`hub`: the trace shard; `worker`: the report line
/// followed by the shard). Never returns to the orchestrator path.
fn run_child(
    role: &str,
    index: usize,
    scenario_path: &str,
    socket: &str,
    out: &str,
    resume: Option<&str>,
    kill: Option<(usize, usize)>,
) -> ! {
    let scenario = match load(scenario_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: child could not load scenario: {e}");
            std::process::exit(1);
        }
    };
    let cfg = cluster_config(&scenario);
    let resume_image = resume.map(|path| {
        read_resume_image(path, &cfg).unwrap_or_else(|e| {
            eprintln!("error: child could not read its resume image: {e}");
            std::process::exit(1);
        })
    });
    let addr = SocketAddrSpec::parse(socket);
    let output = match role {
        "hub" => run_process_hub_with(&cfg, &addr, resume_image.as_ref()),
        "worker" => {
            let opts = WorkerOptions {
                resume: resume_image.as_ref(),
                kill_at: kill.and_then(|(w, r)| (w == index).then_some(r)),
            };
            let (report, shard) = run_process_worker_with(&cfg, index, &addr, opts);
            format!("{}\n{shard}", encode_worker_report(&report))
        }
        other => {
            eprintln!("error: unknown role {other:?}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(out, output) {
        eprintln!("error: child could not write {out}: {e}");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn spawn_role(
    scenario_path: &Path,
    socket: &str,
    run_dir: &Path,
    role: &str,
    index: usize,
    resume: Option<&str>,
    kill: Option<(usize, usize)>,
) -> (std::process::Child, PathBuf) {
    let out = run_dir.join(format!("{role}{index}.out"));
    let exe = std::env::current_exe().expect("current_exe");
    let mut command = Command::new(exe);
    command
        .arg("--role")
        .arg(role)
        .arg("--index")
        .arg(index.to_string())
        .arg("--scenario")
        .arg(scenario_path)
        .arg("--socket")
        .arg(socket)
        .arg("--out")
        .arg(&out);
    if let Some(path) = resume {
        command.arg("--resume").arg(path);
    }
    if let Some((w, r)) = kill {
        command.arg("--kill").arg(format!("{w}:{r}"));
    }
    let child = command
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn {role} {index}: {e}"));
    (child, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }

    // Hidden child mode: the orchestrator re-invokes this binary per role.
    if args[0] == "--role" {
        let mut role = None;
        let mut index = 0usize;
        let mut scenario_path = None;
        let mut socket = None;
        let mut out = None;
        let mut resume = None;
        let mut kill = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--role" => role = args.get(i + 1).cloned(),
                "--index" => index = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(0),
                "--scenario" => scenario_path = args.get(i + 1).cloned(),
                "--socket" => socket = args.get(i + 1).cloned(),
                "--out" => out = args.get(i + 1).cloned(),
                "--resume" => resume = args.get(i + 1).cloned(),
                "--kill" => kill = args.get(i + 1).and_then(|v| parse_kill(v)),
                _ => {}
            }
            i += 2;
        }
        let (Some(role), Some(scenario_path), Some(socket), Some(out)) =
            (role, scenario_path, socket, out)
        else {
            eprintln!("error: incomplete child invocation");
            std::process::exit(1);
        };
        run_child(
            &role,
            index,
            &scenario_path,
            &socket,
            &out,
            resume.as_deref(),
            kill,
        );
    }

    let mut scenario = match load(&args[0]) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut trace_out: Option<String> = None;
    let mut check = false;
    let mut kill: Option<(usize, usize)> = None;
    let mut ckpt_args = CheckpointArgs::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                scenario.workers = v.parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                scenario.seed = v.parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--iterations" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                scenario.iterations = v.parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--trace" => {
                trace_out = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--kill" => {
                let v = args.get(i + 1).unwrap_or_else(|| usage());
                kill = Some(parse_kill(v).unwrap_or_else(|| usage()));
                i += 2;
            }
            flag => match ckpt_args.take(flag, args.get(i + 1)) {
                Ok(true) => i += 2,
                Ok(false) => usage(),
                Err(e) => usage_error(&e),
            },
        }
    }
    if let Err(e) = scenario.validate() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if let Some((w, r)) = kill {
        if w >= scenario.workers || r >= scenario.iterations {
            eprintln!(
                "error: --kill {w}:{r} is outside the cluster ({} workers, {} iterations)",
                scenario.workers, scenario.iterations
            );
            std::process::exit(2);
        }
    }
    let resume = ckpt_args.resume.clone();
    if resume.is_some() {
        let a = &ckpt_args;
        if a.every.is_some() || a.dir.is_some() || a.keep.is_some() || a.halt.is_some() {
            usage_error("--resume replays from an existing image; drop the --ckpt-*/--halt flags");
        }
        // Fail on an unreadable or foreign image — or one of another configuration
        // — once, here, not once per child.
        if let Err(e) = ckpt_args.resume_image(&cluster_config(&scenario)) {
            usage_error(&e);
        }
        // A resumed verification run replays the remaining rounds against the
        // uninterrupted reference; it does not write further images.
        scenario.checkpoint = None;
    }
    let halt = ckpt_args.halt;
    // Cluster images have no default directory: they must land somewhere durable.
    if let Some(mut spec) = ckpt_args.spec(None).unwrap_or_else(|e| usage_error(&e)) {
        spec.keep = spec
            .keep
            .or(scenario.checkpoint.as_ref().and_then(|c| c.keep));
        scenario.checkpoint = Some(spec);
    }
    // A one-line diagnosis (naming the offending scenario key) beats the panic
    // backtrace every child would otherwise print.
    if let Err(e) = ensure_supported(&cluster_config(&scenario)) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    let n = scenario.workers;
    let run_dir = std::env::temp_dir().join(format!(
        "selsync-cluster-{}-{}",
        scenario.name,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).expect("create run dir");
    // Children re-parse the resolved scenario from disk, so the file round trip
    // — not argument forwarding — is the single source of configuration truth.
    // Runtime knobs that are not configuration (--kill, --resume) are forwarded
    // as child arguments instead.
    let scenario_path = run_dir.join("scenario.toml");
    std::fs::write(&scenario_path, scenario.to_toml_string()).expect("write scenario file");
    let socket = match &scenario.transport {
        TransportSpec::Socket { addr: Some(addr) } => addr.clone(),
        _ => run_dir.join("hub.sock").to_string_lossy().into_owned(),
    };

    eprintln!(
        "cluster: {} workers + hub over {} ({})",
        n,
        socket,
        if socket.contains(':') { "tcp" } else { "uds" },
    );
    let mut children = Vec::new();
    children.push(spawn_role(
        &scenario_path,
        &socket,
        &run_dir,
        "hub",
        0,
        resume.as_deref(),
        None,
    ));
    for w in 0..n {
        children.push(spawn_role(
            &scenario_path,
            &socket,
            &run_dir,
            "worker",
            w,
            resume.as_deref(),
            kill,
        ));
    }
    let mut outputs = Vec::new();
    for (mut child, out) in children {
        let status = child.wait().expect("wait for child");
        if !status.success() {
            eprintln!(
                "error: cluster process for {} failed ({status})",
                out.display()
            );
            std::process::exit(1);
        }
        outputs.push(std::fs::read_to_string(&out).expect("read child output"));
    }

    // outputs[0] is the hub shard; outputs[1..] are "report\nshard" per worker.
    let mut shards = vec![EventLog::decode(&outputs[0]).expect("hub shard decodes")];
    let mut reports = Vec::new();
    for text in &outputs[1..] {
        let (report_line, shard) = text
            .split_once('\n')
            .expect("worker output has a report line");
        reports.push(decode_worker_report(report_line).expect("worker report decodes"));
        shards.push(EventLog::decode(shard).expect("worker shard decodes"));
    }
    reports.sort_by_key(|r| r.worker);
    let merged = EventLog::merge(shards).encode();

    if let Some(path) = &trace_out {
        std::fs::write(path, &merged).expect("write merged trace");
        eprintln!("merged event log written to {path}");
    }

    // A halted run stops at the checkpoint quiescent point — there is no
    // uninterrupted reference to compare against. Resume from the image to
    // finish the run and get the parity verdict.
    if let Some(h) = halt {
        let ck = scenario.checkpoint.as_ref().expect("--halt built a spec");
        println!(
            "# scenario: {} (seed {}) — halted after round {h}",
            scenario.name, scenario.seed
        );
        println!(
            "checkpoint images under {}; resume with --resume {}/ckpt-{h}",
            ck.dir, ck.dir
        );
        std::fs::remove_dir_all(&run_dir).ok();
        return;
    }

    // Reference: the sequential simulator on the same scenario, in-process. A
    // --kill death must behave exactly like a scheduled no-rejoin crash at the
    // kill round, so the reference gets that crash.
    let mut cfg = cluster_config(&scenario);
    if let Some((w, r)) = kill {
        cfg.conditions = cfg.conditions.clone().with_fault(FaultEvent::Crash {
            worker: w,
            start: r,
            rejoin: None,
        });
    }
    let sim_report = selsync::algorithms::run(&cfg);
    let sim_trace = cfg.trace.take_log().encode();

    let effective = cfg.effective_conditions();
    let mut divergences = Vec::new();
    if merged != sim_trace {
        let first = merged
            .lines()
            .zip(sim_trace.lines())
            .position(|(a, b)| a != b)
            .map(|at| format!("first differing line {}", at + 1))
            .unwrap_or_else(|| "different line counts".to_string());
        divergences.push(format!("merged event log != simulator log ({first})"));
    }
    for r in &reports {
        let expected: Vec<usize> = sim_report
            .sync_rounds
            .iter()
            .copied()
            .filter(|&round| effective.is_present(r.worker, round))
            .collect();
        if r.sync_rounds != expected {
            divergences.push(format!(
                "worker {} schedule {:?} != simulator's {:?}",
                r.worker, r.sync_rounds, expected
            ));
        }
    }

    println!(
        "# scenario: {} (seed {}) — multi-process cluster, {} workers",
        scenario.name, scenario.seed, n
    );
    for r in &reports {
        println!(
            "worker {:2}: {:3} sync / {:3} local rounds, final loss {:.5}",
            r.worker, r.sync_steps, r.local_steps, r.final_loss
        );
    }
    println!(
        "simulator: {} sync / {} local rounds, {} trace events",
        sim_report.sync_steps,
        sim_report.local_steps,
        sim_trace.lines().count()
    );
    if divergences.is_empty() {
        println!("parity: OK — merged log byte-identical to the simulator's");
        std::fs::remove_dir_all(&run_dir).ok();
    } else {
        println!("parity: DIVERGED");
        for d in &divergences {
            println!("  - {d}");
        }
        eprintln!("run artifacts kept in {}", run_dir.display());
        if check {
            std::process::exit(1);
        }
    }
}
