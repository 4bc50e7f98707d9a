//! Multi-process cluster parity acceptance suite (see `docs/TRANSPORT.md`).
//!
//! The `scenario_cluster` contract, pinned over *real OS processes*: one
//! process per worker plus a parameter-server hub process, talking over a Unix
//! domain socket through [`selsync_repro::comm::socket::SocketTransport`], must
//! produce — after merging the per-process trace shards — the byte-identical
//! event log of the sequential simulator, and every worker's synchronization
//! schedule must equal the simulator's restricted to that worker's present
//! rounds. Covered across worker counts {2, 4} on both a crash/rejoin schedule
//! and `[comm_faults]` link weather.
//!
//! Process harness: integration tests cannot reach the bench crate's binaries,
//! so the suite re-executes *its own* test binary. The hidden
//! [`process_child_entry`] test is a no-op under a normal run; when the
//! `SELSYNC_PROCESS_ROLE` environment variable is set it becomes a cluster
//! role (hub or worker), runs the shared per-case configuration against the
//! hub socket, and writes its shard to `SELSYNC_PROCESS_OUT`.

use selsync_repro::comm::faults::{CommFaultSpec, PsFaultSpec};
use selsync_repro::comm::socket::SocketAddrSpec;
use selsync_repro::core::algorithms;
use selsync_repro::core::checkpoint::Checkpoint;
use selsync_repro::core::conditions::{ClusterConditions, FaultEvent};
use selsync_repro::core::config::{AlgorithmSpec, CheckpointSpec, TrainConfig};
use selsync_repro::core::policy::PolicySpec;
use selsync_repro::core::process::{
    decode_worker_report, run_process_hub_with, run_process_worker_with, WorkerOptions,
};
use selsync_repro::core::threaded::ThreadedWorkerReport;
use selsync_repro::nn::model::ModelKind;
use selsync_repro::tracelog::{EventLog, TraceGranularity, TraceSink};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The shared per-case configuration — the single source of truth the parent
/// (for the simulator reference) and every child role derive independently.
/// Case tags are `<schedule>-w<workers>`.
fn test_cfg(case: &str) -> TrainConfig {
    let (schedule, workers) = case
        .rsplit_once("-w")
        .expect("case tag like crash-rejoin-w4");
    let workers: usize = workers.parse().expect("worker count suffix");
    let mut c = TrainConfig::small(ModelKind::ResNetLike, workers);
    c.iterations = 36;
    c.batch_size = 8;
    c.train_samples = 512;
    c.test_samples = 128;
    c.trace = TraceSink::capture(TraceGranularity::Full);
    c.algorithm = AlgorithmSpec::selsync(0.05);
    match schedule {
        "crash-rejoin" => {
            // The last worker crashes mid-run and rejoins, pulling the last
            // scheduled global as the simulator does, and the 4-worker case adds
            // a permanent late crash.
            c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
                worker: workers - 1,
                start: 8,
                rejoin: Some(20),
            });
            if workers >= 4 {
                c.delta_policy = Some(PolicySpec::adaptive_default());
                c.conditions = c.conditions.with_fault(FaultEvent::Crash {
                    worker: 2,
                    start: 28,
                    rejoin: None,
                });
            }
        }
        "flaky-links" => {
            // The flaky-links built-in's link weather: every fault fate rides
            // the socket transport through the FaultyTransport decorator.
            c.comm_faults = Some(CommFaultSpec {
                seed: 42,
                drop: 0.08,
                duplicate: 0.04,
                corrupt: 0.02,
                delay: 0.06,
                delay_rounds: 0,
                retry_budget: 5,
                timeout_s: 5e-3,
            });
        }
        "noniid" => {
            // Label-sharded (non-IID) worker data; the CIFAR10-like set has 10
            // classes, so labels × workers must cover them.
            c.non_iid_labels_per_worker = Some(if workers >= 4 { 3 } else { 5 });
        }
        "kill" => {
            // A fault-free schedule; the only membership change is the runtime
            // worker death the test injects via SELSYNC_PROCESS_KILL. The
            // 4-worker case runs the adaptive policy across the death.
            if workers >= 4 {
                c.delta_policy = Some(PolicySpec::adaptive_default());
            }
        }
        "ckpt" => {
            // A PS outage window straddles the halt round and the adaptive
            // policy carries cross-round state through it — the checkpoint
            // image must capture both.
            c.ps_faults = Some(PsFaultSpec {
                seed: 11,
                windows: vec![(9, 3)],
                flaky: 0.0,
            });
            c.delta_policy = Some(PolicySpec::adaptive_default());
        }
        other => panic!("unknown case schedule {other:?}"),
    }
    c
}

/// Hidden child entry. A no-op test under a normal run; a cluster role when
/// the parent re-executed this binary with the `SELSYNC_PROCESS_*` variables.
#[test]
fn process_child_entry() {
    let Ok(role) = std::env::var("SELSYNC_PROCESS_ROLE") else {
        return;
    };
    let case = std::env::var("SELSYNC_PROCESS_CASE").expect("case env");
    let out = std::env::var("SELSYNC_PROCESS_OUT").expect("out env");
    let socket = std::env::var("SELSYNC_PROCESS_SOCKET").expect("socket env");
    let addr = SocketAddrSpec::parse(&socket);
    let mut cfg = test_cfg(&case);
    // Runtime knobs beyond the shared case config: a checkpoint policy, an
    // image to resume from, and a scheduled abrupt death.
    if let Ok(dir) = std::env::var("SELSYNC_PROCESS_CKPT_DIR") {
        cfg.checkpoint = Some(CheckpointSpec {
            every: std::env::var("SELSYNC_PROCESS_CKPT_EVERY")
                .expect("ckpt dir implies a cadence")
                .parse()
                .expect("cadence parses"),
            dir,
            halt_after: std::env::var("SELSYNC_PROCESS_HALT")
                .ok()
                .map(|v| v.parse().expect("halt round parses")),
            keep: None,
        });
    }
    let resume = std::env::var("SELSYNC_PROCESS_RESUME")
        .ok()
        .map(|path| Checkpoint::read_file(Path::new(&path)).expect("resume image reads back"));
    let kill: Option<(usize, usize)> = std::env::var("SELSYNC_PROCESS_KILL").ok().map(|v| {
        let (w, r) = v.split_once(':').expect("kill spec like 1:12");
        (
            w.parse().expect("kill worker"),
            r.parse().expect("kill round"),
        )
    });
    let output = match role.as_str() {
        "hub" => run_process_hub_with(&cfg, &addr, resume.as_ref()),
        "worker" => {
            let index: usize = std::env::var("SELSYNC_PROCESS_INDEX")
                .expect("index env")
                .parse()
                .expect("index parses");
            let opts = WorkerOptions {
                resume: resume.as_ref(),
                kill_at: kill.and_then(|(w, r)| (w == index).then_some(r)),
            };
            let (report, shard) = run_process_worker_with(&cfg, index, &addr, opts);
            format!(
                "{}\n{shard}",
                selsync_repro::core::process::encode_worker_report(&report)
            )
        }
        other => panic!("unknown role {other:?}"),
    };
    std::fs::write(&out, output).expect("child writes its output file");
}

fn spawn_role(
    case: &str,
    role: &str,
    index: usize,
    socket: &Path,
    dir: &Path,
    extra_env: &[(&str, String)],
) -> (std::process::Child, PathBuf) {
    let out = dir.join(format!("{role}{index}.out"));
    let exe = std::env::current_exe().expect("current test binary");
    let mut command = Command::new(exe);
    command
        .arg("process_child_entry")
        .arg("--exact")
        .env("SELSYNC_PROCESS_ROLE", role)
        .env("SELSYNC_PROCESS_CASE", case)
        .env("SELSYNC_PROCESS_INDEX", index.to_string())
        .env("SELSYNC_PROCESS_SOCKET", socket)
        .env("SELSYNC_PROCESS_OUT", &out);
    for (key, value) in extra_env {
        command.env(key, value);
    }
    let child = command
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn {role} {index}: {e}"));
    (child, out)
}

/// Spawn the hub + worker processes for one case with the given runtime knobs,
/// wait for them all, and return the sorted reports plus the merged shard log.
fn run_cluster(
    case: &str,
    workers: usize,
    tag: &str,
    extra_env: &[(&str, String)],
) -> (Vec<ThreadedWorkerReport>, String) {
    let dir = std::env::temp_dir().join(format!(
        "selsync-process-parity-{}-{case}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create case dir");
    let socket = dir.join("hub.sock");

    let mut children = vec![spawn_role(case, "hub", 0, &socket, &dir, extra_env)];
    for w in 0..workers {
        children.push(spawn_role(case, "worker", w, &socket, &dir, extra_env));
    }
    let mut outputs = Vec::new();
    for (mut child, out) in children {
        let status = child.wait().expect("wait for child process");
        assert!(
            status.success(),
            "{case}: {} failed ({status})",
            out.display()
        );
        outputs.push(std::fs::read_to_string(&out).expect("read child output"));
    }

    let mut shards = vec![EventLog::decode(&outputs[0]).expect("hub shard decodes")];
    let mut reports = Vec::new();
    for text in &outputs[1..] {
        let (line, shard) = text
            .split_once('\n')
            .expect("worker output has a report line");
        reports.push(decode_worker_report(line).expect("worker report decodes"));
        shards.push(EventLog::decode(shard).expect("worker shard decodes"));
    }
    reports.sort_by_key(|r| r.worker);
    let merged = EventLog::merge(shards).encode();
    let _ = std::fs::remove_dir_all(&dir);
    (reports, merged)
}

/// Pin one cluster run against the in-process simulator on `cfg`: byte-equal
/// merged logs, and per-worker schedules equal to the simulator's restricted
/// to each worker's present rounds.
fn assert_cluster_matches_sim(
    case: &str,
    cfg: &TrainConfig,
    reports: &[ThreadedWorkerReport],
    merged: &str,
) {
    let sim_report = algorithms::run(cfg);
    let sim_trace = cfg.trace.take_log().encode();
    assert_eq!(
        merged, sim_trace,
        "{case}: merged process shards diverged from the simulator's event log"
    );
    let effective = cfg.effective_conditions();
    for r in reports {
        let expected: Vec<usize> = sim_report
            .sync_rounds
            .iter()
            .copied()
            .filter(|&round| effective.is_present(r.worker, round))
            .collect();
        assert_eq!(
            r.sync_rounds, expected,
            "{case}: worker {} schedule diverged from the simulator's",
            r.worker
        );
    }
}

/// Spawn the hub + worker processes for one case, merge their shards and pin
/// them against the in-process simulator.
fn run_cluster_case(case: &str) {
    let cfg = test_cfg(case);
    let (reports, merged) = run_cluster(case, cfg.workers, "base", &[]);
    assert_cluster_matches_sim(case, &cfg, &reports, &merged);
}

/// Kill one worker's process abruptly mid-run; the surviving cluster must be
/// byte-identical to the simulator running the equivalent scheduled no-rejoin
/// crash.
fn run_kill_case(case: &str, kill: (usize, usize)) {
    let mut cfg = test_cfg(case);
    cfg.conditions = cfg.conditions.clone().with_fault(FaultEvent::Crash {
        worker: kill.0,
        start: kill.1,
        rejoin: None,
    });
    let env = [("SELSYNC_PROCESS_KILL", format!("{}:{}", kill.0, kill.1))];
    let (reports, merged) = run_cluster(case, cfg.workers, "kill", &env);
    assert_cluster_matches_sim(case, &cfg, &reports, &merged);
}

#[test]
fn crash_rejoin_cluster_of_2_processes_matches_the_simulator() {
    run_cluster_case("crash-rejoin-w2");
}

#[test]
fn crash_rejoin_cluster_of_4_processes_matches_the_simulator() {
    run_cluster_case("crash-rejoin-w4");
}

#[test]
fn flaky_links_cluster_of_2_processes_matches_the_simulator() {
    run_cluster_case("flaky-links-w2");
}

#[test]
fn flaky_links_cluster_of_4_processes_matches_the_simulator() {
    run_cluster_case("flaky-links-w4");
}

#[test]
fn non_iid_cluster_of_2_processes_matches_the_simulator() {
    run_cluster_case("noniid-w2");
}

#[test]
fn non_iid_cluster_of_4_processes_matches_the_simulator() {
    run_cluster_case("noniid-w4");
}

#[test]
fn killed_worker_process_evicts_like_a_scheduled_crash_at_2_workers() {
    run_kill_case("kill-w2", (1, 17));
}

#[test]
fn killed_worker_process_evicts_like_a_scheduled_crash_at_4_workers() {
    run_kill_case("kill-w4", (2, 12));
}

/// Halt a checkpointed cluster run mid-training, then resume a fresh set of
/// processes from the halt image: the merged trace and every worker's schedule
/// must be indistinguishable from a run that never stopped.
#[test]
fn cluster_checkpoint_resume_reproduces_the_uninterrupted_run() {
    let case = "ckpt-w2";
    let cfg = test_cfg(case);
    let ckpt_dir = std::env::temp_dir().join(format!(
        "selsync-process-parity-{}-ckpt-images",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let dir_str = ckpt_dir.to_str().expect("utf-8 temp dir").to_string();

    // Phase 1: checkpoint every 5 rounds and halt after round 10.
    let halt_env = [
        ("SELSYNC_PROCESS_CKPT_DIR", dir_str),
        ("SELSYNC_PROCESS_CKPT_EVERY", "5".to_string()),
        ("SELSYNC_PROCESS_HALT", "10".to_string()),
    ];
    let _ = run_cluster(case, cfg.workers, "halt", &halt_env);
    assert!(
        ckpt_dir.join("ckpt-4").exists(),
        "cadence image from round 4 missing"
    );
    let image = ckpt_dir.join("ckpt-10");
    let ckpt = Checkpoint::read_file(&image).expect("halt image reads back");
    assert_eq!(ckpt.backend, "process");
    assert_eq!(ckpt.round, 10);

    // Phase 2: resume from the halt image and run to completion.
    let resume_env = [(
        "SELSYNC_PROCESS_RESUME",
        image.to_str().expect("utf-8 path").to_string(),
    )];
    let (reports, merged) = run_cluster(case, cfg.workers, "resume", &resume_env);
    assert_cluster_matches_sim(case, &cfg, &reports, &merged);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
