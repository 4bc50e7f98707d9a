//! One workload, end to end: the oracle, timed runs as child processes, the
//! correctness checks, and the end-to-end metrics derived from them.

use crate::child::{parse_output, ChildOutput};
use crate::stats::{median, Summary};
use crate::workloads::{train_config, Backend, Workload};
use selsync_comm::wire::checksum;
use selsync_scenario::Scenario;
use selsync_tracelog::{Event, EventLog};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Where run directories (scenario file, hub socket, child outputs, checkpoint
/// images) live. Baked in at build time so the harness writes inside its own
/// checkout wherever it is invoked from.
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `dir/name` for a Unix socket, relative to the current directory when it lies
/// below it: a socket path must fit in ~100 bytes, which an absolute checkout
/// path may not.
pub fn socket_path(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    match std::env::current_dir() {
        Ok(cwd) => path
            .strip_prefix(&cwd)
            .map(Path::to_path_buf)
            .unwrap_or(path),
        Err(_) => path,
    }
}

/// What the sequential simulator says a workload's run must look like. Computed
/// untimed, once per invocation, on the configuration the timed runs use.
pub struct Oracle {
    pub rounds: usize,
    /// FNV-1a-64 of the encoded event log: the sim ≡ threaded ≡ process contract.
    pub digest: u64,
    pub sync_rounds: Vec<usize>,
    /// Rounds until held-out accuracy first reaches the workload's target.
    pub rounds_to_target: Option<usize>,
    pub evictions: usize,
    /// Extra message attempts (beyond the first) per round, from `CommRetry` events.
    pub retries_per_round: f64,
    pub ckpt_images: usize,
}

impl Oracle {
    pub fn sync_share(&self) -> f64 {
        self.sync_rounds.len() as f64 / self.rounds as f64
    }
}

pub fn oracle(workload: &Workload, scenario: &Scenario) -> Oracle {
    let mut cfg = train_config(scenario);
    // Checkpoints leave no trace events and are not part of the parity contract;
    // the oracle skips the disk writes.
    cfg.checkpoint = None;
    let report = selsync::algorithms::run(&cfg);
    let log = cfg.trace.take_log();
    let retries: u64 = log
        .events
        .iter()
        .map(|e| match e {
            Event::CommRetry { attempts, .. } => u64::from(*attempts) - 1,
            _ => 0,
        })
        .sum();
    Oracle {
        rounds: scenario.iterations,
        digest: checksum(log.encode().as_bytes()),
        rounds_to_target: report
            .iterations_to_target(workload.target)
            .map(|iteration| iteration + 1),
        sync_rounds: report.sync_rounds,
        evictions: cfg.comm_fault_evictions().len(),
        retries_per_round: retries as f64 / scenario.iterations as f64,
        ckpt_images: scenario
            .checkpoint
            .as_ref()
            .map_or(0, |ck| scenario.iterations / ck.every),
    }
}

/// One timed run's measurements and the facts its checks compare.
pub struct RunOutcome {
    /// Spawn of the first child to merged event log, seconds.
    pub wall_s: f64,
    /// User + system CPU of every child process, milliseconds.
    pub cpu_ms: f64,
    /// Largest peak resident set among the children, MiB.
    pub peak_rss_mb: f64,
    /// Kernel-pool thread count the children resolved (`SELSYNC_THREADS` or
    /// `available_parallelism`; the harness never sets it).
    pub threads: usize,
    pub digest: u64,
    pub schedules: Vec<(Option<usize>, Vec<usize>)>,
    pub ckpt_images_kept: usize,
    run_dir: PathBuf,
}

static RUN_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn spawn_role(
    exe: &Path,
    run_dir: &Path,
    role: &str,
    index: usize,
    extra: &[&str],
) -> Result<Child, String> {
    // Every path a child sees is relative to its run directory: a Unix socket
    // path must fit in ~100 bytes, which an absolute checkout path may not.
    Command::new(exe)
        .current_dir(run_dir)
        .args(["--role", role, "--index", &index.to_string()])
        .args(["--scenario", "scenario.toml", "--socket", "hub.sock"])
        .args(["--out", &format!("{role}{index}.out")])
        .args(extra)
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("failed to spawn {role} {index}: {e}"))
}

/// Run one child process of this binary per `(role, index)` in a fresh run
/// directory holding the resolved scenario, and wait for all of them. Returns the
/// directory, where each role left `<role><index>.out`; on failure the directory
/// is kept and named in the error.
pub fn run_roles(
    scenario: &Scenario,
    roles: &[(&str, usize)],
    extra: &[&str],
) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let run_dir = out_root().join(format!(
        "run-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    // Children re-parse the resolved scenario from disk, as `scenario_cluster`'s do.
    std::fs::write(run_dir.join("scenario.toml"), scenario.to_toml_string())
        .map_err(|e| format!("write scenario: {e}"))?;
    let mut children = Vec::new();
    let mut failure = None;
    for &(role, index) in roles {
        match spawn_role(&exe, &run_dir, role, index, extra) {
            Ok(child) => children.push((child, role, index)),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    if failure.is_some() {
        // Do not leave a hub waiting forever for workers that never started.
        for (child, ..) in &mut children {
            let _ = child.kill();
        }
    }
    // Every started process is waited for, whatever happened to the others.
    for (child, role, index) in &mut children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => failure = failure.or(Some(format!("{role} {index} failed ({status})"))),
            Err(e) => failure = failure.or(Some(format!("wait for {role} {index}: {e}"))),
        }
    }
    match failure {
        Some(e) => Err(format!("{e}; run directory kept at {}", run_dir.display())),
        None => Ok(run_dir),
    }
}

/// Run `scenario` once on `backend`, every role a child process of this binary.
/// `Err` means the run itself failed (a child died, an output was unreadable);
/// whether a completed run is *correct* is [`RunOutcome::check`]'s business.
pub fn run_once(backend: Backend, scenario: &Scenario) -> Result<RunOutcome, String> {
    let roles: Vec<(&str, usize)> = match backend {
        Backend::Sim => vec![("sim", 0)],
        Backend::Threaded => vec![("threaded", 0)],
        Backend::Process => std::iter::once(("hub", 0))
            .chain((0..scenario.workers).map(|w| ("worker", w)))
            .collect(),
    };
    let started = Instant::now();
    let run_dir = run_roles(scenario, &roles, &[])?;
    let mut outputs: Vec<ChildOutput> = Vec::new();
    for &(role, index) in &roles {
        let path = run_dir.join(format!("{role}{index}.out"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        outputs.push(parse_output(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let shards = outputs
        .iter()
        .map(|o| EventLog::decode(&o.shard))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("trace shard does not decode: {e}"))?;
    let merged = EventLog::merge(shards).encode();
    let wall_s = started.elapsed().as_secs_f64();

    let ckpt_images_kept = scenario.checkpoint.as_ref().map_or(0, |ck| {
        std::fs::read_dir(run_dir.join(&ck.dir)).map_or(0, |entries| entries.count())
    });
    Ok(RunOutcome {
        wall_s,
        cpu_ms: outputs.iter().map(|o| o.cpu_ms).sum(),
        peak_rss_mb: outputs.iter().map(|o| o.hwm_kb).fold(0.0, f64::max) / 1024.0,
        threads: outputs.iter().map(|o| o.threads).max().unwrap_or(0),
        digest: checksum(merged.as_bytes()),
        schedules: outputs.into_iter().flat_map(|o| o.schedules).collect(),
        ckpt_images_kept,
        run_dir,
    })
}

impl RunOutcome {
    /// Compare a full-length run against the oracle: the merged event log must be
    /// byte-identical (by digest) and every reported synchronization schedule must
    /// be the oracle's, restricted to the rounds that worker was present.
    pub fn check(&self, scenario: &Scenario, oracle: &Oracle) -> Result<(), String> {
        if self.digest != oracle.digest {
            return Err(format!(
                "merged event log digest {:016x} != oracle's {:016x}",
                self.digest, oracle.digest
            ));
        }
        let effective = train_config(scenario).effective_conditions();
        for (who, rounds) in &self.schedules {
            let expected: Vec<usize> = match who {
                None => oracle.sync_rounds.clone(),
                Some(w) => oracle
                    .sync_rounds
                    .iter()
                    .copied()
                    .filter(|&r| effective.is_present(*w, r))
                    .collect(),
            };
            if *rounds != expected {
                return Err(format!(
                    "sync schedule of {who:?} has {} rounds, oracle's has {}",
                    rounds.len(),
                    expected.len()
                ));
            }
        }
        if let Some(ck) = &scenario.checkpoint {
            let expected = oracle.ckpt_images.min(ck.keep.unwrap_or(usize::MAX));
            if self.ckpt_images_kept != expected {
                return Err(format!(
                    "{} checkpoint images on disk, expected {expected}",
                    self.ckpt_images_kept
                ));
            }
        }
        Ok(())
    }

    /// Remove the run directory. Called for runs that passed; a failed run's
    /// directory is kept for `scenario_replay --diff`.
    pub fn discard(self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }

    pub fn run_dir(&self) -> &Path {
        &self.run_dir
    }
}

/// End-to-end samples of one workload, one value per repeat.
#[derive(Default)]
pub struct EndToEnd {
    pub rounds_to_target: usize,
    pub threads: usize,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub rounds_per_s: Vec<f64>,
    pub cpu_ms_per_round: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
}

/// How many one-round runs give `setup_s` its median (each takes 10-35 ms).
pub const SETUP_REPEATS: usize = 15;

/// Measure a workload: [`SETUP_REPEATS`] one-round runs, then full runs until
/// `seconds` of measuring have passed (at least `min_full`), each checked against
/// the oracle. A run that fails to complete or fails a check counts as a failed
/// operation and contributes no sample.
pub fn measure(
    workload: &Workload,
    scenario: &Scenario,
    oracle: &Oracle,
    seconds: f64,
    setup_repeats: usize,
    min_full: usize,
) -> EndToEnd {
    let mut e2e = EndToEnd {
        rounds_to_target: oracle.rounds_to_target.unwrap_or(0),
        ..EndToEnd::default()
    };
    let started = Instant::now();
    let probe = workload_probe(scenario);
    for _ in 0..setup_repeats {
        e2e.attempted += 1;
        match run_once(workload.backend, &probe) {
            Ok(run) => {
                e2e.setup_s.push(run.wall_s);
                run.discard();
            }
            Err(e) => e2e.fail(format!("set-up run: {e}")),
        }
    }
    if e2e.setup_s.is_empty() {
        return e2e;
    }
    let setup = median(&e2e.setup_s);
    let mut full_wall = Vec::new();
    while full_wall.len() < min_full
        || started.elapsed().as_secs_f64() + median(&full_wall) / 2.0 < seconds
    {
        e2e.attempted += 1;
        let run = match run_once(workload.backend, scenario) {
            Ok(run) => run,
            Err(e) => {
                e2e.fail(format!("full run: {e}"));
                if e2e.failed >= 3 {
                    break;
                }
                continue;
            }
        };
        full_wall.push(run.wall_s);
        if let Err(e) = run.check(scenario, oracle) {
            e2e.fail(format!(
                "{e}; run directory kept at {}",
                run.run_dir().display()
            ));
            continue;
        }
        let rounds = oracle.rounds as f64;
        e2e.threads = run.threads;
        e2e.rounds_per_s.push((rounds - 1.0) / (run.wall_s - setup));
        e2e.cpu_ms_per_round.push(run.cpu_ms / rounds);
        e2e.peak_rss_mb.push(run.peak_rss_mb);
        run.discard();
    }
    e2e
}

/// The workload cut to a single round: what a run costs before and after its
/// rounds (spawn, connect, scenario load, dataset and model build, teardown, merge).
fn workload_probe(scenario: &Scenario) -> Scenario {
    let mut probe = scenario.clone();
    probe.iterations = 1;
    probe.checkpoint = None;
    probe
}

impl EndToEnd {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Whether every end-to-end metric has at least one sample.
    pub fn complete(&self) -> bool {
        !self.setup_s.is_empty() && !self.rounds_per_s.is_empty() && self.rounds_to_target > 0
    }

    /// What `rounds_per_s` reports. Requires [`Self::complete`].
    pub fn fastest_rounds_per_s(&self) -> f64 {
        Summary::of(&self.rounds_per_s).max
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. Requires [`Self::complete`].
    ///
    /// Which statistic stands for a metric follows from how its runs scatter on a
    /// small shared machine (see the README's noise section): runs of the process
    /// workloads fall into a fast and a slow scheduler placement, and the machine
    /// itself drifts by several percent over minutes.
    ///
    /// * `setup_s` — the median probe.
    /// * `rounds_per_s` — the fastest run: across ten invocations its spread is
    ///   3-8%, the median run's 4-16% (it flips between the two placements).
    /// * `time_to_target_s` — `setup_s + rounds_to_target / rounds_per_s`.
    /// * `cpu_ms_per_round` — the run that burned the least CPU (2-9% against the
    ///   mean's 3-12%).
    /// * `peak_rss_mb` — the largest peak of any run. The hub of the checkpointing
    ///   workload peaks at 16, 20 or 23 MiB depending on how deposits interleave;
    ///   the median flips between them (25%), the largest does not (2%).
    pub fn metrics(&self) -> Vec<Reported> {
        let setup = median(&self.setup_s);
        let to_target: Vec<f64> = self
            .rounds_per_s
            .iter()
            .map(|rate| setup + self.rounds_to_target as f64 / rate)
            .collect();
        let fastest = self.fastest_rounds_per_s();
        let reported = |name, unit, value, runs: &[f64]| Reported {
            name,
            unit,
            value,
            runs: runs.to_vec(),
        };
        vec![
            reported("setup_s", "s", setup, &self.setup_s),
            reported("rounds_per_s", "rounds/s", fastest, &self.rounds_per_s),
            reported(
                "time_to_target_s",
                "s",
                Summary::of(&to_target).min,
                &to_target,
            ),
            reported(
                "cpu_ms_per_round",
                "ms",
                Summary::of(&self.cpu_ms_per_round).min,
                &self.cpu_ms_per_round,
            ),
            reported(
                "peak_rss_mb",
                "MiB",
                Summary::of(&self.peak_rss_mb).max,
                &self.peak_rss_mb,
            ),
        ]
    }
}

/// One end-to-end metric of one workload: the value that stands for it and the
/// per-run readings it was taken from.
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub runs: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn outcome(digest: u64, schedules: Vec<(Option<usize>, Vec<usize>)>) -> RunOutcome {
        RunOutcome {
            wall_s: 1.0,
            cpu_ms: 1.0,
            peak_rss_mb: 1.0,
            threads: 1,
            digest,
            schedules,
            ckpt_images_kept: 0,
            run_dir: PathBuf::new(),
        }
    }

    #[test]
    fn a_run_passes_only_with_the_oracles_digest_and_schedule() {
        let workload = workloads::find("thr-mixed-resnet").unwrap();
        let scenario = workload.scenario(42, Some(40));
        let oracle = oracle(workload, &scenario);
        assert_eq!(oracle.rounds, 40);
        // The digest is a pure function of the configuration.
        assert_eq!(oracle.digest, super::oracle(workload, &scenario).digest);
        let views =
            |rounds: &Vec<usize>| vec![(Some(0), rounds.clone()), (Some(1), rounds.clone())];

        let good = outcome(oracle.digest, views(&oracle.sync_rounds));
        assert_eq!(good.check(&scenario, &oracle), Ok(()));
        let cluster_view = outcome(oracle.digest, vec![(None, oracle.sync_rounds.clone())]);
        assert_eq!(cluster_view.check(&scenario, &oracle), Ok(()));

        let flipped = outcome(oracle.digest ^ 1, views(&oracle.sync_rounds));
        assert!(flipped
            .check(&scenario, &oracle)
            .unwrap_err()
            .contains("digest"));
        let mut extra = oracle.sync_rounds.clone();
        extra.push(39);
        let drifted = outcome(oracle.digest, views(&extra));
        assert!(drifted
            .check(&scenario, &oracle)
            .unwrap_err()
            .contains("schedule"));
    }

    #[test]
    fn checkpointing_runs_must_leave_the_kept_images_on_disk() {
        let workload = workloads::find("proc-faulty-resnet").unwrap();
        let scenario = workload.scenario(42, Some(40));
        let oracle = oracle(workload, &scenario);
        assert_eq!((oracle.ckpt_images, oracle.evictions), (4, 0));
        let mut run = outcome(oracle.digest, Vec::new());
        assert!(run
            .check(&scenario, &oracle)
            .unwrap_err()
            .contains("checkpoint"));
        run.ckpt_images_kept = 2; // `keep = 2` of the 4 written
        assert_eq!(run.check(&scenario, &oracle), Ok(()));
    }

    #[test]
    fn reported_values_follow_the_documented_statistics() {
        let e2e = EndToEnd {
            rounds_to_target: 100,
            setup_s: vec![0.3, 0.1, 0.2],
            rounds_per_s: vec![50.0, 100.0, 80.0],
            cpu_ms_per_round: vec![1.0, 2.0, 6.0],
            peak_rss_mb: vec![9.0, 7.0, 8.0],
            ..EndToEnd::default()
        };
        assert!(e2e.complete());
        let values: Vec<(&str, f64)> = e2e.metrics().iter().map(|m| (m.name, m.value)).collect();
        assert_eq!(
            values,
            vec![
                ("setup_s", 0.2),
                ("rounds_per_s", 100.0),
                ("time_to_target_s", 0.2 + 100.0 / 100.0),
                ("cpu_ms_per_round", 1.0),
                ("peak_rss_mb", 9.0),
            ]
        );
        assert!(!EndToEnd::default().complete());
    }

    #[test]
    fn socket_paths_are_relative_below_the_current_directory() {
        let cwd = std::env::current_dir().unwrap();
        assert_eq!(
            socket_path(&cwd.join("out/x"), "hub.sock"),
            PathBuf::from("out/x/hub.sock")
        );
        assert_eq!(
            socket_path(Path::new("/nonexistent-root/y"), "hub.sock"),
            PathBuf::from("/nonexistent-root/y/hub.sock")
        );
    }
}
