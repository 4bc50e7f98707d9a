//! Parameter-server outage parity + durable-recovery acceptance suite
//! (see `docs/RECOVERY.md`).
//!
//! Three contracts, each byte-for-byte:
//!
//! 1. **Outage parity** — under a `[ps_faults]` schedule (scheduled dark windows +
//!    seeded per-round brownouts) both SelSync backends emit the *same* canonical
//!    event stream — `ps_down` / `degraded_round` / `ps_up` / `catchup_sync`
//!    included — for every policy arm and every `SELSYNC_THREADS` setting.
//! 2. **Outage-free neutrality** — a `[ps_faults]` block that never takes the
//!    server down changes nothing: trace and report equal the no-block baseline.
//! 3. **Kill/resume identity** — kill a run at any checkpointed round, resume from
//!    the persisted image, and the full trace *and* report are byte-identical to
//!    the uninterrupted run, in both backends (property-tested over random kill
//!    rounds).

use proptest::prelude::*;
use selsync_repro::comm::faults::PsFaultSpec;
use selsync_repro::core::algorithms;
use selsync_repro::core::checkpoint::Checkpoint;
use selsync_repro::core::config::{AlgorithmSpec, CheckpointSpec, TrainConfig};
use selsync_repro::core::policy::PolicySpec;
use selsync_repro::core::threaded::{run_threaded_selsync, run_threaded_selsync_resumed};
use selsync_repro::scenario::{builtin, sweep, Scenario};
use selsync_repro::tensor::par;
use selsync_repro::tracelog::{explain, first_divergence, EventLog, TraceGranularity, TraceSink};

/// Same CI-sized rescale the trace-parity suite uses, applied to `ps-brownout`:
/// 30 iterations with the outage windows rescaled to fit ((80,30) → (10,4) and
/// (170,15) → (21,2)), small sample counts, no sweep block.
fn scaled() -> Scenario {
    let mut s = builtin("ps-brownout").expect("built-in scenario");
    sweep::rescale_fault_windows(&mut s, 30);
    s.eval_every = 10;
    s.train_samples = 512;
    s.test_samples = 128;
    s.eval_samples = 128;
    s.batch_size = 8;
    s.sweep = None;
    s
}

/// The policy arms of the acceptance matrix: fixed δ plus both stateful policies.
fn arms() -> Vec<(&'static str, Option<PolicySpec>)> {
    vec![
        ("fixed", None),
        ("adaptive", Some(PolicySpec::adaptive_default())),
        ("variance", Some(PolicySpec::variance_default())),
    ]
}

/// Run the simulator with a fresh full-granularity sink; return (log, report debug).
fn sim_run(cfg: &TrainConfig) -> (String, String) {
    let mut cfg = cfg.clone();
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    let report = algorithms::run(&cfg);
    (cfg.trace.take_log().encode(), format!("{report:?}"))
}

/// Run the threaded cluster with a fresh full-granularity sink; return (log, reports debug).
fn threaded_run(cfg: &TrainConfig) -> (String, String) {
    let mut cfg = cfg.clone();
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    let reports = run_threaded_selsync(&cfg);
    (cfg.trace.take_log().encode(), format!("{reports:?}"))
}

/// Decode both logs and panic with the trace-diff explanation when they differ.
fn assert_logs_equal(left: &str, right: &str, left_label: &str, right_label: &str, ctx: &str) {
    if left == right {
        return;
    }
    let a = EventLog::decode(left).expect("left log decodes");
    let b = EventLog::decode(right).expect("right log decodes");
    match first_divergence(&a, &b) {
        Some(div) => panic!(
            "{ctx}: event logs diverged\n{}",
            explain(&div, left_label, right_label)
        ),
        None => panic!("{ctx}: logs differ as text but not as events — codec drift?"),
    }
}

/// A unique, self-cleaning checkpoint directory for one test case.
struct CkptDir(std::path::PathBuf);

impl CkptDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "selsync-ps-fault-parity-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CkptDir(dir)
    }

    fn spec(&self, every: usize, halt_after: Option<usize>) -> CheckpointSpec {
        CheckpointSpec {
            every,
            dir: self.0.to_str().expect("utf8 temp path").to_string(),
            halt_after,
            keep: None,
        }
    }
}

impl Drop for CkptDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn ps_outage_trace_is_byte_identical_across_backends_and_thread_counts() {
    let scenario = scaled();
    assert!(
        scenario
            .ps_faults
            .as_ref()
            .is_some_and(|s| !s.windows.is_empty()),
        "the scaled scenario must keep its outage windows"
    );
    for (arm, policy) in arms() {
        let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
        cfg.delta_policy = policy;
        let label = format!("ps-brownout/{arm}");
        let (sim_ref, thr_ref) = par::with_threads(1, || (sim_run(&cfg).0, threaded_run(&cfg).0));
        assert!(
            sim_ref.contains("degraded_round") && sim_ref.contains("catchup_sync"),
            "{label}: the outage windows must surface in the log"
        );
        assert_logs_equal(&sim_ref, &thr_ref, "simulator", "threaded", &label);
        for threads in [2usize, 4] {
            let (sim, thr) = par::with_threads(threads, || (sim_run(&cfg).0, threaded_run(&cfg).0));
            assert_eq!(sim, sim_ref, "{label}: simulator log at {threads} threads");
            assert_eq!(thr, thr_ref, "{label}: threaded log at {threads} threads");
        }
    }
}

#[test]
fn outage_free_ps_fault_schedule_equals_the_baseline_in_both_backends() {
    let mut scenario = scaled();
    scenario.ps_faults = None;
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
    cfg.delta_policy = Some(PolicySpec::adaptive_default());
    let mut reliable_cfg = cfg.clone();
    reliable_cfg.ps_faults = Some(PsFaultSpec::reliable(scenario.seed));

    let (base_log, base_report) = sim_run(&cfg);
    let (rel_log, rel_report) = sim_run(&reliable_cfg);
    assert_logs_equal(&base_log, &rel_log, "no-block", "reliable-block", "sim");
    assert_eq!(base_report, rel_report, "sim report must be unchanged");

    let (base_log, base_report) = threaded_run(&cfg);
    let (rel_log, rel_report) = threaded_run(&reliable_cfg);
    assert_logs_equal(
        &base_log,
        &rel_log,
        "no-block",
        "reliable-block",
        "threaded",
    );
    assert_eq!(
        base_report, rel_report,
        "threaded reports must be unchanged"
    );
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_run_in_both_backends() {
    let scenario = scaled();
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
    cfg.delta_policy = Some(PolicySpec::adaptive_default());
    // Halt inside the first outage window ((10,4) after rescale): the checkpoint
    // must capture mid-degradation state, the hardest case for the recovery image.
    let halt = 12usize;

    let (full_log, full_report) = sim_run(&cfg);
    let dir = CkptDir::new("sim");
    let mut halted = cfg.clone();
    halted.checkpoint = Some(dir.spec(6, Some(halt)));
    sim_run(&halted);
    let ckpt = Checkpoint::read_file(dir.0.join(format!("ckpt-{halt}"))).expect("sim image");
    assert_eq!(ckpt.round, halt);
    let mut resumed_cfg = halted.clone();
    resumed_cfg.trace = TraceSink::capture(TraceGranularity::Full);
    let report = selsync_repro::core::algorithms::selsync::run_resumed(&resumed_cfg, &ckpt);
    assert_logs_equal(
        &full_log,
        &resumed_cfg.trace.take_log().encode(),
        "uninterrupted",
        "resumed",
        "sim kill/resume",
    );
    assert_eq!(format!("{report:?}"), full_report, "sim report must match");

    let (full_log, full_report) = threaded_run(&cfg);
    let dir = CkptDir::new("threaded");
    let mut halted = cfg.clone();
    halted.checkpoint = Some(dir.spec(6, Some(halt)));
    threaded_run(&halted);
    let ckpt = Checkpoint::read_file(dir.0.join(format!("ckpt-{halt}"))).expect("threaded image");
    assert_eq!(ckpt.round, halt);
    let mut resumed_cfg = halted.clone();
    resumed_cfg.trace = TraceSink::capture(TraceGranularity::Full);
    let reports = run_threaded_selsync_resumed(&resumed_cfg, &ckpt);
    assert_logs_equal(
        &full_log,
        &resumed_cfg.trace.take_log().encode(),
        "uninterrupted",
        "resumed",
        "threaded kill/resume",
    );
    assert_eq!(
        format!("{reports:?}"),
        full_report,
        "threaded reports must match"
    );
}

/// Cross-backend recovery: an image written by one backend resumes on the
/// *other* backend (both write `core::checkpoint`'s one layout) and reproduces the
/// uninterrupted run's event log byte for byte. Report-level pins are
/// schedule-scoped where the backends measure different things: a
/// threaded→sim resume restarts the simulator's cost-model aggregates
/// (sim seconds, bytes) and eval history from zero (docs/RECOVERY.md), so
/// those fields are not compared.
#[test]
fn checkpoints_resume_across_backends_with_identical_traces() {
    let scenario = scaled();
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
    cfg.delta_policy = Some(PolicySpec::adaptive_default());
    // Same mid-outage halt round the single-backend kill/resume test uses.
    let halt = 12usize;

    // sim image → threaded resume: every report field is schedule-derived, so
    // the resumed cluster's full reports match the uninterrupted run's.
    let (thr_full_log, thr_full_report) = threaded_run(&cfg);
    let dir = CkptDir::new("sim-to-threaded");
    let mut halted = cfg.clone();
    halted.checkpoint = Some(dir.spec(6, Some(halt)));
    sim_run(&halted);
    let ckpt = Checkpoint::read_file(dir.0.join(format!("ckpt-{halt}"))).expect("sim image");
    assert_eq!(ckpt.backend, "sim");
    let mut resumed_cfg = halted.clone();
    resumed_cfg.trace = TraceSink::capture(TraceGranularity::Full);
    let reports = run_threaded_selsync_resumed(&resumed_cfg, &ckpt);
    assert_logs_equal(
        &thr_full_log,
        &resumed_cfg.trace.take_log().encode(),
        "uninterrupted threaded",
        "sim-image resume",
        "sim→threaded",
    );
    assert_eq!(
        format!("{reports:?}"),
        thr_full_report,
        "threaded reports after a sim-image resume must match the uninterrupted run"
    );

    // threaded image → sim resume: the trace and every schedule-level report
    // fact must match; cost aggregates and history are sim-only and excluded.
    let (sim_full_log, _) = sim_run(&cfg);
    let full = {
        let mut c = cfg.clone();
        c.trace = TraceSink::capture(TraceGranularity::Full);
        algorithms::run(&c)
    };
    let dir = CkptDir::new("threaded-to-sim");
    let mut halted = cfg.clone();
    halted.checkpoint = Some(dir.spec(6, Some(halt)));
    threaded_run(&halted);
    let ckpt = Checkpoint::read_file(dir.0.join(format!("ckpt-{halt}"))).expect("threaded image");
    assert_eq!(ckpt.backend, "threaded");
    let mut resumed_cfg = halted.clone();
    resumed_cfg.trace = TraceSink::capture(TraceGranularity::Full);
    let resumed = selsync_repro::core::algorithms::selsync::run_resumed(&resumed_cfg, &ckpt);
    assert_logs_equal(
        &sim_full_log,
        &resumed_cfg.trace.take_log().encode(),
        "uninterrupted sim",
        "threaded-image resume",
        "threaded→sim",
    );
    assert_eq!(resumed.sync_rounds, full.sync_rounds, "sync schedule");
    assert_eq!(resumed.sync_steps, full.sync_steps, "sync steps");
    assert_eq!(resumed.local_steps, full.local_steps, "local steps");
    assert_eq!(
        resumed.final_loss.to_bits(),
        full.final_loss.to_bits(),
        "final loss"
    );
    assert_eq!(
        resumed.final_metric.to_bits(),
        full.final_metric.to_bits(),
        "final metric"
    );
    assert_eq!(
        resumed.max_delta.to_bits(),
        full.max_delta.to_bits(),
        "max Δ(g_i)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill at a *random* checkpointed round — inside an outage window, at its
    /// edges, or in steady state — and resume: trace and report must equal the
    /// uninterrupted run's byte for byte.
    #[test]
    fn kill_at_any_checkpointed_round_resumes_byte_identically(
        halt in 0usize..29,
        adaptive in 0u8..2,
    ) {
        let scenario = scaled();
        let mut cfg = scenario.train_config(AlgorithmSpec::selsync(scenario.delta));
        cfg.delta_policy = (adaptive == 1).then(PolicySpec::adaptive_default);
        let (full_log, full_report) = sim_run(&cfg);

        let dir = CkptDir::new(&format!("prop-{halt}-{adaptive}"));
        let mut halted = cfg.clone();
        halted.checkpoint = Some(dir.spec(7, Some(halt)));
        sim_run(&halted);
        let ckpt = Checkpoint::read_file(dir.0.join(format!("ckpt-{halt}")))
            .expect("halt round writes an image");
        let mut resumed_cfg = halted.clone();
        resumed_cfg.trace = TraceSink::capture(TraceGranularity::Full);
        let report = selsync_repro::core::algorithms::selsync::run_resumed(&resumed_cfg, &ckpt);
        let resumed_log = resumed_cfg.trace.take_log().encode();
        prop_assert_eq!(&resumed_log, &full_log, "trace must match at halt {}", halt);
        prop_assert_eq!(format!("{report:?}"), full_report, "report must match at halt {}", halt);
    }
}
