//! Event-log parity: both SelSync backends — the deterministic simulator and the
//! thread-per-worker cluster over the real PS and collectives — must emit the *same*
//! canonical event stream, byte for byte, for the same config.
//!
//! This is the observability layer's determinism contract (see `docs/EVENT_LOG.md`):
//! the encoded log has no timestamps and no backend tag, the sink canonically orders
//! events by `(round, kind, worker)`, and every recorded value is a pure function of
//! the config and schedule — membership and fault edges from the deterministic
//! `ClusterConditions`, round decisions from the worker-order-merged signal stream,
//! rejoin pulls from the round-keyed snapshot ring. So `encode()` output must be
//! identical across backends *and* across `SELSYNC_THREADS` settings, on crash/rejoin
//! and elastic-churn schedules, for fixed, scheduled and adaptive δ policies alike.

use selsync_repro::core::algorithms;
use selsync_repro::core::config::{AlgorithmSpec, TrainConfig};
use selsync_repro::core::policy::PolicySpec;
use selsync_repro::core::threaded::run_threaded_selsync;
use selsync_repro::scenario::{builtin, sweep, Scenario};
use selsync_repro::tensor::par;
use selsync_repro::tracelog::{
    explain, first_divergence, Event, EventLog, TraceGranularity, TraceSink,
};

/// Same scaled-down scenario copies the schedule-parity suite uses.
fn scaled(name: &str) -> Scenario {
    let mut s = builtin(name).expect("built-in scenario");
    sweep::rescale_fault_windows(&mut s, 30);
    s.eval_every = 10;
    s.train_samples = 512;
    s.test_samples = 128;
    s.eval_samples = 128;
    s.batch_size = 8;
    s.sweep = None;
    s
}

/// Mixed-schedule δ shared with the schedule-parity suite.
const MIXED_DELTA: f32 = 0.055;

/// The three policy arms of the acceptance matrix.
fn arms() -> Vec<(&'static str, Option<PolicySpec>)> {
    vec![
        ("fixed", None),
        (
            "scheduled",
            Some(PolicySpec::Schedule {
                starts: vec![0, 10],
                deltas: vec![0.0, MIXED_DELTA],
            }),
        ),
        ("adaptive", Some(PolicySpec::adaptive_default())),
    ]
}

/// Run the simulator with a fresh full-granularity sink and return the encoded log.
fn sim_trace(cfg: &TrainConfig) -> String {
    let mut cfg = cfg.clone();
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    algorithms::run(&cfg);
    cfg.trace.take_log().encode()
}

/// Run the threaded cluster with a fresh full-granularity sink and return the encoded log.
fn threaded_trace(cfg: &TrainConfig) -> String {
    let mut cfg = cfg.clone();
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    run_threaded_selsync(&cfg);
    cfg.trace.take_log().encode()
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

fn trace_matrix(scenario_name: &str) {
    let scenario = scaled(scenario_name);
    for (arm, policy) in arms() {
        let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
        cfg.delta_policy = policy;
        assert!(
            cfg.snapshot_depth().is_some(),
            "{scenario_name}: a rejoin keeps the snapshot ring its pull reads"
        );
        let label = format!("{scenario_name}/{arm}");
        let (sim_ref, thr_ref) = par::with_threads(1, || (sim_trace(&cfg), threaded_trace(&cfg)));
        assert!(
            sim_ref.lines().count() > 1,
            "{label}: the run must log more than a header"
        );
        assert_logs_equal(&sim_ref, &thr_ref, "simulator", "threaded", &label);
        for threads in [2usize, 4] {
            let (sim, thr) = par::with_threads(threads, || (sim_trace(&cfg), threaded_trace(&cfg)));
            assert_eq!(sim, sim_ref, "{label}: simulator log at {threads} threads");
            assert_eq!(thr, thr_ref, "{label}: threaded log at {threads} threads");
        }
    }
}

#[test]
fn crash_rejoin_trace_is_byte_identical_across_backends_and_thread_counts() {
    trace_matrix("crash-rejoin");
}

#[test]
fn elastic_churn_trace_is_byte_identical_across_backends_and_thread_counts() {
    trace_matrix("elastic-churn");
}

/// The committed elastic-churn adaptive trace (recorded with
/// `scenario_replay --record`) must be reproduced byte-for-byte by a live run —
/// the recorded-log regression the replay tool automates.
#[test]
fn committed_elastic_churn_adaptive_trace_replays_clean() {
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/elastic_churn_adaptive.trace.jsonl"
    ))
    .expect("committed trace file");
    let scenario = scaled("elastic-churn");
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    cfg.delta_policy = Some(PolicySpec::adaptive_default());
    let live = sim_trace(&cfg);
    assert_logs_equal(
        &committed,
        &live,
        "committed",
        "live",
        "elastic-churn/adaptive",
    );
}

/// Mutating a single event must be pinned to its round and field by the diff engine.
#[test]
fn single_event_mutation_is_pinned_to_round_and_field() {
    let scenario = scaled("crash-rejoin");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    let mut cfg = cfg;
    cfg.trace = TraceSink::capture(TraceGranularity::Full);
    algorithms::run(&cfg);
    let reference = cfg.trace.take_log();
    let mut mutated = reference.clone();
    let (idx, round) = mutated
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e {
            Event::Round { round, .. } => Some((i, *round)),
            _ => None,
        })
        .expect("the run logs round events");
    if let Event::Round { synced, .. } = &mut mutated.events[idx] {
        *synced = !*synced;
    }
    let div = first_divergence(&reference, &mutated).expect("mutation must be detected");
    assert_eq!(div.round, Some(round));
    assert!(
        div.fields.iter().any(|f| f.field == "synced"),
        "the flipped field must be named: {:?}",
        div.fields
    );
    let text = explain(&div, "reference", "mutated");
    assert!(text.contains(&format!("round {round}")), "{text}");
    assert!(text.contains("`synced`"), "{text}");
}
