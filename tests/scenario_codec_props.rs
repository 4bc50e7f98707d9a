//! Property tests for the scenario TOML codec: `parse(serialize(s)) == s` and the
//! canonical serialization is a fixed point, for randomly generated scenarios —
//! including the `[sweep]`, `[[policy]]`, `[trace]`, `[comm_faults]`, `[ps_faults]`
//! and `[checkpoint]` blocks, the transports and non-IID shards.

use proptest::prelude::*;
use selsync_repro::comm::faults::{CommFaultSpec, PsFaultSpec};
use selsync_repro::core::config::CheckpointSpec;
use selsync_repro::core::policy::PolicySpec;
use selsync_repro::scenario::{FaultSpec, Scenario, SweepSpec, TraceSpec, TransportSpec};
use selsync_repro::tracelog::TraceGranularity;

/// Build a valid random scenario from primitive draws (the offline proptest shim has
/// no combinators, so composition happens here, deterministically).
#[allow(clippy::too_many_arguments)]
fn build_scenario(
    workers: usize,
    iterations: usize,
    delta: f32,
    speeds: &[f64],
    fault_kinds: &[u8],
    fault_pos: &[usize],
    fault_len: &[usize],
    fault_factor: &[f64],
    sweep_deltas: Vec<f32>,
    sweep_seeds: Vec<u64>,
    policy_kind: u8,
    pa: f32,
    pb: f32,
    factor: f32,
    warmup: usize,
    settle: f32,
    patience: usize,
    spike: f32,
    stage_gaps: &[usize],
    trace_kind: u8,
) -> Scenario {
    let mut s = Scenario::base("prop-scenario", workers, iterations);
    s.description = "randomly generated by the codec property test".into();
    s.delta = delta;
    if speeds.len() >= workers {
        s.heterogeneity = speeds[..workers].to_vec();
    }
    for (i, &kind) in fault_kinds.iter().enumerate() {
        let worker = fault_pos[i] % workers;
        // Crashes never name worker 0, so the cluster always has a live worker no
        // matter how the random crash windows overlap (a validation requirement).
        let crash_worker = 1 + fault_pos[i] % (workers - 1);
        let start = fault_pos[i] % iterations;
        let duration = fault_len[i];
        let factor = fault_factor[i];
        s.faults.push(match kind % 5 {
            0 => FaultSpec::Slowdown {
                worker,
                start,
                duration,
                factor,
            },
            1 => FaultSpec::Crash {
                worker: crash_worker,
                start,
                rejoin: Some(start + duration),
            },
            2 => FaultSpec::Crash {
                worker: crash_worker,
                start,
                rejoin: None,
            },
            3 => FaultSpec::Bandwidth {
                start,
                duration,
                factor,
            },
            _ => FaultSpec::Latency {
                start,
                duration,
                extra_ms: factor,
            },
        });
    }
    let policy = match policy_kind % 3 {
        0 => PolicySpec::Fixed { delta: pa },
        1 => {
            let mut starts = vec![0usize];
            for &gap in stage_gaps {
                starts.push(starts.last().unwrap() + gap);
            }
            let deltas = starts
                .iter()
                .map(|&st| pa + st as f32 * 0.001)
                .collect::<Vec<_>>();
            PolicySpec::Schedule { starts, deltas }
        }
        _ => PolicySpec::Adaptive {
            delta_explore: pa,
            delta_exploit: pb,
            factor,
            warmup,
            settle,
            patience,
            spike,
        },
    };
    s.sweep = Some(SweepSpec {
        deltas: sweep_deltas,
        seeds: sweep_seeds,
        policies: vec![policy],
    });
    // The `[trace]` block serializes only non-default keys, so cover the default
    // (omitted entirely), each single-key form, and the fully specified form.
    s.trace = match trace_kind % 4 {
        0 => TraceSpec::default(),
        1 => TraceSpec {
            enabled: true,
            path: None,
            granularity: TraceGranularity::Full,
        },
        2 => TraceSpec {
            enabled: false,
            path: Some("traces/prop.trace.jsonl".into()),
            granularity: TraceGranularity::Rounds,
        },
        _ => TraceSpec {
            enabled: true,
            path: Some("prop.trace.jsonl".into()),
            granularity: TraceGranularity::Rounds,
        },
    };
    s
}

/// Build a valid random scenario over the blocks [`build_scenario`] leaves at their
/// defaults: link weather (`delay_rounds` zero and positive), PS outages, checkpoints
/// (with and without `keep` and `halt_after`), the memory / UDS / TCP transports,
/// non-IID shards and the variance policy.
#[allow(clippy::too_many_arguments)]
fn build_fault_blocks(
    workers: usize,
    iterations: usize,
    weather_kind: u8,
    weather_seed: u64,
    rates: &[f64],
    delay_rounds: u64,
    retry_budget: u32,
    timeout_s: f64,
    outage_pos: &[usize],
    outage_len: &[usize],
    flaky: f64,
    checkpoint: &[usize],
    transport_kind: u8,
    port: u16,
    labels: usize,
    variance: &[f32],
    warmup: usize,
    patience: usize,
) -> Scenario {
    let mut s = Scenario::base("prop-fault-blocks", workers, iterations);
    s.comm_faults = match weather_kind % 3 {
        0 => None,
        kind => Some(CommFaultSpec {
            seed: weather_seed,
            drop: rates[0],
            duplicate: rates[1],
            corrupt: rates[2],
            delay: rates[3],
            delay_rounds: if kind == 1 { 0 } else { delay_rounds },
            retry_budget,
            timeout_s,
        }),
    };
    // Windows come as parallel arrays on disk, so an empty list, one window and
    // several windows are all drawn.
    s.ps_faults = (outage_pos[0] % 2 == 1).then(|| PsFaultSpec {
        seed: weather_seed / 3,
        windows: outage_pos[1..]
            .iter()
            .zip(outage_len)
            .map(|(&p, &l)| (p % iterations, l))
            .collect(),
        flaky,
    });
    // checkpoint = [present, every, keep, halt_after]; a zero draws `None`.
    s.checkpoint = (checkpoint[0] % 2 == 1).then(|| CheckpointSpec {
        every: checkpoint[1],
        dir: format!("target/ckpt/prop-{}", checkpoint[1]),
        keep: (checkpoint[2] > 0).then_some(checkpoint[2]),
        halt_after: (checkpoint[3] > 0).then_some(checkpoint[3] % iterations),
    });
    s.transport = match transport_kind % 3 {
        0 => TransportSpec::Memory,
        1 => TransportSpec::Socket { addr: None },
        _ => TransportSpec::Socket {
            addr: Some(format!("127.0.0.1:{port}")),
        },
    };
    // Five labels or more cover ResNetLike's ten classes on two or more workers.
    s.non_iid_labels_per_worker = (labels >= 5).then_some(labels);
    s.sweep = Some(SweepSpec {
        deltas: Vec::new(),
        seeds: vec![weather_seed],
        policies: vec![PolicySpec::Variance {
            delta_explore: variance[0],
            delta_exploit: variance[1],
            factor: variance[2],
            warmup,
            settle: variance[3],
            patience,
            var_ratio: 1.0 + variance[4] * 8.0,
        }],
    });
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scenario_toml_round_trip_including_sweep_and_policy_blocks(
        workers in 2usize..8,
        iterations in 20usize..300,
        delta in 0.0f32..1.0,
        speeds in proptest::collection::vec(0.5f64..2.0, 0..8),
        fault_kinds in proptest::collection::vec(0u8..5, 0..6),
        fault_pos in proptest::collection::vec(0usize..300, 6),
        fault_len in proptest::collection::vec(1usize..100, 6),
        fault_factor in proptest::collection::vec(0.1f64..4.0, 6),
        sweep_deltas in proptest::collection::vec(0.0f32..1.0, 0..4),
        sweep_seeds in proptest::collection::vec(1u64..1_000_000, 1..4),
        policy_kind in 0u8..3,
        pa in 0.0f32..1.0,
        pb in 0.0f32..1.0,
        factor in 0.05f32..1.0,
        warmup in 0usize..20,
        settle in 0.001f32..0.2,
        patience in 1usize..10,
        spike in 1.1f32..5.0,
        stage_gaps in proptest::collection::vec(1usize..100, 0..4),
        trace_kind in 0u8..4,
    ) {
        let scenario = build_scenario(
            workers, iterations, delta, &speeds, &fault_kinds, &fault_pos, &fault_len,
            &fault_factor, sweep_deltas, sweep_seeds, policy_kind, pa, pb, factor,
            warmup, settle, patience, spike, &stage_gaps, trace_kind,
        );
        prop_assert!(scenario.validate().is_ok(), "generated scenario must be valid");

        let text = scenario.to_toml_string();
        let parsed = Scenario::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n---\n{text}"));
        prop_assert_eq!(&scenario, &parsed);
        // Canonical serialization is a fixed point.
        prop_assert_eq!(text, parsed.to_toml_string());
    }

    #[test]
    fn scenario_toml_round_trip_including_fault_checkpoint_and_transport_blocks(
        workers in 2usize..8,
        iterations in 20usize..300,
        weather_kind in 0u8..3,
        weather_seed in 0u64..(i64::MAX as u64),
        rates in proptest::collection::vec(0.0f64..0.03, 4),
        delay_rounds in 1u64..100,
        retry_budget in 3u32..9,
        timeout_s in 0.001f64..0.02,
        outage_pos in proptest::collection::vec(0usize..300, 1..4),
        outage_len in proptest::collection::vec(1usize..40, 3),
        flaky in 0.0f64..0.1,
        checkpoint in proptest::collection::vec(0usize..50, 4),
        transport_kind in 0u8..3,
        port in 1024u16..65535,
        labels in 0usize..12,
        variance in proptest::collection::vec(0.001f32..1.0, 5),
        warmup in 0usize..20,
        patience in 1usize..10,
    ) {
        let mut checkpoint = checkpoint;
        checkpoint[1] = checkpoint[1].max(1);
        let scenario = build_fault_blocks(
            workers, iterations, weather_kind, weather_seed, &rates, delay_rounds,
            retry_budget, timeout_s, &outage_pos, &outage_len, flaky, &checkpoint,
            transport_kind, port, labels, &variance, warmup, patience,
        );
        if let Err(e) = scenario.validate() {
            panic!("generated scenario must be valid: {e}");
        }

        let text = scenario.to_toml_string();
        let parsed = Scenario::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n---\n{text}"));
        prop_assert_eq!(&scenario, &parsed);
        prop_assert_eq!(text, parsed.to_toml_string());
    }
}
