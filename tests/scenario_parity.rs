//! Threaded-driver scenario parity: the thread-per-worker SelSync driver over the
//! *real* parameter server and collectives must produce the same synchronization
//! schedule (the rounds where sync fired) as the deterministic simulator, under the
//! same scenario fault schedule and seed.
//!
//! This holds because the threaded driver mirrors the simulator's training semantics
//! exactly — same datasets, same per-worker shuffled traversals, same optimizer and
//! learning-rate schedule, same tracker configuration, same dropout-stream positions —
//! and because the elastic PS round combines contributions in worker-id order, making
//! the synchronized averages bit-identical to the simulator's. Since the
//! cluster-coherent signaling PR the contract covers *every* policy kind and *faulty*
//! schedules too:
//!
//! * adaptive δ policies: the threaded driver runs one shared policy fed the same
//!   worker-order cluster aggregates (loss mean, `Δ(g)` max, via the one signal
//!   rendezvous and the simulator's own fold), so the stateful policy's decisions
//!   coincide;
//! * crash/rejoin schedules: a rejoining thread pulls the last *scheduled* global
//!   from the PS snapshot ring — exactly the simulator's rejoin pull — however far
//!   the live workers have raced ahead.
//!
//! Under a fault schedule a worker only sees the rounds it was present at, so the
//! per-worker contract is: `worker.sync_rounds` equals the simulator's
//! `RunReport::sync_rounds` restricted to that worker's present rounds.

use selsync_repro::core::algorithms;
use selsync_repro::core::config::{AlgorithmSpec, TrainConfig};
use selsync_repro::core::policy::PolicySpec;
use selsync_repro::core::report::EvalPoint;
use selsync_repro::core::threaded::run_threaded_selsync;
use selsync_repro::scenario::{builtin, sweep, Scenario};
use selsync_repro::tensor::par;
use selsync_repro::tracelog::{diff_report, TraceGranularity, TraceSink};

/// A scaled-down copy of a built-in scenario (fast enough for the default suite),
/// with every fault window — crash windows included — rescaled into the shrunk
/// iteration range by the shared [`sweep::rescale_fault_windows`] helper.
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

/// Assert the full parity contract: every threaded worker's sync schedule equals the
/// simulator's restricted to the rounds that worker was present at (on a crash-free
/// schedule that is the simulator's schedule verbatim).
fn assert_parity(cfg: &TrainConfig, label: &str) {
    let sim = algorithms::run(cfg);
    let threaded = run_threaded_selsync(cfg);
    assert_eq!(threaded.len(), cfg.workers);
    for worker in &threaded {
        let expected: Vec<usize> = sim
            .sync_rounds
            .iter()
            .copied()
            .filter(|&round| cfg.conditions.is_present(worker.worker, round))
            .collect();
        if worker.sync_rounds != expected || worker.sync_steps as usize != expected.len() {
            // Self-diagnosing failure: re-run both backends with event-log capture
            // and let the trace-diff engine pin the first divergent round and field.
            panic!(
                "{label}: worker {} sync schedule diverged from the simulator's \
                 (sim synced {} of {} rounds)\n{}",
                worker.worker,
                sim.sync_steps,
                cfg.iterations,
                trace_divergence(cfg)
            );
        }
    }
}

/// Whether `worker` is absent at `cfg`'s last round. Such a worker finishes early, and
/// its final pull waits for the others' remaining syncs
/// (`ThreadedWorkerReport::distance_to_global`).
fn ends_early(cfg: &TrainConfig, worker: usize) -> bool {
    !cfg.effective_conditions()
        .is_present(worker, cfg.iterations - 1)
}

/// Re-run both backends with full event-log capture and render the first divergent
/// round with its field-level explanation (`docs/EVENT_LOG.md`).
fn trace_divergence(cfg: &TrainConfig) -> String {
    let capture = |threaded: bool| {
        let mut cfg = cfg.clone();
        cfg.trace = TraceSink::capture(TraceGranularity::Full);
        if threaded {
            run_threaded_selsync(&cfg);
        } else {
            algorithms::run(&cfg);
        }
        cfg.trace.take_log()
    };
    let (sim_log, threaded_log) = (capture(false), capture(true));
    diff_report(&sim_log, &threaded_log, "simulator", "threaded").unwrap_or_else(|| {
        "event logs agree — the divergence is outside the traced schedule".into()
    })
}

/// δ chosen so the scaled scenarios produce a *mixed* schedule (some rounds sync,
/// some stay local) — the regime where parity is non-trivial. Pinned by the
/// assertions inside the tests.
const MIXED_DELTA: f32 = 0.055;

#[test]
fn steady_scenario_sync_schedule_matches_the_simulator() {
    let scenario = scaled("steady");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    let sim = algorithms::run(&cfg);
    assert!(
        sim.sync_steps > 0 && sim.local_steps > 0,
        "δ={MIXED_DELTA} must give a mixed schedule for the parity to be meaningful \
         (got {} sync / {} local)",
        sim.sync_steps,
        sim.local_steps
    );
    assert_parity(&cfg, "steady");
}

#[test]
fn transient_straggler_scenario_sync_schedule_matches_the_simulator() {
    // The slowdown affects simulated timing only, never values — the threaded driver
    // (which has no notion of simulated time) must still reproduce the schedule.
    let scenario = scaled("transient-straggler");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    assert_parity(&cfg, "transient-straggler");
}

#[test]
fn degraded_network_scenario_sync_schedule_matches_the_simulator() {
    let scenario = scaled("degraded-network");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    assert_parity(&cfg, "degraded-network");
}

#[test]
fn crash_rejoin_scenario_sync_schedule_matches_the_simulator() {
    // The rejoining thread reads the last *scheduled* global (the simulator's
    // semantics), so the parity contract extends into and beyond the crash windows.
    let scenario = scaled("crash-rejoin");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    assert!(cfg.snapshot_depth().is_some());
    let sim = algorithms::run(&cfg);
    assert!(
        sim.sync_steps > 0 && sim.local_steps > 0,
        "mixed schedule required (got {} sync / {} local)",
        sim.sync_steps,
        sim.local_steps
    );
    assert_parity(&cfg, "crash-rejoin");
}

#[test]
fn elastic_churn_scenario_sync_schedule_matches_the_simulator() {
    let scenario = scaled("elastic-churn");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    assert_parity(&cfg, "elastic-churn");
}

#[test]
fn scheduled_policy_sync_schedule_matches_the_simulator() {
    // A scheduled δ policy is a pure function of the iteration, so every threaded
    // worker agrees with the simulator's cluster-level policy.
    let scenario = scaled("steady");
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    cfg.delta_policy = Some(PolicySpec::Schedule {
        starts: vec![0, 8, 20],
        deltas: vec![0.0, 1e9, MIXED_DELTA],
    });
    let sim = algorithms::run(&cfg);
    // The schedule's stages are visible in the sync schedule: the first 8 rounds all
    // sync (δ=0), rounds 8..20 never do (δ huge).
    assert!(
        sim.sync_rounds
            .iter()
            .take(8)
            .eq([0, 1, 2, 3, 4, 5, 6, 7].iter()),
        "first stage must synchronize every round: {:?}",
        sim.sync_rounds
    );
    assert!(sim.sync_rounds.iter().all(|&r| !(8..20).contains(&r)));
    assert_parity(&cfg, "steady/scheduled-policy");
}

#[test]
fn scheduled_policy_on_crash_and_churn_schedules_matches_the_simulator() {
    for name in ["crash-rejoin", "elastic-churn"] {
        let scenario = scaled(name);
        let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
        cfg.delta_policy = Some(PolicySpec::Schedule {
            starts: vec![0, 10],
            deltas: vec![0.0, MIXED_DELTA],
        });
        assert_parity(&cfg, &format!("{name}/scheduled-policy"));
    }
}

#[test]
fn adaptive_policy_sync_schedule_matches_the_simulator() {
    // The stateful adaptive policy is the case per-worker replicas could never get
    // right: its decisions depend on the *cluster* signal stream. The threaded
    // driver's shared policy board observes the same worker-order aggregates the
    // simulator merges, so the schedules coincide — including the settle switch.
    let scenario = scaled("steady");
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    cfg.delta_policy = Some(PolicySpec::adaptive_default());
    let sim = algorithms::run(&cfg);
    assert!(
        sim.local_steps > 0,
        "the adaptive arm must relax within the run: {:?}",
        sim.sync_rounds
    );
    assert_parity(&cfg, "steady/adaptive-policy");
}

#[test]
fn adaptive_policy_on_crash_and_churn_schedules_matches_the_simulator() {
    // The widened contract's centrepiece: a stateful policy on faulty schedules.
    // Rejoins restart per-worker trackers (producing the Δ(g) spikes the policy
    // reacts to) while the shared policy itself — like the simulator's — survives.
    for name in ["crash-rejoin", "elastic-churn"] {
        let scenario = scaled(name);
        let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
        cfg.delta_policy = Some(PolicySpec::adaptive_default());
        assert!(cfg.snapshot_depth().is_some(), "{name}");
        assert_parity(&cfg, &format!("{name}/adaptive-policy"));
    }
}

#[test]
fn crash_rejoin_parity_reports_are_byte_identical_across_thread_counts() {
    // The acceptance contract: on a faulty schedule with the adaptive arm, both
    // backends' reports are byte-identical for SELSYNC_THREADS ∈ {1, 2, 4}, and the
    // threaded schedule equals the simulator's at every thread count.
    let scenario = scaled("crash-rejoin");
    let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
    cfg.delta_policy = Some(PolicySpec::adaptive_default());

    let threaded = || format!("{:?}", run_threaded_selsync(&cfg));
    let (sim_ref, threaded_ref) =
        par::with_threads(1, || (format!("{:?}", algorithms::run(&cfg)), threaded()));
    for threads in [2usize, 4] {
        let (sim, threaded) = par::with_threads(threads, || {
            (format!("{:?}", algorithms::run(&cfg)), threaded())
        });
        assert_eq!(sim, sim_ref, "simulator report at {threads} threads");
        assert_eq!(
            threaded, threaded_ref,
            "threaded reports at {threads} threads"
        );
    }
    assert_parity(&cfg, "crash-rejoin/threads");
}

#[test]
fn threaded_final_state_matches_the_simulator_after_a_final_sync() {
    // Under δ=0 the last round synchronizes, so the threaded workers' final parameters
    // (= the PS global) must equal the simulator's synchronized global average —
    // parity extends beyond the schedule to the parameter stream itself.
    let scenario = scaled("steady");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(0.0));
    let sim = algorithms::run(&cfg);
    assert_eq!(sim.sync_steps as usize, cfg.iterations);
    let threaded = run_threaded_selsync(&cfg);
    for worker in &threaded {
        assert_eq!(
            worker.distance_to_global, 0.0,
            "worker {} must end exactly on the PS state",
            worker.worker
        );
        assert_eq!(worker.sync_rounds, sim.sync_rounds);
    }
}

#[test]
fn crash_rejoin_final_state_matches_the_simulator_after_a_final_sync() {
    // Same parameter-stream check across a crash window: δ=0 keeps every round
    // synchronized, the rejoiner pulls the scheduled global, and every worker present
    // at the last round ends on the PS state. An early finisher's final pull waits for
    // the run's last round, so it reads the global the rounds it sat out moved — a
    // finite, non-zero distance that every run repeats.
    let scenario = scaled("crash-rejoin");
    let cfg = scenario.train_config(AlgorithmSpec::selsync(0.0));
    let threaded = run_threaded_selsync(&cfg);
    let again = run_threaded_selsync(&cfg);
    let mut early = 0;
    for (worker, repeat) in threaded.iter().zip(&again) {
        if ends_early(&cfg, worker.worker) {
            early += 1;
            assert!(
                worker.distance_to_global.is_finite() && worker.distance_to_global > 0.0,
                "early finisher {} reads {}",
                worker.worker,
                worker.distance_to_global
            );
            assert_eq!(
                worker.distance_to_global.to_bits(),
                repeat.distance_to_global.to_bits(),
                "early finisher {}'s distance differs between two runs",
                worker.worker
            );
        } else {
            assert_eq!(
                worker.distance_to_global, 0.0,
                "worker {} must end exactly on the PS state",
                worker.worker
            );
        }
    }
    assert!(early > 0, "crash-rejoin no longer has an early finisher");
    assert_parity(&cfg, "crash-rejoin/bsp");
}

#[test]
#[ignore = "slow: every built-in x {fixed, scheduled, adaptive} x {1,2,4} threads; run with --ignored"]
fn all_faulty_builtins_hold_parity_for_every_arm_across_thread_counts() {
    for name in [
        "steady",
        "transient-straggler",
        "degraded-network",
        "crash-rejoin",
        "heterogeneous-fleet",
        "elastic-churn",
    ] {
        let scenario = scaled(name);
        let arms: Vec<(&str, Option<PolicySpec>)> = vec![
            ("fixed", None),
            (
                "scheduled",
                Some(PolicySpec::Schedule {
                    starts: vec![0, 10],
                    deltas: vec![0.0, MIXED_DELTA],
                }),
            ),
            ("adaptive", Some(PolicySpec::adaptive_default())),
        ];
        for (arm, policy) in arms {
            let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
            cfg.delta_policy = policy;
            let label = format!("{name}/{arm}");
            let reference = par::with_threads(1, || {
                assert_parity(&cfg, &label);
                format!("{:?}", run_threaded_selsync(&cfg))
            });
            for threads in [2usize, 4] {
                let got =
                    par::with_threads(threads, || format!("{:?}", run_threaded_selsync(&cfg)));
                assert_eq!(got, reference, "{label} at {threads} threads");
            }
        }
    }
}

#[test]
fn builtin_runs_are_pinned_across_commits() {
    // Every built-in under the fixed and adaptive arms: one digest over the
    // simulator's report (cost-model seconds and bytes, sync schedule, eval
    // history), its full event log and the threaded run's worker-report lines
    // (final loss and distance to the global, as bit patterns). The last rows
    // run the simulator-only rules (BSP's gradient averaging, FedAvg's client
    // sampling, SelSync GA) on the two fault domains that price retries and PS
    // outages. The digests were recorded before the simulator and the cluster
    // workers shared one round loop: a loop that moves one byte fails here.
    use selsync_repro::comm::wire::checksum;
    use selsync_repro::core::process::encode_worker_report;
    use selsync_repro::scenario::BUILTIN_NAMES;

    let digest = |cfg: &mut TrainConfig, threaded: bool| {
        cfg.trace = TraceSink::capture(TraceGranularity::Full);
        let mut text = format!("{:?}\n", algorithms::run(cfg));
        text += &cfg.trace.take_log().encode();
        if threaded {
            cfg.trace = TraceSink::disabled();
            for report in run_threaded_selsync(cfg) {
                text += &encode_worker_report(&report);
                text.push('\n');
            }
        }
        checksum(text.as_bytes())
    };
    let mut got = Vec::new();
    for name in BUILTIN_NAMES {
        let scenario = scaled(name);
        for (arm, policy) in [
            ("fixed", None),
            ("adaptive", Some(PolicySpec::adaptive_default())),
        ] {
            let mut cfg = scenario.train_config(AlgorithmSpec::selsync(MIXED_DELTA));
            cfg.delta_policy = policy;
            got.push((format!("{name}/{arm}"), digest(&mut cfg, true)));
        }
    }
    for name in ["flaky-links", "ps-brownout"] {
        let scenario = scaled(name);
        for algo in [
            AlgorithmSpec::Bsp,
            AlgorithmSpec::FedAvg { c: 0.5, e: 0.25 },
            AlgorithmSpec::selsync_ga(MIXED_DELTA),
        ] {
            let mut cfg = scenario.train_config(algo);
            got.push((format!("{name}/{}", algo.name()), digest(&mut cfg, false)));
        }
    }
    // BSP and FedAvg read the same on both scenarios: neither meets link weather
    // nor PS outages (docs/SCENARIOS.md, "Semantics").
    let want = [
        ("steady/fixed", 0xE0E0_21F2_4E49_ECA6),
        ("steady/adaptive", 0xD113_294B_6A1E_DAA8),
        ("transient-straggler/fixed", 0x1C25_3729_4326_4C4C),
        ("transient-straggler/adaptive", 0x5053_BF12_E6C9_9DC6),
        ("degraded-network/fixed", 0x8E4C_9210_9E68_736C),
        ("degraded-network/adaptive", 0x31F8_795A_BC4D_F0CA),
        ("crash-rejoin/fixed", 0x1A27_0820_A1AF_09A0),
        ("crash-rejoin/adaptive", 0x9833_4205_C442_CE65),
        ("heterogeneous-fleet/fixed", 0x2E9D_42BB_29B9_7F26),
        ("heterogeneous-fleet/adaptive", 0xB2CE_6CEF_D9AB_D256),
        ("elastic-churn/fixed", 0x6166_C34A_1202_C1F4),
        ("elastic-churn/adaptive", 0x8834_40FC_49FE_B4E3),
        ("flaky-links/fixed", 0x1ADF_06BF_CC25_A41B),
        ("flaky-links/adaptive", 0x73CF_44BA_B315_FE2F),
        ("ps-brownout/fixed", 0x04E3_0036_86AA_D4E3),
        ("ps-brownout/adaptive", 0x4B30_E9A7_7E0B_6C0E),
        ("flaky-links/BSP", 0xA315_ECCE_8C31_E7C8),
        ("flaky-links/FedAvg(0.5,0.25)", 0xD45D_D1F7_9C26_EDF4),
        ("flaky-links/SelSync(d=0.055,GA)", 0x3782_FFAD_3EA0_6E88),
        ("ps-brownout/BSP", 0xA315_ECCE_8C31_E7C8),
        ("ps-brownout/FedAvg(0.5,0.25)", 0xD45D_D1F7_9C26_EDF4),
        ("ps-brownout/SelSync(d=0.055,GA)", 0x8EE6_B0DD_3AEF_79DD),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    let rendered: Vec<String> = got.iter().map(|(l, d)| format!("{l}: {d:#018X}")).collect();
    assert_eq!(got, want, "digests moved:\n{}", rendered.join("\n"));
}

#[test]
fn priced_threaded_schedules_cost_what_the_simulator_reports() {
    // The cost of a run is a function of its configuration and schedule
    // (`report::price`), so the threaded cluster's merged schedule prices to the
    // simulator's cost fields bit for bit: every total and every eval point's
    // simulated time. BSP is left out: the cluster runs it as SelSync at δ = 0,
    // which meets the status exchange the simulator's BSP never pays.
    use selsync_repro::core::process::ensure_supported;
    use selsync_repro::core::report::{price, Cost};
    use selsync_repro::scenario::BUILTIN_NAMES;

    let mut admitted = 0;
    for name in BUILTIN_NAMES {
        let cfg = scaled(name).train_config(AlgorithmSpec::selsync(MIXED_DELTA));
        if ensure_supported(&cfg).is_err() {
            continue;
        }
        admitted += 1;
        let sim = algorithms::run(&cfg);
        let mut merged: Vec<usize> = run_threaded_selsync(&cfg)
            .into_iter()
            .flat_map(|w| w.sync_rounds)
            .collect();
        merged.sort_unstable();
        merged.dedup();
        assert_eq!(merged, sim.sync_rounds, "{name}");
        let mut history = sim.history.clone();
        history.iter_mut().for_each(|p| p.sim_time_s = f64::NAN);
        let rounds = 0..cfg.iterations;
        let cost = price(&cfg, rounds, &merged, &[], Cost::default(), &mut history);
        let times = |h: &[EvalPoint]| h.iter().map(|p| p.sim_time_s.to_bits()).collect::<Vec<_>>();
        let total = cost.compute_time_s + cost.comm_time_s;
        assert_eq!(total.to_bits(), sim.sim_time_s.to_bits(), "{name}");
        let compute = cost.compute_time_s.to_bits();
        assert_eq!(compute, sim.compute_time_s.to_bits(), "{name}");
        assert_eq!(
            cost.comm_time_s.to_bits(),
            sim.comm_time_s.to_bits(),
            "{name}"
        );
        assert_eq!(cost.bytes_communicated, sim.bytes_communicated, "{name}");
        assert_eq!(times(&history), times(&sim.history), "{name}");
    }
    assert_eq!(
        admitted,
        BUILTIN_NAMES.len(),
        "the cluster admits every built-in"
    );
}
