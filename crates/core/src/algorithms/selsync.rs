//! SelSync (§III, Alg. 1): δ-based selective synchronization, in the round loop that
//! BSP, FedAvg and local SGD run too, as other sync rules (`policy::SyncRule`).
//!
//! Per iteration, every worker computes its gradient and its relative gradient change
//! `Δ(g_i)`; the cluster exchanges one status bit per worker (all-gather) and
//! synchronizes if **any** bit is set:
//!
//! * **Parameter aggregation** (the SelSync default): each worker first applies its
//!   local update, then parameters are pushed to the PS, averaged, and pulled back
//!   (Alg. 1 lines 9, 14–15).
//! * **Gradient aggregation** (the Fig. 9/10 comparison mode): on a synchronized step
//!   the averaged gradient is applied by every worker to its own (possibly diverged)
//!   replica; on local steps the worker applies its own gradient.
//!
//! Data-injection (non-IID) and the SelDP partitioning are handled by the simulator.
//!
//! The δ threshold itself comes from a [`crate::policy::DeltaPolicy`]: the paper's
//! fixed δ by default, or — when `cfg.delta_policy` is set — a scheduled or adaptive
//! (Sync-Switch-style) policy that is consulted before each round and observes the
//! round's signals afterwards. Policies are deterministic functions of the merged
//! round signals, so the byte-identity guarantee across thread counts is preserved.

use crate::aggregation::{self, AggregationMode};
use crate::checkpoint::Checkpoint;
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::policy::{run_policy_spec, PolicySpec, SyncDecision, SyncPolicy, SyncRule};
use crate::report::RunReport;
use crate::sim::{Simulator, WorkerStep};
use selsync_comm::faults::CommFaultSchedule;
use selsync_comm::ps::PsState;
use selsync_comm::wire::frame_len;

/// The algorithm label a run reports, as a pure function of its config.
/// Shared by the simulator driver and the threaded driver (and the trace headers of
/// both), so every surface names the same run identically.
///
/// Without an explicit policy the paper's algorithm label is kept verbatim (byte
/// compatibility with every pre-policy recorded report); explicit policies name
/// themselves. A `Fixed` policy's label intentionally reproduces the same
/// `SelSync(d=…,…)` shape.
pub fn algorithm_label(cfg: &TrainConfig) -> String {
    let (aggregation_mode, injection) = match cfg.algorithm {
        AlgorithmSpec::SelSync {
            aggregation,
            injection,
            ..
        } => (aggregation, injection),
        _ => return cfg.algorithm.name(),
    };
    let Some(spec) = &cfg.delta_policy else {
        return cfg.algorithm.name();
    };
    let agg = aggregation_mode.short_name();
    // An injected Fixed arm reproduces AlgorithmSpec::name()'s exact shape
    // (`SelSync(α,β,δ,agg)`, no `d=` prefix) so label-keyed comparisons treat
    // semantically identical arms identically.
    let policy_label = match (spec, injection.is_some()) {
        (PolicySpec::Fixed { delta }, true) => format!("{delta}"),
        _ => spec.label(),
    };
    match injection {
        Some(inj) => format!("SelSync({},{},{policy_label},{agg})", inj.alpha, inj.beta),
        None => format!("SelSync({policy_label},{agg})"),
    }
}

/// Run `cfg.algorithm` — SelSync or any other rule-driven algorithm — for
/// `cfg.iterations` iterations. Panics for SSP, which has no sync rule.
pub fn run(cfg: &TrainConfig) -> RunReport {
    run_inner(cfg, None)
}

/// Resume a rule-driven run from a durable checkpoint written by an earlier run — on any
/// backend — of the *same* configuration ([`Checkpoint::check_resumable`]). The
/// restored run continues from `ckpt.round + 1` and produces the byte-identical trace
/// of the uninterrupted run, and from a simulator-written image the byte-identical
/// report too. Panics when the image is not resumable — resuming under a different
/// config is always a bug, never a recoverable condition.
pub fn run_resumed(cfg: &TrainConfig, ckpt: &Checkpoint) -> RunReport {
    run_inner(cfg, Some(ckpt))
}

fn run_inner(cfg: &TrainConfig, resume: Option<&Checkpoint>) -> RunReport {
    let rule = SyncRule::of(cfg);
    let spec = run_policy_spec(cfg);
    let mut policy = spec.build();
    let algo_name = algorithm_label(cfg);
    // Only signal-consuming policies receive cluster round signals in the threaded
    // driver (the exchange is elided otherwise), so only they log signal events.
    let exchange_signals = spec.consumes_round_signals();

    let mut sim = Simulator::new(cfg);
    // Comm-fault machinery: the schedule prices retries, the compiled evictions
    // (already folded into the simulator's membership) drive the evict events, and
    // every presence-derived trace fact must come from the *effective* conditions so
    // fault-driven evictions look exactly like scheduled crashes.
    let fault_schedule = cfg.comm_faults.map(CommFaultSchedule::new);
    // PS availability: a pure function of `(spec, round)`, so both backends see the
    // exact same outage windows. `None` keeps the server perfectly reliable.
    let ps_schedule = cfg.ps_fault_schedule().filter(|_| rule.exchanges_status());
    if let Some(ck) = &cfg.checkpoint {
        ck.validate().expect("invalid checkpoint configuration");
    }
    let evictions = cfg.comm_fault_evictions();
    let conditions = cfg.effective_conditions();
    // The parameter server's durable state, held as a value: the latest synchronized
    // model (rejoining workers pull it), the newest-sync guard and the rejoin
    // snapshot ring — folded exactly as a live server folds them, so the image's
    // `ps` section is the one a cluster backend writes.
    let mut ps = PsState::new(sim.workers[0].params.clone(), cfg.snapshot_depth());
    // Round-to-round buffers: the averaged vector is written once per round and
    // copied into reused per-replica buffers (no per-replica clone fan-out).
    let mut avg = Vec::new();
    let mut steps: Vec<WorkerStep> = Vec::new();

    let start = match resume {
        Some(ckpt) => {
            ckpt.check_resumable(cfg).unwrap_or_else(|e| panic!("{e}"));
            sim.restore_checkpoint(ckpt);
            policy.import_state(&ckpt.board_state());
            ps = ckpt.ps_state();
            assert_eq!(
                ps.global.len(),
                sim.param_dim(),
                "checkpointed global model has the wrong parameter count"
            );
            // The restored trace prefix already contains the run header, so the
            // resumed run skips `emit_header` and appends from `round + 1`.
            ckpt.preload_trace(&cfg.trace);
            ckpt.round + 1
        }
        None => {
            crate::tracing::emit_header(&cfg.trace, cfg, &algo_name, &spec.label());
            0
        }
    };

    for it in start..cfg.iterations {
        let lr = sim.lr_at(it);
        let (present, rejoin_comm, rejoin_bytes) = if rule.has_ps() {
            sim.begin_round(it, &ps.global)
        } else {
            (sim.present_workers(it), 0.0, 0)
        };
        // Evictions fire whether or not the remaining round is runnable, so the
        // event stream matches the threaded driver's (whose evicted thread emits
        // its farewell regardless of what the survivors do this round).
        for &(worker, _) in evictions.iter().filter(|e| e.1 == it) {
            cfg.trace
                .record(selsync_tracelog::Event::CommEvict { round: it, worker });
        }
        if present.is_empty() {
            sim.account_step(0.0, 0.0, 0, false);
            continue;
        }
        crate::tracing::emit_round_context(&cfg.trace, &conditions, cfg.workers, it, &present);
        let mut comm = rejoin_comm;
        let mut bytes = rejoin_bytes;

        // Phase 0: ask the δ policy for this round's threshold.
        let sync_policy = SyncPolicy::new(policy.delta(it));

        // Phase 1: every present worker computes its gradient and Δ(g_i) on its next
        // mini-batch — in parallel on the engine pool.
        sim.plan_round(&present, &mut steps);
        let round = sim.run_round(&steps);

        // PS outage: the round degrades to forced-local. Every present worker pays
        // one probe round-trip to discover the outage, skips the status all-gather,
        // signal exchange and retry machinery (they all ride PS envelopes), applies
        // its own update, and the δ policy is fed the first present worker's local
        // signal so regime state stays coherent through the outage. `DegradedRound`
        // replaces the `Round` event.
        let ps_down = ps_schedule.as_ref().is_some_and(|s| s.down(it as u64));
        if ps_down {
            comm += sim.network_at(it).ps_probe_time();
            bytes += present.len() as u64 * frame_len(8) as u64;
        } else if rule.exchanges_status() {
            // Phase 2: the 1-bit status all-gather among the present workers.
            comm += sim.status_allgather_seconds_at(it, present.len());
            bytes += present.len() as u64; // the flag bits (≈1 B/worker)
        }
        // Worker-to-worker injection shipping is unaffected by the PS outage.
        bytes += round.injected_bytes;
        if round.injected_bytes > 0 {
            comm += sim.network_at(it).p2p_time(round.injected_bytes);
        }
        let round_signal = if ps_down {
            sim.apply_round_own(&steps, lr);
            crate::tracing::degraded_round(
                &cfg.trace,
                ps_schedule.as_ref(),
                it,
                sync_policy.delta,
                round.stats[0].loss,
                round.deltas[0],
            )
        } else {
            // The cluster-level decision from the present workers' bits. The first
            // reachable round after an outage runs the catch-up sync: synchronization
            // is forced for every present worker so the accumulated local-only deltas
            // reconcile through the ordinary aggregation path.
            let mut flags = rule.flags(it, sync_policy, &round.deltas);
            if ps_schedule
                .as_ref()
                .is_some_and(|s| s.outage_ends(it as u64))
            {
                flags.fill(true);
            }
            let synced = sync_policy.decide(&flags) == SyncDecision::Synchronize;
            // Price the δ-signal exchange when a signal-consuming policy runs: two
            // scalar all-reduces (loss mean, Δ max) plus the 2-element Δ-moment vector
            // feed — 16 payload bytes per present worker. Mirrors the envelopes the
            // threaded driver actually exchanges.
            if exchange_signals {
                let net = sim.network_at(it);
                comm += 2.0 * net.scalar_allreduce_time(present.len())
                    + net.vec_allreduce_time(present.len(), 2);
                bytes += present.len() as u64 * 16;
            }
            // Price the fault schedule's retries: each present worker's exchanges at
            // this round share one link-weather attempt count; failed attempts cost
            // their deterministic backoff (workers retry concurrently, so the round
            // pays the worst worker's penalty) and retransmit both legs of the op
            // frame. Present workers always land within budget — exhaustion would have
            // evicted them from this round's membership.
            if let Some(schedule) = fault_schedule.as_ref().filter(|_| rule.exchanges_status()) {
                let mut worst_penalty_s = 0.0f64;
                for &worker in &present {
                    let attempts = schedule
                        .attempts_used(worker, it as u64)
                        .expect("present workers complete within their retry budget");
                    if attempts > 1 {
                        bytes += (attempts as u64 - 1) * 2 * frame_len(8) as u64;
                        worst_penalty_s =
                            worst_penalty_s.max(schedule.retry_penalty_s(worker, it as u64));
                        cfg.trace.record(selsync_tracelog::Event::CommRetry {
                            round: it,
                            worker,
                            attempts,
                        });
                    }
                }
                comm += worst_penalty_s;
            }

            // Phase 3: apply updates according to the decision and aggregation mode.
            // Who contributes is drawn after the compute phase, on sync rounds only.
            let contributors = if synced {
                rule.contributors(&present, &mut sim.rng)
            } else {
                Vec::new()
            };
            match (synced, rule.aggregation()) {
                (false, _) => sim.apply_round_own(&steps, lr),
                (true, AggregationMode::Parameter) => {
                    // Alg. 1: local update first, then push parameters and pull the average.
                    sim.apply_round_own(&steps, lr);
                    sim.average_params_of_into(&contributors, &mut avg);
                    sim.set_params_of(&present, &avg);
                }
                (true, AggregationMode::Gradient) => {
                    // Gradients are averaged on the PS and applied locally by each worker.
                    // GA keeps replicas diverged by design, so the PS global is the present
                    // replicas' average, not any single replica.
                    aggregation::average_into(sim.round_grads(), &mut avg);
                    sim.apply_round_shared(&present, &avg, lr);
                    sim.average_params_of_into(&present, &mut avg);
                }
            }
            if synced {
                // Either way `avg` is now the contributors' average: the new global.
                ps.record_sync(it as u64, &avg);
                comm += sim.ps_sync_seconds_at(it, contributors.len());
                bytes += 2 * contributors.len() as u64 * sim.nominal().wire_bytes;
            }

            let round_signal = round.signal(it, synced);
            crate::tracing::emit_round(
                &cfg.trace,
                ps_schedule.as_ref(),
                &round_signal,
                exchange_signals,
                sync_policy.delta,
                flags.into_iter(),
            );
            round_signal
        };

        // The tail every executed round ends with, reachable PS or not: accounting,
        // the completed round's (worker-order-merged, thread-count-invariant) signal
        // fed back to the δ policy, the regime switch that observation may have
        // triggered, evaluation, checkpoint / halt.
        let compute = sim.round_compute_seconds(it);
        sim.account_step(compute, comm, bytes, round_signal.synced);
        policy.observe(&round_signal);
        crate::tracing::regime_switch(&cfg.trace, policy.as_ref(), &round_signal);
        if sim.should_eval(it) {
            // The evaluated global model is the present replicas' average (identical to
            // any single present replica right after a PA synchronization).
            sim.average_params_of_into(&present, &mut avg);
            sim.record_eval(it, &avg, round.max_delta);
        }
        if let Some(ck) = &cfg.checkpoint {
            if ck.due(it) || ck.halt_after == Some(it) {
                // The image every backend writes, plus the simulator's own section.
                let image = Checkpoint::assemble(
                    "sim",
                    cfg,
                    it,
                    &ps,
                    &policy.export_state(),
                    sim.recovery_sections(),
                    &cfg.trace.snapshot_log(),
                );
                // The image a resume started from stays on disk whatever the retention says.
                ck.write_image(&image, resume.map(|c| c.round));
            }
            if ck.halt_after == Some(it) {
                break;
            }
        }
    }
    let mut report = sim.finalize(algo_name);
    report.policy_switches = policy.switch_rounds().len() as u32;
    report.switch_rounds = policy.switch_rounds().to_vec();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_data::partition::PartitionScheme;
    use selsync_nn::model::ModelKind;

    fn cfg(algo: AlgorithmSpec) -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        cfg.iterations = 40;
        cfg.eval_every = 10;
        cfg.train_samples = 512;
        cfg.test_samples = 128;
        cfg.eval_samples = 128;
        cfg.batch_size = 8;
        cfg.algorithm = algo;
        cfg
    }

    #[test]
    fn delta_zero_behaves_like_bsp() {
        // δ = 0 means every step satisfies Δ(g_i) ≥ δ, so LSSR must be 0.
        let report = run(&cfg(AlgorithmSpec::selsync(0.0)));
        assert_eq!(report.lssr, 0.0);
        assert_eq!(report.sync_steps, 40);
    }

    #[test]
    fn huge_delta_behaves_like_local_sgd() {
        let report = run(&cfg(AlgorithmSpec::selsync(1e9)));
        assert_eq!(report.local_steps, 40);
        assert!(report.lssr > 0.99);
        // Only the status all-gather is charged, which is orders of magnitude cheaper
        // than parameter exchange.
        assert!(report.comm_time_s < 1.0);
    }

    #[test]
    fn moderate_delta_mixes_local_and_sync_steps() {
        // At this tiny scale the Δ(g_i) distribution is narrow, so derive a "moderate"
        // threshold from the observed range rather than hardcoding one: a δ just below
        // the maximum observed Δ(g_i) must leave some steps above it (synchronizing)
        // and some below it (local).
        let calibration = run(&cfg(AlgorithmSpec::selsync(0.0)));
        assert!(calibration.max_delta > 0.0);
        let moderate = calibration.max_delta * 0.95;
        let report = run(&cfg(AlgorithmSpec::selsync(moderate)));
        assert!(
            report.sync_steps > 0,
            "some steps must synchronize (delta {moderate})"
        );
        assert!(
            report.local_steps > 0,
            "some steps must stay local (delta {moderate})"
        );
        assert!(report.lssr > 0.0 && report.lssr < 1.0);
    }

    #[test]
    fn higher_delta_gives_higher_lssr() {
        let low = run(&cfg(AlgorithmSpec::selsync(0.02)));
        let high = run(&cfg(AlgorithmSpec::selsync(0.3)));
        assert!(high.lssr >= low.lssr, "lssr {} vs {}", high.lssr, low.lssr);
        assert!(high.comm_time_s <= low.comm_time_s);
    }

    #[test]
    fn selsync_is_faster_than_bsp_for_same_iterations() {
        let sel = run(&cfg(AlgorithmSpec::selsync(0.1)));
        let mut bsp_cfg = cfg(AlgorithmSpec::selsync(0.1));
        bsp_cfg.algorithm = AlgorithmSpec::Bsp;
        let bsp = run(&bsp_cfg);
        assert!(sel.sim_time_s < bsp.sim_time_s);
        assert!(sel.raw_time_speedup(&bsp) > 1.0);
    }

    #[test]
    fn parameter_and_gradient_aggregation_both_run() {
        let pa = run(&cfg(AlgorithmSpec::selsync(0.05)));
        let ga = run(&cfg(AlgorithmSpec::selsync_ga(0.05)));
        assert!(pa.final_loss.is_finite());
        assert!(ga.final_loss.is_finite());
        assert!(pa.algorithm.contains("PA"));
        assert!(ga.algorithm.contains("GA"));
    }

    #[test]
    fn seldp_and_defdp_both_supported() {
        let mut c = cfg(AlgorithmSpec::selsync(0.3));
        c.partition = PartitionScheme::DefDp;
        let defdp = run(&c);
        c.partition = PartitionScheme::SelDp;
        let seldp = run(&c);
        assert!(defdp.final_loss.is_finite() && seldp.final_loss.is_finite());
    }

    #[test]
    fn crash_rejoin_keeps_selsync_running_with_fewer_workers() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        let mut c = cfg(AlgorithmSpec::selsync(0.0));
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 3,
            start: 10,
            rejoin: Some(30),
        });
        let faulty = run(&c);
        let clean = run(&cfg(AlgorithmSpec::selsync(0.0)));
        // δ=0 still synchronizes every step, but the crash window moves fewer bytes
        // (3-worker rounds instead of 4-worker rounds for 20 iterations).
        assert_eq!(faulty.sync_steps, 40);
        assert!(faulty.bytes_communicated < clean.bytes_communicated);
        assert!(faulty.final_loss.is_finite());
    }

    #[test]
    fn transient_straggler_stretches_simulated_time() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        let mut c = cfg(AlgorithmSpec::selsync(0.0));
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Slowdown {
            worker: 1,
            start: 0,
            duration: 40,
            factor: 3.0,
        });
        let slow = run(&c);
        let clean = run(&cfg(AlgorithmSpec::selsync(0.0)));
        // Synchronous rounds run at the straggler's pace: 3x the compute time.
        assert!((slow.compute_time_s - 3.0 * clean.compute_time_s).abs() < 1e-9);
        // Communication is unaffected by a compute straggler.
        assert!((slow.comm_time_s - clean.comm_time_s).abs() < 1e-9);
    }

    #[test]
    fn degraded_network_inflates_only_communication_time() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        let mut c = cfg(AlgorithmSpec::selsync(0.0));
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::BandwidthDegradation {
            start: 0,
            duration: 40,
            factor: 0.25,
        });
        let degraded = run(&c);
        let clean = run(&cfg(AlgorithmSpec::selsync(0.0)));
        assert!(degraded.comm_time_s > 2.0 * clean.comm_time_s);
        assert!((degraded.compute_time_s - clean.compute_time_s).abs() < 1e-9);
    }

    #[test]
    fn ps_outage_windows_degrade_rounds_and_force_a_catchup_sync() {
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::{Event, TraceGranularity, TraceSink};
        // δ = 0 would synchronize every round; the outage forces rounds 10..15 local.
        let mut c = cfg(AlgorithmSpec::selsync(0.0));
        c.ps_faults = Some(PsFaultSpec {
            seed: 7,
            windows: vec![(10, 5)],
            flaky: 0.0,
        });
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let report = run(&c);
        assert_eq!(report.local_steps, 5, "rounds 10..15 degrade to local");
        assert_eq!(report.sync_steps, 35);
        let log = c.trace.take_log();
        let degraded: Vec<usize> = log
            .events
            .iter()
            .filter_map(|e| match e {
                Event::DegradedRound { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(degraded, vec![10, 11, 12, 13, 14]);
        assert!(log.events.contains(&Event::PsDown { round: 10 }));
        assert!(log.events.contains(&Event::PsUp { round: 15 }));
        assert!(log.events.contains(&Event::CatchupSync {
            round: 15,
            behind: 5
        }));
        // Degraded rounds replace their Round events; round 15 syncs normally.
        assert!(!log
            .events
            .iter()
            .any(|e| matches!(e, Event::Round { round, .. } if (10..15).contains(round))));
        assert!(log.events.iter().any(|e| matches!(
            e,
            Event::Round {
                round: 15,
                synced: true,
                ..
            }
        )));
    }

    #[test]
    fn outage_free_ps_fault_schedule_is_byte_identical_to_no_schedule() {
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::{TraceGranularity, TraceSink};
        let mut base = cfg(AlgorithmSpec::selsync(0.1));
        base.trace = TraceSink::capture(TraceGranularity::Full);
        let baseline = run(&base);
        let mut c = cfg(AlgorithmSpec::selsync(0.1));
        c.ps_faults = Some(PsFaultSpec {
            seed: 99,
            windows: vec![],
            flaky: 0.0,
        });
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let shadowed = run(&c);
        assert_eq!(base.trace.take_log().encode(), c.trace.take_log().encode());
        assert_eq!(format!("{baseline:?}"), format!("{shadowed:?}"));
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_trace_and_report() {
        use crate::config::CheckpointSpec;
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::{TraceGranularity, TraceSink};
        let base =
            std::env::temp_dir().join(format!("selsync-sim-resume-test-{}", std::process::id()));
        // The FedAvg case (C = 0.5, a sync every 4th round) halts between two sync
        // rounds; its participant draws come from the cluster RNG, which the image's
        // `sim` section restores.
        let cases = [
            AlgorithmSpec::selsync(0.05),
            AlgorithmSpec::FedAvg { c: 0.5, e: 0.25 },
        ];
        for (case, algo) in cases.into_iter().enumerate() {
            let dir = base.join(case.to_string());
            let make = || {
                let mut c = cfg(algo);
                // An outage window straddling the kill round exercises degraded-state
                // recovery, not just the happy path (only SelSync meets outages).
                c.ps_faults = Some(PsFaultSpec {
                    seed: 3,
                    windows: vec![(12, 4)],
                    flaky: 0.0,
                });
                c.delta_policy = Some(crate::policy::PolicySpec::adaptive_default());
                c.trace = TraceSink::capture(TraceGranularity::Full);
                c
            };

            let full_cfg = make();
            let full = run(&full_cfg);
            let full_trace = full_cfg.trace.take_log().encode();
            assert!(!full.sync_rounds.contains(&13) && full.sync_rounds.iter().any(|&r| r > 13));

            let mut killed_cfg = make();
            killed_cfg.checkpoint = Some(CheckpointSpec {
                every: 7,
                dir: dir.to_string_lossy().into_owned(),
                halt_after: Some(13),
                keep: None,
            });
            let _halted = run(&killed_cfg);
            let ckpt = Checkpoint::read_file(dir.join("ckpt-13")).expect("checkpoint reads back");
            assert_eq!(ckpt.round, 13);
            // The cadence checkpoint at round 6 was written too.
            assert!(dir.join("ckpt-6").exists());

            let resumed_cfg = make();
            let resumed = run_resumed(&resumed_cfg, &ckpt);
            assert_eq!(resumed_cfg.trace.take_log().encode(), full_trace);
            assert_eq!(format!("{resumed:?}"), format!("{full:?}"));
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn checkpoint_retention_rotates_images_and_never_prunes_the_resume_source() {
        use crate::config::CheckpointSpec;
        let base =
            std::env::temp_dir().join(format!("selsync-ckpt-keep-test-{}", std::process::id()));
        let images = |dir: &std::path::Path| -> Vec<usize> {
            let mut rounds: Vec<usize> = std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .filter_map(|e| e.ok())
                        .filter_map(|e| e.file_name().to_str()?.strip_prefix("ckpt-")?.parse().ok())
                        .collect()
                })
                .unwrap_or_default();
            rounds.sort_unstable();
            rounds
        };
        let spec = |dir: &std::path::Path, keep: Option<usize>| CheckpointSpec {
            every: 5,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: None,
            keep,
        };

        // Rotation: 40 iterations at every=5 write rounds 4,9,…,39; `keep = 2`
        // leaves only the newest two on disk.
        let rotated = base.join("rotated");
        let mut c = cfg(AlgorithmSpec::selsync(0.05));
        c.checkpoint = Some(spec(&rotated, Some(2)));
        let _ = run(&c);
        assert_eq!(images(&rotated), vec![34, 39]);

        // Resume protection: a full-retention run leaves every image; resuming
        // from ckpt-9 with `keep = 1` rotates everything *except* the image the
        // resume started from, whatever its age.
        let protected = base.join("protected");
        let mut c = cfg(AlgorithmSpec::selsync(0.05));
        c.checkpoint = Some(spec(&protected, None));
        let _ = run(&c);
        assert_eq!(images(&protected), vec![4, 9, 14, 19, 24, 29, 34, 39]);
        let ckpt = Checkpoint::read_file(protected.join("ckpt-9")).expect("checkpoint reads back");
        let mut c = cfg(AlgorithmSpec::selsync(0.05));
        c.checkpoint = Some(spec(&protected, Some(1)));
        let _ = run_resumed(&c, &ckpt);
        assert_eq!(images(&protected), vec![9, 39]);

        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn non_iid_with_injection_accounts_injection_bytes() {
        let mut c = cfg(AlgorithmSpec::selsync_injected(0.5, 0.5, 0.3));
        c.workers = 10;
        c.non_iid_labels_per_worker = Some(1);
        let report = run(&c);
        assert!(report.bytes_communicated > 0);
        assert!(report.final_loss.is_finite());
    }
}
