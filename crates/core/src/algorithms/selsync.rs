//! SelSync (§III, Alg. 1): δ-based selective synchronization, in the simulator's run
//! of the one round loop (`crate::worker::run_group`), which BSP, FedAvg and local SGD
//! run too, as other sync rules ([`SyncRule`]).
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
//! (Sync-Switch-style) policy that is consulted before each round's decision and
//! observes the round's signals afterwards. Policies are deterministic functions of
//! the merged round signals, so the byte-identity guarantee across thread counts is
//! preserved.

use crate::aggregation;
use crate::checkpoint::Checkpoint;
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::policy::{run_policy_spec, DeltaPolicy, PolicySpec, RoundSignal, SyncRule};
use crate::report::RunReport;
use crate::sim::{RoundOutput, Simulator};
use crate::worker::{open_run, run_group, ClusterLink};
use selsync_comm::faults::{CommFaultSchedule, PsFaultSchedule};
use selsync_comm::ps::PsState;
use selsync_comm::wire::frame_len;
use selsync_comm::NetworkModel;
use selsync_tracelog::Event;

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
    let (rule, spec) = (SyncRule::of(cfg), run_policy_spec(cfg));
    if let Some(ck) = &cfg.checkpoint {
        ck.validate().expect("invalid checkpoint configuration");
    }
    let mut sim = Simulator::new(cfg);
    let initial = || PsState::new(sim.workers[0].params.clone(), cfg.snapshot_depth());
    let mut link = MemoryLink {
        cfg,
        policy: open_run(cfg, &spec, resume),
        ps: resume.map_or_else(initial, Checkpoint::ps_state),
        wire_bytes: sim.nominal().wire_bytes,
        faults: cfg.comm_faults.map(CommFaultSchedule::new),
        ps_schedule: cfg.ps_fault_schedule(),
        protect: resume.map(|c| c.round),
        comm: [0.0; 6],
        bytes: 0,
    };
    run_group(cfg, (rule, &spec), &mut sim, &mut link, resume);
    let mut report = sim.finalize(algorithm_label(cfg));
    report.policy_switches = link.policy.switch_rounds().len() as u32;
    report.switch_rounds = link.policy.switch_rounds().to_vec();
    report
}

/// The simulator's [`ClusterLink`]: one group of all W workers, whose collectives are
/// worker-order folds in memory. It holds what a hub holds — the parameter server's
/// durable state, folded exactly as a live server folds it (so the image's `ps`
/// section is the one a cluster backend writes), and the one δ-policy — and prices
/// every op it performs on the cost model.
struct MemoryLink<'a> {
    cfg: &'a TrainConfig,
    policy: Box<dyn DeltaPolicy>,
    ps: PsState,
    /// Bytes one parameter transfer moves at paper scale.
    wire_bytes: u64,
    /// The comm-fault schedule, which prices retries.
    faults: Option<CommFaultSchedule>,
    /// PS availability: at a down round the status exchange is the outage probe.
    ps_schedule: Option<PsFaultSchedule>,
    /// The image a resume started from stays on disk whatever the retention says.
    protect: Option<usize>,
    /// The round's cost terms in seconds, in the order they are summed: rejoin pulls,
    /// probe or status all-gather, injection, signal exchange, retry penalty, sync.
    comm: [f64; 6],
    /// The round's bytes on the wire.
    bytes: u64,
}

const REJOIN: usize = 0;
const STATUS: usize = 1;
const INJECTION: usize = 2;
const SIGNALS: usize = 3;
const RETRY: usize = 4;
const SYNC: usize = 5;

impl MemoryLink<'_> {
    fn network(&self, it: usize) -> NetworkModel {
        self.cfg.conditions.network_at(it, &self.cfg.network)
    }
}

impl ClusterLink for MemoryLink<'_> {
    fn rejoin_pull(&mut self, it: usize, _worker: usize) -> Vec<f32> {
        self.comm[REJOIN] += self.network(it).ps_one_way_time(self.wire_bytes);
        self.bytes += self.wire_bytes;
        self.ps.global.clone()
    }

    fn scheduled_round_before(&self, _it: usize) -> Option<usize> {
        self.ps.last_global_round.map(|r| r as usize)
    }

    /// Priced as two scalar all-reduces (loss mean, Δ max) plus the 2-element
    /// Δ-moment vector: the 16 payload bytes per present worker of the `ScalarReduce`
    /// and `VecReduce` envelopes.
    fn signals(&mut self, it: usize, round: &RoundOutput, expected: usize) -> RoundSignal {
        let net = self.network(it);
        self.comm[SIGNALS] =
            2.0 * net.scalar_allreduce_time(expected) + net.vec_allreduce_time(expected, 2);
        self.bytes += expected as u64 * 16;
        round.signal(it, false)
    }

    fn delta_for(&mut self, it: usize) -> f32 {
        self.policy.delta(it)
    }

    /// Every present worker pays one probe round-trip at a PS-down round, else the
    /// 1-bit all-gather (≈1 B per worker) and its retries: failed attempts cost their
    /// deterministic backoff (workers retry concurrently, so the round pays the worst
    /// worker's penalty) and retransmit both legs of the op frame. The group is the
    /// cluster, so its bits are the cluster's; the round is observed in
    /// [`ClusterLink::observe`].
    fn status(
        &mut self,
        it: usize,
        present: &[usize],
        flags: Vec<bool>,
        _pending: Option<(RoundSignal, usize)>,
    ) -> (Vec<bool>, bool) {
        let (net, round, n) = (self.network(it), it as u64, present.len() as u64);
        if self.ps_schedule.as_ref().is_some_and(|s| s.down(round)) {
            self.comm[STATUS] = net.ps_probe_time();
            self.bytes += n * frame_len(8) as u64;
            return (flags, false);
        }
        self.comm[STATUS] = net.status_allgather_time(present.len());
        self.bytes += n;
        let Some(schedule) = &self.faults else {
            return (flags, false);
        };
        for &worker in present {
            let attempts = schedule
                .attempts_used(worker, round)
                .expect("present workers complete within their retry budget");
            if attempts > 1 {
                self.bytes += (attempts as u64 - 1) * 2 * frame_len(8) as u64;
                let penalty = schedule.retry_penalty_s(worker, round);
                self.comm[RETRY] = self.comm[RETRY].max(penalty);
                let retry = Event::CommRetry {
                    round: it,
                    worker,
                    attempts,
                };
                self.cfg.trace.record(retry);
            }
        }
        (flags, false)
    }

    fn sync(
        &mut self,
        _it: usize,
        contributions: &[&[f32]],
        _expected: usize,
        mean: &mut Vec<f32>,
    ) {
        aggregation::average_into(contributions, mean);
    }

    fn commit(&mut self, it: usize, global: &[f32], contributors: usize) {
        self.ps.record_sync(it as u64, global);
        self.comm[SYNC] = self.network(it).ps_sync_time(self.wire_bytes, contributors);
        self.bytes += 2 * contributors as u64 * self.wire_bytes;
    }

    fn observe(&mut self, signal: RoundSignal, _next_round: usize) {
        self.policy.observe(&signal);
        crate::tracing::regime_switch(&self.cfg.trace, self.policy.as_ref(), &signal);
    }

    /// The image every backend writes, plus the simulator's own section.
    fn checkpoint(&mut self, it: usize, group: &Simulator) {
        let image = Checkpoint::assemble(
            "sim",
            self.cfg,
            it,
            &self.ps,
            &self.policy.export_state(),
            group.recovery_sections(),
            &self.cfg.trace.snapshot_log(),
        );
        let ck = self.cfg.checkpoint.as_ref().expect("a checkpoint round");
        ck.write_image(&image, self.protect);
    }

    /// Accounting (the round's cost terms summed in their fixed order, whatever order
    /// the loop priced them in) and evaluation of the present replicas' average —
    /// identical to any single present replica right after a PA synchronization.
    fn round_done(
        &mut self,
        it: usize,
        group: &mut Simulator,
        present: &[usize],
        round: Option<(&RoundOutput, bool)>,
    ) {
        let Some((round, synced)) = round else {
            group.account_step(0.0, 0.0, 0, false);
            return;
        };
        // Worker-to-worker injection shipping is unaffected by a PS outage.
        if round.injected_bytes > 0 {
            self.comm[INJECTION] = self.network(it).p2p_time(round.injected_bytes);
        }
        let comm = std::mem::take(&mut self.comm)
            .iter()
            .fold(0.0, |sum, t| sum + t);
        let bytes = std::mem::take(&mut self.bytes) + round.injected_bytes;
        group.account_step(group.round_compute_seconds(it), comm, bytes, synced);
        if group.should_eval(it) {
            let mut avg = Vec::new();
            group.average_params_of_into(present, &mut avg);
            group.record_eval(it, &avg, round.max_delta);
        }
    }

    fn pull(&self, _end: usize) -> Vec<f32> {
        self.ps.global.clone()
    }
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
