//! Thread-per-worker SelSync/BSP driver over the real communication substrate.
//!
//! The sequential simulator in [`crate::sim`] is what the benchmark harness uses (it is
//! deterministic and lets the cost model supply timing), but the synchronization *logic*
//! of Alg. 1 — the 1-bit status all-gather, the blocking parameter-server round, the
//! "any worker can force a synchronization" rule — deserves to be exercised with real
//! concurrency. This module runs each worker on its own OS thread against the
//! [`selsync_comm`] parameter server and collectives. It is used by the integration
//! tests and the scenario binaries; it reports metrics but not simulated time
//! (wall-clock on the host is meaningless for the paper's comparisons).
//!
//! **Parity with the simulator.** The driver deliberately mirrors the simulator's
//! training semantics exactly: the same synthetic datasets ([`crate::sim::build_datasets`]),
//! the same per-worker data traversals ([`crate::sim::worker_traversal`]),
//! the same optimizer and learning-rate schedule, the same `Δ(g_i)` tracker
//! configuration, and the same dropout-stream positions (each worker seeks its model's
//! stochastic layers to the canonical global forward index, a pure function of the
//! fault schedule). Synchronization averages are combined in **worker-id order** by the
//! round-keyed elastic rendezvous ([`selsync_comm::rounds`]), bit-identical to the
//! simulator's `aggregation::average_present_into` — so the threaded cluster's
//! parameter stream, `Δ(g_i)` stream and therefore its synchronization *schedule*
//! (`sync_rounds`) are equal to the simulator's: on crash-free schedules always, and
//! on crash/rejoin schedules under the deterministic scheduled rejoin-pull mode
//! (below). The scenario parity tests pin this for fixed, scheduled and adaptive δ
//! policies alike.
//!
//! Fault injection: the driver honours the crash windows of
//! [`crate::conditions::ClusterConditions`]. The schedule is a pure function of
//! `(worker, iteration)`, so every live thread derives the same membership without
//! coordination; collective and PS rounds are keyed by the iteration id
//! ([`selsync_comm::Collective::allgather_flags_among`] /
//! [`selsync_comm::ParameterServer::sync_round_elastic`]), which makes skipping rounds
//! safe. A rejoining worker restarts its tracker and optimizer — in-memory state does
//! not survive a crash — and pulls parameters according to
//! [`crate::config::RejoinPull`]:
//!
//! * **wall-clock** (the default, real-cluster semantics): the rejoiner reads whatever
//!   the PS holds at that moment. The crashed thread skips its absent iterations
//!   instantly while live workers are still training, so the pulled snapshot — unlike
//!   everything schedule-driven — is not deterministic, and simulator parity covers
//!   crash-free schedules only.
//! * **scheduled** (deterministic): the rejoiner pulls the global of the last
//!   *scheduled* synchronization before its rejoin round from the PS's round-keyed
//!   snapshot ring ([`selsync_comm::ParameterServer::scheduled_global_before`]) —
//!   exactly what the simulator's rejoin pull reads — which extends the parity
//!   contract to crash/rejoin schedules.
//!
//! δ policies: the cluster runs **one** shared instance of the configured
//! [`crate::policy::DeltaPolicy`] (the signal board), exactly like the simulator — not
//! per-worker replicas. Each round, the present workers exchange their batch loss and
//! `Δ(g_i)` through the elastic scalar all-reduce
//! ([`selsync_comm::Collective::allreduce_scalar_among`], worker-order mean / max, so
//! the aggregates are bit-identical to the simulator's worker-order folds), and the
//! lowest-ranked present worker feeds the cluster-level [`RoundSignal`] to the shared
//! policy once the round's decision is known. The board orders observations by round
//! id — a worker asking for round `r`'s δ blocks until every earlier active round has
//! been observed — so the policy's signal stream, and therefore every threshold it
//! produces, is identical to the simulator's for fixed, scheduled *and* adaptive
//! policies. Crash windows don't break this: the shared policy, like the simulator's,
//! survives worker crashes (only per-worker state restarts). For signal-blind
//! (fixed/scheduled) policies the two scalar rendezvous are elided — their
//! observations are discarded anyway — so the default driver pays nothing for the
//! machinery.
//!
//! **One worker loop.** The round each thread runs is `crate::worker::run_worker`
//! — the same function the process backend's workers run. This module supplies what
//! is particular to threads: the shared cluster state (`ClusterCore`, which the
//! process hub builds and checkpoints through the very same functions), the
//! in-process `ClusterLink` over it, and the checkpoint gate.

use crate::checkpoint::{Checkpoint, Section};
use crate::conditions::ClusterConditions;
use crate::config::TrainConfig;
use crate::policy::{DeltaPolicy, PolicySpec, RoundSignal};
use crate::worker::{run_worker, with_ps_gate, ClusterLink, WorkerInputs};
use parking_lot::{Condvar, Mutex};
use selsync_comm::cluster::{make_handles, run_cluster_with, ClusterHandles};
use selsync_comm::faults::CommFaultSchedule;
use selsync_comm::{MessageLayer, ScalarOp};
use selsync_nn::model::PaperModel;
use selsync_tracelog::{EventLog, TraceSink};
use serde::{Deserialize, Serialize};

/// The cluster-level δ-policy shared by every worker thread — the threaded
/// counterpart of the single policy instance the simulator's SelSync driver owns.
///
/// Observations are strictly ordered by round id: [`Self::observe`] may only ingest
/// the signals of the oldest active round not yet observed, and [`Self::delta_for`]
/// blocks until every active round before the asked one has been observed. Combined
/// with the rendezvous structure of a round (the status all-gather cannot complete
/// until every present worker has fetched its δ, and the observation is posted only
/// after that all-gather), this makes the policy's signal stream — and every
/// threshold it produces — a pure function of the schedule, independent of thread
/// interleaving.
pub(crate) struct SignalBoard {
    state: Mutex<BoardState>,
    cv: Condvar,
    /// The run's trace sink: regime switches are policy-internal transitions, visible
    /// only at the observation point, so the board is the one place that can log them.
    trace: TraceSink,
}

struct BoardState {
    policy: Box<dyn DeltaPolicy>,
    /// The oldest active (some-worker-present) round not yet observed; the iteration
    /// count once every active round has been observed.
    next_observe: usize,
}

impl SignalBoard {
    pub(crate) fn new(
        policy: Box<dyn DeltaPolicy>,
        first_active_round: usize,
        trace: TraceSink,
    ) -> Self {
        SignalBoard {
            state: Mutex::new(BoardState {
                policy,
                next_observe: first_active_round,
            }),
            cv: Condvar::new(),
            trace,
        }
    }

    /// Block until every active round before `iteration` has been observed (i.e. the
    /// policy state is exactly what the simulator's policy held entering that round).
    pub(crate) fn wait_caught_up(&self, iteration: usize) {
        let mut s = self.state.lock();
        while s.next_observe < iteration {
            self.cv.wait(&mut s);
        }
    }

    /// The δ in effect for the round at `iteration`. Blocks until the policy has
    /// observed every earlier active round; the round's own signals cannot have been
    /// observed yet (the observation is posted only after the round's status
    /// all-gather, which this call precedes on every present worker).
    pub(crate) fn delta_for(&self, iteration: usize) -> f32 {
        let mut s = self.state.lock();
        while s.next_observe < iteration {
            self.cv.wait(&mut s);
        }
        assert_eq!(
            s.next_observe, iteration,
            "δ requested for a round whose signals were already observed"
        );
        s.policy.delta(iteration)
    }

    /// Ingest the completed round's cluster-level signals and advance the board to
    /// `next_round` (the next active round, or the iteration count). Called by exactly
    /// one worker per round — the lowest-ranked present one — strictly in round order.
    pub(crate) fn observe(&self, signal: RoundSignal, next_round: usize) {
        let mut s = self.state.lock();
        assert_eq!(
            s.next_observe, signal.iteration,
            "round signals observed out of order"
        );
        s.policy.observe(&signal);
        crate::tracing::regime_switch(&self.trace, s.policy.as_ref(), &signal);
        s.next_observe = next_round;
        self.cv.notify_all();
    }
}

/// Full-cluster checkpoint barrier: at a checkpoint round every worker thread —
/// present or absent — deposits its per-worker recovery section and parks; once all
/// `n` have arrived the cluster is quiescent (no in-flight rounds, every event of
/// the round recorded, the round's signals observed), worker 0 writes the image,
/// and everyone is released. Round-keyed like every other rendezvous in the driver,
/// so consecutive checkpoint rounds cannot interleave.
struct CheckpointGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    deposits: Vec<Option<Section>>,
    arrived: usize,
    /// The newest round whose checkpoint has been fully written.
    written: Option<usize>,
}

impl CheckpointGate {
    fn new(n: usize) -> Self {
        CheckpointGate {
            state: Mutex::new(GateState {
                deposits: (0..n).map(|_| None).collect(),
                arrived: 0,
                written: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Deposit `section` for `worker` and block until round `round`'s checkpoint has
    /// been written. Worker 0 is the designated writer: it waits for all `n`
    /// deposits, runs `write` outside the lock, and releases the cluster.
    fn checkpoint_round(
        &self,
        worker: usize,
        round: usize,
        section: Section,
        write: impl FnOnce(Vec<Section>),
    ) {
        let mut s = self.state.lock();
        assert!(
            s.deposits[worker].is_none(),
            "worker {worker} deposited twice for one checkpoint"
        );
        s.deposits[worker] = Some(section);
        s.arrived += 1;
        if worker == 0 {
            while s.arrived < s.deposits.len() {
                self.cv.wait(&mut s);
            }
            let deposits: Vec<Section> = s
                .deposits
                .iter_mut()
                .map(|d| d.take().expect("every worker deposited"))
                .collect();
            s.arrived = 0;
            drop(s);
            write(deposits);
            let mut s = self.state.lock();
            s.written = Some(round);
            self.cv.notify_all();
        } else {
            self.cv.notify_all();
            while s.written != Some(round) {
                self.cv.wait(&mut s);
            }
        }
    }
}

/// The cluster's shared state — parameter server, collectives, the δ-policy signal
/// board — set up (fresh or from a recovery image) and checkpointed the same way by
/// both cluster backends: the threaded driver's worker threads reach it through
/// [`ThreadLink`], the process hub serves it to its workers over RPC.
pub(crate) struct ClusterCore {
    pub(crate) handles: ClusterHandles,
    pub(crate) board: SignalBoard,
    /// The *base* effective membership schedule: scheduled crashes plus compiled
    /// comm-fault evictions.
    pub(crate) conditions: ClusterConditions,
    /// The first round the (possibly resumed) run executes.
    pub(crate) start: usize,
    /// The image a resume started from stays on disk whatever the retention says.
    protect: Option<usize>,
}

impl ClusterCore {
    /// Build the shared state for a run of `cfg` under the δ-policy `spec` and the
    /// compiled membership schedule `conditions`, restored from the recovery image
    /// `resume` when given (panics unless [`Checkpoint::check_resumable`]: resuming
    /// under a different config is always a bug); `proto` is a freshly built replica
    /// of the run's model, whose parameters seed the PS. Also starts the run's trace:
    /// the header on a fresh run, the image's trace prefix — which already contains
    /// it — on a resumed one.
    pub(crate) fn build(
        cfg: &TrainConfig,
        spec: &PolicySpec,
        proto: &PaperModel,
        conditions: ClusterConditions,
        resume: Option<&Checkpoint>,
    ) -> Self {
        let n = cfg.workers;
        let handles = make_handles(n, proto.params_flat());
        if let Some(depth) = cfg.snapshot_depth() {
            // Enabled before any worker starts (and replaced by a resume image's).
            handles.ps.enable_scheduled_snapshots(depth);
        }
        // One cluster-level policy instance for the whole run, seeded at the first
        // active round the run executes — the exact analogue of the simulator
        // driver's `policy` local.
        let mut policy = spec.build();
        match resume {
            Some(ckpt) => {
                ckpt.check_resumable(cfg).unwrap_or_else(|e| panic!("{e}"));
                ckpt.preload_trace(&cfg.trace);
                // Restore the PS — global vector, newest-global guard and snapshot
                // ring — before any worker pulls from it, and the policy's durable
                // state before the board hands out a δ.
                handles.ps.restore_state(&ckpt.ps_state());
                policy.import_state(&ckpt.board_state());
            }
            // Same header every backend writes: the labels are pure functions of
            // the config.
            None => crate::tracing::emit_header(
                &cfg.trace,
                cfg,
                &crate::algorithms::selsync::algorithm_label(cfg),
                &spec.label(),
            ),
        }
        let start = resume.map_or(0, |ckpt| ckpt.round + 1);
        let board = SignalBoard::new(
            policy,
            conditions.next_active_iteration(n, start, cfg.iterations),
            cfg.trace.clone(),
        );
        ClusterCore {
            handles,
            board,
            conditions,
            start,
            protect: resume.map(|ckpt| ckpt.round),
        }
    }

    /// Write the cluster's full recovery image after round `it`, tagged `backend`:
    /// the PS state (global vector, newest-global guard, snapshot ring), the shared
    /// δ-policy state, every worker's deposited section (worker order) and the trace
    /// prefix recorded so far — this process's sink merged with the `shards` of
    /// workers that record elsewhere. Runs at the checkpoint's quiescent point:
    /// every worker parked, the round's signals observed.
    pub(crate) fn write_image(
        &self,
        cfg: &TrainConfig,
        backend: &str,
        it: usize,
        sections: Vec<Section>,
        shards: Vec<EventLog>,
    ) {
        let ck = cfg
            .checkpoint
            .as_ref()
            .expect("a deposit implies a checkpoint spec");
        let own = std::iter::once(cfg.trace.snapshot_log());
        let image = Checkpoint::assemble(
            backend,
            cfg,
            it,
            &self.handles.ps.export_state(),
            &self.board.state.lock().policy.export_state(),
            sections,
            &EventLog::merge(own.chain(shards)),
        );
        ck.write_image(&image, self.protect);
    }
}

/// A worker thread's [`ClusterLink`]: direct calls on the shared in-process state.
struct ThreadLink<'a> {
    cfg: &'a TrainConfig,
    handles: ClusterHandles,
    core: &'a ClusterCore,
    gate: &'a CheckpointGate,
    worker: usize,
}

impl ClusterLink for ThreadLink<'_> {
    fn pull(&self) -> Vec<f32> {
        self.handles.ps.pull()
    }

    fn scheduled_global_before(&self, round: u64) -> Vec<f32> {
        self.handles.ps.scheduled_global_before(round)
    }

    fn scheduled_round_before(&self, round: u64) -> Option<u64> {
        self.handles.ps.scheduled_round_before(round)
    }

    fn sync_round_elastic(&self, round: u64, params: &[f32], expected: usize, mean: &mut Vec<f32>) {
        let fill = |buf: &mut Vec<f32>| buf.extend_from_slice(params);
        let ps = &self.handles.ps;
        mean.clone_from(&ps.sync_round_shared(round, self.worker, expected, fill));
    }

    fn allgather_flags_among(&self, round: u64, flag: bool, expected: usize) -> Vec<bool> {
        let collective = &self.handles.collective;
        collective.allgather_flags_among(round, self.worker, flag, expected)
    }

    fn allreduce_scalar_among(&self, round: u64, value: f32, expected: usize, op: ScalarOp) -> f32 {
        let collective = &self.handles.collective;
        collective.allreduce_scalar_among(round, self.worker, value, expected, op)
    }

    fn allreduce_vec_among(
        &self,
        round: u64,
        values: &[f32],
        expected: usize,
        op: ScalarOp,
    ) -> Vec<f32> {
        let collective = &self.handles.collective;
        collective.allreduce_vec_among(round, self.worker, values.to_vec(), expected, op)
    }

    fn wait_caught_up(&self, iteration: usize) {
        self.core.board.wait_caught_up(iteration)
    }

    fn delta_for(&self, iteration: usize) -> f32 {
        self.core.board.delta_for(iteration)
    }

    fn observe(&self, signal: RoundSignal, next_round: usize) {
        self.core.board.observe(signal, next_round)
    }

    /// Threads do not die independently: membership is the compiled schedule.
    fn round_begin(&self, _it: usize) -> Vec<(usize, usize)> {
        Vec::new()
    }

    fn ckpt_deposit(&self, it: usize, section: Section) {
        self.gate
            .checkpoint_round(self.worker, it, section, |deposits| {
                self.core
                    .write_image(self.cfg, "threaded", it, deposits, Vec::new());
            });
    }
}

/// Result of a threaded run, per worker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadedWorkerReport {
    /// Worker id.
    pub worker: usize,
    /// Steps that synchronized.
    pub sync_steps: u64,
    /// Steps that stayed local.
    pub local_steps: u64,
    /// The iterations at which this worker's rounds synchronized — the worker's view
    /// of the cluster synchronization schedule. Equal to the simulator's
    /// [`crate::report::RunReport::sync_rounds`] restricted to the rounds this worker
    /// was present at (so equal across workers, and to the simulator's schedule
    /// verbatim, on crash-free schedules) — for fixed, scheduled *and* adaptive δ
    /// policies, with crash/rejoin schedules covered under
    /// [`crate::config::RejoinPull::Scheduled`].
    pub sync_rounds: Vec<usize>,
    /// Final training loss observed by this worker.
    pub final_loss: f32,
    /// L2 distance between this worker's final parameters and the PS global vector
    /// (0 after a final synchronization under parameter aggregation).
    pub distance_to_global: f32,
}

/// Run SelSync (or BSP via δ=0) with one OS thread per worker over the real parameter
/// server and collectives. Returns one report per worker.
pub fn run_threaded_selsync(cfg: &TrainConfig) -> Vec<ThreadedWorkerReport> {
    run_threaded_inner(cfg, None)
}

/// Resume a threaded run from a durable checkpoint written by an earlier
/// `run_threaded_selsync` of the *same* configuration. The PS (global + snapshot
/// ring), the shared δ policy, every worker's local state and the trace prefix are
/// restored before any thread spawns; the resumed cluster continues from
/// `ckpt.round + 1` and produces the byte-identical trace and reports of the
/// uninterrupted run.
pub fn run_threaded_selsync_resumed(
    cfg: &TrainConfig,
    ckpt: &Checkpoint,
) -> Vec<ThreadedWorkerReport> {
    run_threaded_inner(cfg, Some(ckpt))
}

fn run_threaded_inner(cfg: &TrainConfig, resume: Option<&Checkpoint>) -> Vec<ThreadedWorkerReport> {
    let spec = crate::process::ensure_supported(cfg)
        .unwrap_or_else(|e| panic!("threaded driver: {} ({})", e.message, e.key));
    let proto = PaperModel::build(cfg.model, cfg.seed);
    let inputs = WorkerInputs::build(cfg, &spec, &proto);
    let core = ClusterCore::build(cfg, &spec, &proto, inputs.conditions.clone(), resume);
    // Every comm op rides the message layer: lossless (single attempt, intact
    // delivery) without `[comm_faults]`, the retry/timeout/eviction path over the
    // faulty transport with it.
    let layer = match cfg.comm_faults.map(CommFaultSchedule::new) {
        Some(schedule) => MessageLayer::faulty(schedule),
        None => MessageLayer::lossless(),
    };
    let layer = with_ps_gate(cfg, layer);
    let gate = CheckpointGate::new(cfg.workers);
    run_cluster_with(core.handles.clone(), |worker, handles| {
        let link = ThreadLink {
            cfg,
            handles,
            core: &core,
            gate: &gate,
            worker,
        };
        run_worker(cfg, &inputs, worker, &link, &layer, resume, None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use selsync_nn::model::ModelKind;
    use selsync_tracelog::Event;

    fn cfg(delta: f32, workers: usize) -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, workers);
        cfg.iterations = 25;
        cfg.batch_size = 8;
        cfg.train_samples = 256;
        cfg.test_samples = 64;
        cfg.algorithm = AlgorithmSpec::selsync(delta);
        cfg
    }

    #[test]
    fn all_workers_agree_on_the_synchronization_schedule() {
        let reports = run_threaded_selsync(&cfg(0.05, 4));
        assert_eq!(reports.len(), 4);
        let first = (
            reports[0].sync_steps,
            reports[0].local_steps,
            reports[0].sync_rounds.clone(),
        );
        for r in &reports {
            assert_eq!(
                (r.sync_steps, r.local_steps, r.sync_rounds.clone()),
                first,
                "worker {} diverged",
                r.worker
            );
            assert_eq!(r.sync_steps + r.local_steps, 25);
            assert_eq!(r.sync_rounds.len() as u64, r.sync_steps);
        }
    }

    #[test]
    fn delta_zero_synchronizes_every_step_across_threads() {
        let mut c = cfg(0.0, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            assert_eq!(r.sync_steps, 25);
            assert_eq!(r.local_steps, 0);
            assert_eq!(r.sync_rounds, (0..25).collect::<Vec<_>>());
            // After a final synchronization every worker equals the PS state.
            assert!(
                r.distance_to_global < 1e-4,
                "distance {}",
                r.distance_to_global
            );
        }
    }

    #[test]
    fn huge_delta_never_synchronizes_across_threads() {
        let reports = run_threaded_selsync(&cfg(1e9, 3));
        for r in &reports {
            assert_eq!(r.sync_steps, 0);
            assert_eq!(r.local_steps, 25);
            assert!(r.sync_rounds.is_empty());
        }
    }

    #[test]
    fn scheduled_policy_is_honoured_across_threads() {
        // δ = 0 for the first 10 iterations (every step synchronizes), then δ huge
        // (never again): the schedule is a pure function of the iteration, so every
        // worker replica agrees on it.
        let mut c = cfg(0.0, 3);
        c.delta_policy = Some(PolicySpec::Schedule {
            starts: vec![0, 10],
            deltas: vec![0.0, 1e9],
        });
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            assert_eq!(r.sync_rounds, (0..10).collect::<Vec<_>>());
            assert_eq!(r.sync_steps, 10);
            assert_eq!(r.local_steps, 15);
        }
    }

    #[test]
    fn adaptive_policy_decisions_are_cluster_coherent_and_match_the_simulator() {
        // The shared signal board feeds the adaptive policy the same worker-order
        // cluster aggregates the simulator computes, so the threaded schedule equals
        // the simulator's even though the policy is stateful.
        let mut c = cfg(0.3, 4);
        c.iterations = 30;
        c.delta_policy = Some(PolicySpec::adaptive_default());
        let sim = crate::algorithms::run(&c);
        assert!(
            sim.sync_steps > 0 && sim.local_steps > 0,
            "the adaptive arm must produce a mixed schedule for this to be meaningful"
        );
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            assert_eq!(
                r.sync_rounds, sim.sync_rounds,
                "worker {} diverged from the simulator's adaptive schedule",
                r.worker
            );
        }
    }

    #[test]
    fn scheduled_rejoin_pull_reproduces_the_simulator_on_a_crash_schedule() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        use crate::config::RejoinPull;
        // δ > 0 (mixed schedule) with a crash window: under the scheduled rejoin-pull
        // mode the rejoiner reads the last scheduled global, so every worker's
        // schedule must equal the simulator's restricted to its present rounds.
        let mut c = cfg(0.05, 3);
        c.rejoin_pull = RejoinPull::Scheduled;
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 5,
            rejoin: Some(15),
        });
        let sim = crate::algorithms::run(&c);
        let reports = run_threaded_selsync(&c);
        for r in &reports {
            let expected: Vec<usize> = sim
                .sync_rounds
                .iter()
                .copied()
                .filter(|&round| c.conditions.is_present(r.worker, round))
                .collect();
            assert_eq!(
                r.sync_rounds, expected,
                "worker {} diverged from the simulator under crash/rejoin",
                r.worker
            );
        }
        // Determinism of the whole run: a rerun reproduces the same reports.
        let again = run_threaded_selsync(&c);
        for (a, b) in reports.iter().zip(again.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn crash_and_rejoin_across_threads_keeps_the_cluster_consistent() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        // BSP (δ=0) with worker 2 crashed for iterations 5..15: the live workers keep
        // synchronizing among themselves, the crashed worker misses exactly 10 rounds,
        // and after its rejoin-pull everybody finishes on the PS state.
        let mut c = cfg(0.0, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 5,
            rejoin: Some(15),
        });
        let reports = run_threaded_selsync(&c);
        assert_eq!(reports[0].sync_steps, 25);
        assert_eq!(reports[1].sync_steps, 25);
        assert_eq!(reports[2].sync_steps, 15, "crashed worker misses 10 rounds");
        assert!(!reports[2].sync_rounds.contains(&7));
        for r in &reports {
            assert!(
                r.distance_to_global < 1e-4,
                "worker {} should end on the PS state, distance {}",
                r.worker,
                r.distance_to_global
            );
        }
    }

    #[test]
    fn simulator_bsp_trace_equals_the_threaded_bsp_trace() {
        use crate::conditions::{ClusterConditions, FaultEvent};
        use crate::config::RejoinPull;
        use selsync_tracelog::TraceGranularity;
        // Both backends run BSP as δ = 0 with every bit set, so their event logs
        // agree: the header (`BSP` and the fixed δ = 0 policy label), membership,
        // rejoin pulls and rounds.
        let mut c = cfg(0.0, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        c.rejoin_pull = RejoinPull::Scheduled;
        c.conditions = ClusterConditions::uniform().with_fault(FaultEvent::Crash {
            worker: 2,
            start: 5,
            rejoin: Some(15),
        });
        c.trace = TraceSink::capture(TraceGranularity::Full);
        crate::algorithms::run(&c);
        let sim_trace = c.trace.take_log();
        c.trace = TraceSink::capture(TraceGranularity::Full);
        run_threaded_selsync(&c);
        let threaded_trace = c.trace.take_log();
        assert!(sim_trace
            .events
            .iter()
            .any(|e| matches!(e, Event::RejoinPull { .. })));
        assert!(sim_trace
            .events
            .iter()
            .any(|e| matches!(e, Event::Round { round: 24, .. })));
        assert_eq!(sim_trace.encode(), threaded_trace.encode());
    }

    #[test]
    fn ps_outage_schedule_matches_the_simulator_and_degrades_rounds() {
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::TraceGranularity;
        // δ = 0 with an outage window: rounds 8..12 degrade to local in both
        // backends, the catch-up sync fires at 12, and the schedules agree.
        let mut c = cfg(0.0, 3);
        c.ps_faults = Some(PsFaultSpec {
            seed: 5,
            windows: vec![(8, 4)],
            flaky: 0.0,
        });
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let sim = crate::algorithms::run(&c);
        let sim_trace = c.trace.take_log();
        c.trace = TraceSink::capture(TraceGranularity::Full);
        let reports = run_threaded_selsync(&c);
        let threaded_trace = c.trace.take_log();
        for r in &reports {
            assert_eq!(r.local_steps, 4, "worker {} outage rounds", r.worker);
            assert_eq!(
                r.sync_rounds, sim.sync_rounds,
                "worker {} diverged",
                r.worker
            );
        }
        assert_eq!(sim_trace.encode(), threaded_trace.encode());
    }

    #[test]
    fn threaded_kill_and_resume_reproduces_the_uninterrupted_run() {
        use crate::config::CheckpointSpec;
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::TraceGranularity;
        let dir = std::env::temp_dir().join(format!(
            "selsync-threaded-resume-test-{}",
            std::process::id()
        ));
        let make = || {
            let mut c = cfg(0.05, 3);
            // The outage window straddles the kill round, and the adaptive policy
            // carries cross-round state through it.
            c.ps_faults = Some(PsFaultSpec {
                seed: 11,
                windows: vec![(9, 3)],
                flaky: 0.0,
            });
            c.delta_policy = Some(PolicySpec::adaptive_default());
            c.trace = TraceSink::capture(TraceGranularity::Full);
            c
        };
        let full_cfg = make();
        let full = run_threaded_selsync(&full_cfg);
        let full_trace = full_cfg.trace.take_log().encode();

        let mut killed_cfg = make();
        killed_cfg.checkpoint = Some(CheckpointSpec {
            every: 5,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: Some(10),
            keep: None,
        });
        let _halted = run_threaded_selsync(&killed_cfg);
        let ckpt = Checkpoint::read_file(dir.join("ckpt-10")).expect("checkpoint reads back");
        assert_eq!(ckpt.backend, "threaded");
        assert!(dir.join("ckpt-4").exists(), "cadence checkpoint at round 4");

        let resumed_cfg = make();
        let resumed = run_threaded_selsync_resumed(&resumed_cfg, &ckpt);
        assert_eq!(resumed_cfg.trace.take_log().encode(), full_trace);
        for (a, b) in full.iter().zip(resumed.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A drop/corrupt schedule whose seed (searched deterministically) evicts
    /// exactly one worker strictly inside the run, so the pre- and post-eviction
    /// regimes are both exercised.
    fn mid_run_evicting_spec(c: &TrainConfig) -> selsync_comm::faults::CommFaultSpec {
        use selsync_comm::faults::CommFaultSpec;
        let spec_for = |seed| CommFaultSpec {
            seed,
            drop: 0.05,
            duplicate: 0.0,
            corrupt: 0.01,
            delay: 0.0,
            delay_rounds: 0,
            retry_budget: 2,
            timeout_s: 1e-3,
        };
        let seed = (0..500)
            .find(|&seed| {
                let mut probe = c.clone();
                probe.comm_faults = Some(spec_for(seed));
                let evictions = probe.comm_fault_evictions();
                evictions.len() == 1 && (3..20).contains(&evictions[0].1)
            })
            .expect("some seed in 0..500 evicts exactly one worker mid-run");
        spec_for(seed)
    }

    #[test]
    fn comm_fault_eviction_is_report_identical_to_the_equivalent_scheduled_crash() {
        // An eviction compiled from the fault schedule must behave exactly like a
        // scheduled no-rejoin crash at the same round: a run with the weather and
        // a fault-free run with the pre-compiled crash produce identical reports.
        let mut c = cfg(0.05, 3);
        c.comm_faults = Some(mid_run_evicting_spec(&c));
        let faulty = run_threaded_selsync(&c);
        let mut crashed = c.clone();
        crashed.conditions = c.effective_conditions();
        crashed.comm_faults = None;
        let clean = run_threaded_selsync(&crashed);
        for (a, b) in faulty.iter().zip(clean.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn duplicate_and_delay_weather_is_report_identical_to_lossless() {
        use selsync_comm::faults::CommFaultSpec;
        // Duplicates are absorbed by envelope-id dedupe and delays only reorder
        // delivery, so a drop/corrupt-free schedule changes nothing observable.
        let mut c = cfg(0.05, 3);
        c.comm_faults = Some(CommFaultSpec {
            seed: 9,
            drop: 0.0,
            duplicate: 0.4,
            corrupt: 0.0,
            delay: 0.3,
            delay_rounds: 0,
            retry_budget: 3,
            timeout_s: 1e-3,
        });
        assert!(c.comm_fault_evictions().is_empty());
        let faulty = run_threaded_selsync(&c);
        let mut lossless = c.clone();
        lossless.comm_faults = None;
        let clean = run_threaded_selsync(&lossless);
        for (a, b) in faulty.iter().zip(clean.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn faulty_runs_match_the_simulator_restricted_to_effective_presence() {
        let mut c = cfg(0.05, 3);
        c.comm_faults = Some(mid_run_evicting_spec(&c));
        let sim = crate::algorithms::run(&c);
        let reports = run_threaded_selsync(&c);
        let effective = c.effective_conditions();
        for r in &reports {
            let expected: Vec<usize> = sim
                .sync_rounds
                .iter()
                .copied()
                .filter(|&round| effective.is_present(r.worker, round))
                .collect();
            assert_eq!(
                r.sync_rounds, expected,
                "worker {} diverged from the simulator under comm faults",
                r.worker
            );
        }
        // Reruns reproduce the same reports bit-for-bit.
        let again = run_threaded_selsync(&c);
        for (a, b) in reports.iter().zip(again.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }
}
