//! Thread-per-worker driver over the real parameter server and collectives of
//! [`selsync_comm`]. It reports metrics but not simulated time (wall-clock on the host
//! is meaningless for the paper's comparisons).
//!
//! Each thread runs `crate::worker::run_group` over a replica group of one: the loop
//! the simulator runs over all W replicas and a process worker over one. Datasets,
//! traversals, optimizer, learning-rate schedule, `Δ(g_i)` tracker and dropout-stream
//! positions are therefore the simulator's by construction, and synchronization
//! averages are combined in **worker-id order** by the round-keyed elastic rendezvous
//! ([`selsync_comm::rounds`]), bit-identical to the simulator's in-memory folds. So
//! the threaded cluster's event log and synchronization schedule (`sync_rounds`)
//! equal the simulator's. This module holds the shared cluster state (`ClusterCore`)
//! and `ClusterCore::serve`, the one place a worker's op meets it. A worker thread
//! runs `crate::worker::WorkerLink` and reaches `serve` by a direct call; a worker
//! process runs the same link and reaches it through the hub, which builds,
//! serves and checkpoints the very same state. The checkpoint round: every thread
//! deposits its section in one round-keyed rendezvous, whose last depositor writes
//! the image.
//!
//! A rejoining worker restarts its tracker and optimizer and pulls the global of the
//! last *scheduled* synchronization before its rejoin round, from the PS's
//! round-keyed snapshot ring ([`selsync_comm::ParameterServer::scheduled_global_before`],
//! kept exactly when the schedule has a rejoin): what the simulator's rejoin pull
//! reads, however far the live workers have raced ahead. So parity holds for
//! crash/rejoin schedules too.
//!
//! The cluster runs **one** shared instance of the δ-policy, the `SignalBoard`,
//! which orders observations by round id. Its signal stream, and so every threshold,
//! is the simulator's for fixed, scheduled and adaptive policies alike.

use crate::checkpoint::{Checkpoint, Section};
use crate::conditions::ClusterConditions;
use crate::config::TrainConfig;
use crate::policy::{DeltaPolicy, PolicySpec, RoundSignal};
use crate::process::{Floats, Op, Reply};
use crate::sim::Simulator;
use crate::worker::{message_layer, open_run, run_worker, Reach, WorkerLink};
use parking_lot::{Condvar, Mutex, MutexGuard};
use selsync_comm::cluster::{make_handles, run_cluster_with, ClusterHandles};
use selsync_comm::rounds::ElasticRounds;
use selsync_comm::LosslessTransport;
use selsync_nn::model::PaperModel;
use selsync_tracelog::{EventLog, TraceSink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The cluster-level δ-policy shared by every worker thread — the threaded
/// counterpart of the single policy instance the simulator's SelSync driver owns.
///
/// Observations are strictly ordered by round id: [`Self::observe`] may only ingest
/// the signals of the oldest active round not yet observed, and [`Self::delta_for`]
/// blocks until every active round before the asked one has been observed. Combined
/// with the rendezvous structure of a round (the status all-gather cannot complete
/// until every present worker has fetched its δ, and the observation is posted no
/// earlier than that all-gather's combine — by the combine on a local round, by the
/// round's emitter after its sync otherwise), this makes the policy's signal
/// stream — and every threshold it produces — a pure function of the schedule,
/// independent of thread interleaving.
pub(crate) struct SignalBoard {
    state: Mutex<BoardState>,
    cv: Condvar,
    /// The run's trace sink: regime switches are policy-internal transitions, visible
    /// only at the observation point, so the board is the one place that can log them.
    trace: TraceSink,
}

pub(crate) struct BoardState {
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
    pub(crate) fn wait_caught_up(&self, iteration: usize) -> MutexGuard<'_, BoardState> {
        let mut s = self.state.lock();
        while s.next_observe < iteration {
            self.cv.wait(&mut s);
        }
        s
    }

    /// The δ in effect for the round at `iteration`, once caught up. The round's own
    /// signals cannot have been observed yet (the observation is posted no earlier than
    /// the round's status all-gather closes, which this call precedes on every present
    /// worker), so a request that finds them observed is refused.
    pub(crate) fn delta_for(&self, iteration: usize) -> Result<f32, String> {
        let s = self.wait_caught_up(iteration);
        ensure!(s.next_observe == iteration, "round {iteration} observed");
        Ok(s.policy.delta(iteration))
    }

    /// Ingest the completed round's cluster-level signals and advance the board to
    /// `next_round` (the next active round, or the iteration count); returns the δ in
    /// effect for `next_round`. Called once per round — for the lowest-ranked present
    /// worker — strictly in round order: any other round's signals are refused.
    pub(crate) fn observe(&self, signal: RoundSignal, next_round: usize) -> Result<f32, String> {
        let mut s = self.state.lock();
        let (round, next) = (signal.iteration, s.next_observe);
        ensure!(round == next, "round {round} observed before {next}");
        s.policy.observe(&signal);
        crate::tracing::regime_switch(&self.trace, s.policy.as_ref(), &signal);
        s.next_observe = next_round;
        self.cv.notify_all();
        Ok(s.policy.delta(next_round))
    }
}

/// What round `it`'s status all-gather hands a participant: the present workers' bits
/// at their worker positions; when none is set, the next active round and its δ — the
/// all-gather observed the local round; and the release of round `it + 1`'s membership
/// barrier, when the all-gather also was that barrier.
#[derive(Debug, Clone)]
pub(crate) struct Status {
    pub(crate) flags: Vec<bool>,
    pub(crate) next: Option<(usize, f32)>,
    /// Round `it + 1`'s frozen eviction prefix, on a hub's reply to a worker that
    /// announced that round, when every base-present worker of it did so in this
    /// all-gather. Threads hold no barrier, so they never get one.
    pub(crate) release: Option<Vec<(usize, usize)>>,
}

/// A served op's reply, or the reason it is refused.
pub(crate) type Served = Result<Reply<'static>, String>;

/// A `STATUS` request's fields but its count, as on the wire: the worker's bit, whether
/// it announces the next round, and the emitter's signal values and next active round.
pub(crate) type StatusFields = (bool, bool, Option<([f32; 4], u64)>);

/// One worker's part of a status all-gather: its bit, whether it announces the next
/// round, and the round's unsynchronized signal and next active round when it emits
/// the round.
type StatusBit = (bool, bool, Option<(RoundSignal, usize)>);

/// The cluster's shared state — parameter server, the status, signal and checkpoint
/// rendezvous, the δ-policy signal board — set up (fresh or from a recovery image)
/// and checkpointed the same way by both cluster backends, and served to their
/// workers by [`Self::serve`]: a thread calls it directly, the process hub on its
/// workers' behalf.
pub(crate) struct ClusterCore {
    pub(crate) cfg: TrainConfig,
    pub(crate) handles: ClusterHandles,
    /// One rendezvous per round for the present workers' status bits: the status and
    /// whether every base-present worker of the next round announced it there.
    status_rounds: ElasticRounds<StatusBit, (Status, bool)>,
    /// One rendezvous per round for the present workers' `(loss, Δ(g_i))` pairs.
    signal_rounds: ElasticRounds<(f32, f32), RoundSignal>,
    /// Checkpoint rounds of worker threads, keyed by iteration: every thread deposits
    /// its section. A hub gathers its workers' deposits in its own ledger.
    checkpoints: ElasticRounds<Section, ()>,
    board: SignalBoard,
    /// The *base* effective membership schedule: scheduled crashes plus compiled
    /// comm-fault evictions.
    pub(crate) conditions: ClusterConditions,
    /// The first round the (possibly resumed) run executes.
    pub(crate) start: usize,
    /// The image a resume started from stays on disk whatever the retention says.
    protect: Option<usize>,
}

impl ClusterCore {
    /// Build the shared state for a run of `cfg` under the δ-policy `spec`, restored
    /// from the recovery image `resume` when given ([`open_run`], which also starts
    /// the run's trace). The PS starts from a freshly built model of the run.
    pub(crate) fn build(cfg: &TrainConfig, spec: &PolicySpec, resume: Option<&Checkpoint>) -> Self {
        let n = cfg.workers;
        let handles = make_handles(n, PaperModel::build(cfg.model, cfg.seed).params_flat());
        if let Some(depth) = cfg.snapshot_depth() {
            // Enabled before any worker starts (and replaced by a resume image's).
            handles.ps.enable_scheduled_snapshots(depth);
        }
        // One cluster-level policy instance for the whole run, seeded at the first
        // active round the run executes.
        let policy = open_run(cfg, spec, resume);
        if let Some(ckpt) = resume {
            // The PS — global vector, newest-global guard and snapshot ring — is
            // restored before any worker pulls from it.
            handles.ps.restore_state(&ckpt.ps_state());
        }
        let conditions = cfg.effective_conditions();
        let start = resume.map_or(0, |ckpt| ckpt.round + 1);
        let board = SignalBoard::new(
            policy,
            conditions.next_active_iteration(n, start, cfg.iterations),
            cfg.trace.clone(),
        );
        ClusterCore {
            cfg: cfg.clone(),
            handles,
            status_rounds: ElasticRounds::new(),
            signal_rounds: ElasticRounds::new(),
            checkpoints: ElasticRounds::new(),
            board,
            conditions,
            start,
            protect: resume.map(|ckpt| ckpt.round),
        }
    }

    /// Serve `worker`'s `op` for round `it`: the one place an op meets the cluster's
    /// state. Rendezvous ops block until the round's other present workers have made
    /// theirs. `ROUND_BEGIN` and `CKPT_DEPOSIT` are answered here for threads, which
    /// share one process: no connection can die, so there is no eviction to publish
    /// and no barrier to hold, and the last deposit writes the image. A hub answers
    /// both from its own ledger instead. `DELTA_FOR` and `OBSERVE` out of the board's
    /// round order are refused.
    pub(crate) fn serve(&self, worker: usize, it: usize, op: Op<'_>) -> Served {
        let (ps, round) = (&self.handles.ps, it as u64);
        let shared = |values| Reply::Floats(Floats::Shared(Arc::new(values)));
        Ok(match op {
            // Once the board has observed every active round before `end`, every
            // synchronization before it has reached the PS, whatever rounds the asking
            // worker sat out.
            Op::Pull(end) => {
                drop(self.board.wait_caught_up(end as usize));
                shared(ps.pull())
            }
            // The last scheduled synchronization's global, once every active round
            // before `it` has decided: the board advances only after a round's sync,
            // so the snapshot ring then holds every global this lookup can need.
            Op::RejoinPull() => {
                drop(self.board.wait_caught_up(it));
                shared(ps.scheduled_global_before(round))
            }
            Op::SchedRoundBefore() => {
                Reply::Round(ps.scheduled_round_before(round).map(|r| r as usize))
            }
            Op::SyncRound(expected, params) => {
                let fill = |buf: &mut Vec<f32>| params.read_into(buf);
                let mean = ps.sync_round_shared(round, worker, expected as usize, fill);
                Reply::Floats(Floats::Shared(mean))
            }
            Op::Status(flag, expected, pending, announce) => {
                let bit = (flag, announce, pending);
                Reply::Status(self.status(it, worker, bit, expected as usize).0)
            }
            Op::Signals(loss, delta, expected) => Reply::Signal(
                self.signals(it, worker, loss, delta, expected as usize)
                    .values(),
            ),
            Op::DeltaFor() => Reply::Delta(self.board.delta_for(it)?),
            Op::Observe(values, synced, next) => {
                let signal = RoundSignal {
                    synced,
                    ..RoundSignal::of(it, values)
                };
                self.board.observe(signal, next as usize)?;
                Reply::Done
            }
            Op::RoundBegin() => Reply::Evictions(Vec::new()),
            // Every thread, present or absent, deposits: the last one to arrive finds
            // the cluster quiescent and writes the image from the sections in worker
            // order. Threads record into this one sink, so no deposit carries a shard.
            Op::CkptDeposit(deposit) => {
                let write = |deposits: &mut [(usize, Section)]| {
                    let sections = deposits.iter_mut().map(|(_, s)| std::mem::take(s));
                    self.write_image("threaded", it, sections.collect(), Vec::new())
                };
                let n = self.cfg.workers;
                self.checkpoints
                    .run(round, worker, n, deposit.section, write);
                Reply::Done
            }
        })
    }

    /// `worker`'s side of round `it`'s status all-gather among the `expected` present
    /// workers: one round-keyed rendezvous over its `(flag, announce, pending)` wire
    /// fields. When no bit is set the round stays local and the emitter's `pending`
    /// signal is final, so the combine observes it and answers with the next active
    /// round's δ — the local round's last touch of the board. Otherwise the emitter
    /// observes the round after its sync. A board that refuses the signal leaves the
    /// round unobserved, and so will the emitter's own. The combine also answers
    /// whether every base-present worker of round `it + 1` announced it here: a pure
    /// function of the schedule and the announce bits, never of timing.
    pub(crate) fn status(
        &self,
        it: usize,
        worker: usize,
        (flag, announce, pending): StatusFields,
        expected: usize,
    ) -> (Status, bool) {
        let n = self.handles.world_size;
        let combine = |bits: &mut [(usize, StatusBit)]| {
            let mut flags = vec![false; n];
            let mut announced = vec![false; n];
            for &(w, (bit, announce, _)) in bits.iter() {
                (flags[w], announced[w]) = (bit, announce);
            }
            let next = (bits.iter().find_map(|&(_, (_, _, pending))| pending))
                .filter(|_| !flags.contains(&true))
                .and_then(|(signal, next)| Some((next, self.board.observe(signal, next).ok()?)));
            let begun = (0..n)
                .filter(|&w| self.conditions.is_present(w, it + 1))
                .all(|w| announced[w]);
            let status = Status {
                flags,
                next,
                release: None,
            };
            (status, begun)
        };
        let pending = pending.map(|(v, next)| (RoundSignal::of(it, v), next as usize));
        let bit = (flag, announce, pending);
        self.status_rounds
            .run(it as u64, worker, expected, bit, combine)
    }

    /// `worker`'s side of round `it`'s signal exchange among the `expected` present
    /// workers: one round-keyed rendezvous whose combine runs [`RoundSignal::fold`]
    /// over the `(loss, Δ(g_i))` pairs in worker-id order — the simulator's fold.
    pub(crate) fn signals(
        &self,
        it: usize,
        worker: usize,
        loss: f32,
        delta: f32,
        expected: usize,
    ) -> RoundSignal {
        let fold = |pairs: &mut [(usize, (f32, f32))]| {
            RoundSignal::fold(it, pairs.iter().map(|&(_, pair)| pair))
        };
        self.signal_rounds
            .run(it as u64, worker, expected, (loss, delta), fold)
    }

    /// Write the cluster's full recovery image after round `it`, tagged `backend`:
    /// the PS state (global vector, newest-global guard, snapshot ring), the shared
    /// δ-policy state, every worker's deposited section (worker order) and the trace
    /// prefix recorded so far — this process's sink merged with the `shards` of
    /// workers that record elsewhere. Runs at the checkpoint's quiescent point:
    /// every worker parked, the round's signals observed.
    pub(crate) fn write_image(
        &self,
        backend: &str,
        it: usize,
        sections: Vec<Section>,
        shards: Vec<EventLog>,
    ) {
        let cfg = &self.cfg;
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

/// A worker thread's reach: a direct call, with no bytes.
impl Reach for &ClusterCore {
    fn call<R>(
        &self,
        worker: usize,
        it: usize,
        op: Op<'_>,
        read: impl FnOnce(Reply<'_>) -> R,
    ) -> R {
        read(
            self.serve(worker, it, op)
                .expect("a worker thread's op is well-formed"),
        )
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
    /// The iterations at which this worker's rounds synchronized: the simulator's
    /// [`crate::report::RunReport::sync_rounds`] restricted to the rounds this worker
    /// was present at (crash/rejoin schedules included).
    pub sync_rounds: Vec<usize>,
    /// Final training loss observed by this worker.
    pub final_loss: f32,
    /// L2 distance between this worker's final parameters and the PS global vector
    /// the run ends on (0 after a final synchronization under parameter aggregation).
    /// A worker absent at the last rounds finishes early; its final pull waits until
    /// the cluster has observed every round of the run, so its distance is as
    /// deterministic as everyone else's.
    pub distance_to_global: f32,
}

/// Run SelSync (or BSP via δ=0) with one OS thread per worker over the real parameter
/// server and collectives. Returns one report per worker.
pub fn run_threaded_selsync(cfg: &TrainConfig) -> Vec<ThreadedWorkerReport> {
    run_threaded_inner(cfg, None)
}

/// Resume a threaded run from a durable checkpoint of the *same* configuration,
/// written by any backend. The resumed cluster continues from `ckpt.round + 1` and
/// produces the byte-identical trace and reports of the uninterrupted run.
pub fn run_threaded_selsync_resumed(
    cfg: &TrainConfig,
    ckpt: &Checkpoint,
) -> Vec<ThreadedWorkerReport> {
    run_threaded_inner(cfg, Some(ckpt))
}

fn run_threaded_inner(cfg: &TrainConfig, resume: Option<&Checkpoint>) -> Vec<ThreadedWorkerReport> {
    let (rule, spec) = crate::process::ensure_supported(cfg)
        .unwrap_or_else(|e| panic!("threaded driver: {} ({})", e.message, e.key));
    let core = ClusterCore::build(cfg, &spec, resume);
    let layer = message_layer(cfg, Box::new(LosslessTransport));
    // One dataset build for the whole cluster; every thread's group of one shares it.
    let (train, test) = crate::sim::build_datasets(cfg);
    let datasets = (Arc::new(train), Arc::new(test));
    let (core, layer) = (&core, &layer);
    run_cluster_with(core.handles.clone(), |worker, _| {
        let group = Simulator::group(cfg, &datasets, worker..worker + 1);
        let mut link = WorkerLink::new(cfg, layer, worker, core);
        run_worker(cfg, (rule, &spec), group, &mut link, resume)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlgorithmSpec;
    use crate::sim::RoundOutput;
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
    fn the_signal_rendezvous_folds_in_worker_order_like_the_simulator() {
        use selsync_nn::model::BatchStats;
        // With f32, (1e8 + 1.0) - 1e8 == 0 but (1e8 - 1e8) + 1.0 == 1.0, and
        // (4 + 4) + 1e8 != (1e8 + 4) + 4: the loss and Δ means depend on fold order.
        // Whatever order the threads arrive in, the cluster's one signal round must
        // equal the simulator's fold over the same pairs, bit for bit.
        let pairs = [(1e8f32, 4.0f32), (1.0, 4.0), (-1e8, 1e8)];
        let bits = |s: &RoundSignal| {
            let values = [s.max_delta, s.mean_loss, s.delta_mean, s.delta_sq_mean];
            (s.iteration, values.map(f32::to_bits), s.synced)
        };
        let core = ClusterCore::build(&cfg(0.05, 3), &PolicySpec::Fixed { delta: 0.05 }, None);
        // Every arrival order of all three workers, then a round worker 1 sits out.
        // Threads are staggered to arrive in the listed order; the fold must not
        // depend on whether they do.
        let mut rounds: Vec<Vec<usize>> = Vec::new();
        for first in 0..3 {
            for second in (0..3).filter(|&w| w != first) {
                rounds.push(vec![first, second, 3 - first - second]);
            }
        }
        rounds.push(vec![2, 0]);
        for (it, arrivals) in rounds.iter().enumerate() {
            let core = &core;
            let signals: Vec<RoundSignal> = std::thread::scope(|scope| {
                let joins: Vec<_> = arrivals
                    .iter()
                    .enumerate()
                    .map(|(order, &w)| {
                        scope.spawn(move || {
                            std::thread::sleep(std::time::Duration::from_millis(3 * order as u64));
                            let (loss, delta) = pairs[w];
                            core.signals(it, w, loss, delta, arrivals.len())
                        })
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            let mut present = arrivals.clone();
            present.sort_unstable();
            let round = RoundOutput {
                stats: present
                    .iter()
                    .map(|&w| BatchStats {
                        loss: pairs[w].0,
                        metric: 0.0,
                    })
                    .collect(),
                deltas: present.iter().map(|&w| pairs[w].1).collect(),
                max_delta: 0.0,
            };
            let want = bits(&round.signal(it, false));
            for signal in &signals {
                assert_eq!(bits(signal), want, "arrival order {arrivals:?}");
            }
        }
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
        // δ > 0 (mixed schedule) with a crash window: the rejoiner reads the last
        // scheduled global, so every worker's schedule must equal the simulator's
        // restricted to its present rounds.
        let mut c = cfg(0.05, 3);
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
        use selsync_tracelog::TraceGranularity;
        // Both backends run BSP as δ = 0 with every bit set, so their event logs
        // agree: the header (`BSP` and the fixed δ = 0 policy label), membership,
        // rejoin pulls and rounds.
        let mut c = cfg(0.0, 3);
        c.algorithm = AlgorithmSpec::Bsp;
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
    fn the_cluster_runs_bsp_as_selsync_at_delta_zero_and_so_meets_ps_outages() {
        use crate::aggregation::AggregationMode;
        use crate::policy::SyncRule;
        use selsync_comm::faults::PsFaultSpec;
        use selsync_tracelog::TraceGranularity;
        // The cluster backends admit BSP as SelSync's δ = 0 case: parameter averaging
        // after a status exchange, which rides the PS and so meets its outages. The
        // simulator's BSP averages gradients without an exchange and syncs through
        // the same outage for free (docs/SCENARIOS.md, "Semantics"). Closing that gap
        // is meant to change this test.
        let mut c = cfg(0.0, 3);
        c.algorithm = AlgorithmSpec::Bsp;
        let (rule, spec) = crate::process::ensure_supported(&c).expect("BSP is admitted");
        assert_eq!(rule, SyncRule::Selective(AggregationMode::Parameter));
        assert_eq!(spec, PolicySpec::Fixed { delta: 0.0 });
        c.ps_faults = Some(PsFaultSpec {
            seed: 5,
            windows: vec![(8, 4)],
            flaky: 0.0,
        });
        let kinds = |threaded: bool| {
            let mut c = c.clone();
            c.trace = TraceSink::capture(TraceGranularity::Full);
            if threaded {
                run_threaded_selsync(&c);
            } else {
                crate::algorithms::run(&c);
            }
            let log = c.trace.take_log();
            log.events.iter().map(|e| e.kind()).collect::<Vec<_>>()
        };
        let (threaded, sim) = (kinds(true), kinds(false));
        for kind in ["degraded_round", "catchup_sync"] {
            assert!(threaded.contains(&kind), "threaded BSP logs {kind}");
            assert!(!sim.contains(&kind), "simulated BSP logs no {kind}");
        }
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
