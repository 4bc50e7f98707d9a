//! The round of Alg. 1, written once for every backend: batch → forward/backward →
//! `Δ(g_i)` → 1-bit status all-gather → push/pull or local apply.
//!
//! [`run_group`] is a replica group's whole run. A group is a [`Simulator`]: all W
//! replicas in the simulator, one on a cluster backend (a worker thread or process).
//! What it shares with the rest of the cluster — parameter server, collectives,
//! δ-policy, checkpoint writer — it reaches through a [`ClusterLink`]: every op takes
//! the group's values and returns the cluster's answer. The simulator's link
//! (`algorithms::selsync`) folds them in memory.
//! A cluster worker's link is [`WorkerLink`], one for both cluster backends: it sends
//! each op's envelope, then hands the op to `ClusterCore::serve` over a [`Reach`] —
//! a direct call from a worker thread ([`crate::threaded`]), one RPC to the hub that
//! makes that call from a worker process ([`crate::process`]). The loop and the link
//! are monomorphised per reach, so a threaded round still makes direct calls.
//!
//! What a group does *to its own replicas* are the phases of
//! [`crate::replica::Replica`]. What is decided here and nowhere else is the order of
//! a round's link ops between them, and which of them the run's [`SyncRule`] asks for.

use crate::aggregation::AggregationMode;
use crate::checkpoint::{self, Checkpoint, Deposit};
use crate::config::TrainConfig;
use crate::policy::{DeltaPolicy, PolicySpec, RoundSignal, SyncPolicy, SyncRule};
use crate::process::{Floats, Op, Reply};
use crate::sim::{RoundOutput, Simulator};
use crate::threaded::{Status, ThreadedWorkerReport};
use crate::tracing;
use selsync_comm::wire::MsgKind;
use selsync_comm::{CommFaultSchedule, MessageLayer, PsExchangeError, Transport};
use selsync_tracelog::{Event, EventLog};

/// A replica group's view of the cluster's shared state. Each op takes the group's
/// values for round `it` and returns the cluster's answer; on a cluster backend it
/// blocks until the round's other present workers have made the matching call.
/// `expected` is the round's present-worker count. The defaults are the ops only one
/// kind of link has.
pub(crate) trait ClusterLink {
    /// Whether the group dies abruptly at the top of round `it` (a kill switch).
    fn dies_at(&self, _it: usize) -> bool {
        false
    }
    /// Announce round `it`; returns the cluster's runtime evictions so far, frozen for
    /// the round, as `(worker, first-absent round)`.
    fn round_begin(&mut self, _it: usize) -> Vec<(usize, usize)> {
        Vec::new()
    }
    /// The doomed exchange of member `worker` at the round the link weather evicts it.
    fn farewell(&mut self, _it: usize, _worker: usize) {}
    /// The model member `worker` pulls when it rejoins at round `it`.
    fn rejoin_pull(&mut self, it: usize, worker: usize) -> Vec<f32>;
    /// The round of the last synchronization before `it` (`None`: the initial global).
    fn scheduled_round_before(&self, it: usize) -> Option<usize>;
    /// The δ-signal exchange: the cluster's mean loss, maximum `Δ(g_i)` and Δ moments
    /// from the group's `round`, folded in worker order (`synced` is left unset) — the
    /// group's own fold when the group is the cluster.
    fn signals(&mut self, it: usize, round: &RoundOutput, _expected: usize) -> RoundSignal {
        round.signal(it, false)
    }
    /// The cluster's δ for round `it`, once every earlier active round is observed.
    fn delta_for(&mut self, it: usize) -> f32;
    /// The status all-gather among `present`: the group's bits in, at their worker
    /// positions, and the cluster's full-width bits out. At a PS-down round the op's
    /// envelope is the probe that discovers the outage. `pending` is the round's
    /// unsynchronized signal and next active round, from the group that emits the
    /// round (`None` elsewhere). A cluster link observes it right here when no bit
    /// is set and returns `true`; otherwise [`Self::observe`] posts the round later.
    fn status(
        &mut self,
        it: usize,
        present: &[usize],
        flags: Vec<bool>,
        pending: Option<(RoundSignal, usize)>,
    ) -> (Vec<bool>, bool);
    /// Push the group's `contributions`, pull their worker-order mean into `mean`.
    fn sync(&mut self, it: usize, contributions: &[&[f32]], expected: usize, mean: &mut Vec<f32>);
    /// Round `it`'s synchronized `global`. A hub's PS recorded it in [`Self::sync`]
    /// already; the in-memory PS records it here.
    fn commit(&mut self, _it: usize, _global: &[f32]) {}
    /// Post the completed round's cluster signal; the policy advances to `next_round`.
    fn observe(&mut self, signal: RoundSignal, next_round: usize);
    /// Take part in the recovery image after round `it`; returns once it is written.
    fn checkpoint(&mut self, it: usize, group: &Simulator);
    /// The round is over: the step's count and evaluation, given the round the group
    /// ran and whether it synchronized (`None`: the group sat it out).
    fn round_done(
        &mut self,
        _it: usize,
        _group: &mut Simulator,
        _present: &[usize],
        _round: Option<(&RoundOutput, bool)>,
    ) {
    }
    /// The PS's global vector once the cluster has observed every active round before
    /// `end` (`0`: at once). A worker that finishes before the others passes the end
    /// of its run, so it reads the global the run ends on, not whatever the others have
    /// synchronized so far.
    fn pull(&self, end: usize) -> Vec<f32>;
}

/// The δ-policy a run of `cfg` under `spec` starts with, restored from `resume` when
/// given (panics unless [`Checkpoint::check_resumable`]: resuming under a different
/// config is always a bug), and the start of its trace: the header on a fresh run, the
/// image's trace prefix — which already contains it — on a resumed one.
pub(crate) fn open_run(
    cfg: &TrainConfig,
    spec: &PolicySpec,
    resume: Option<&Checkpoint>,
) -> Box<dyn DeltaPolicy> {
    let mut policy = spec.build();
    match resume {
        Some(ckpt) => {
            ckpt.check_resumable(cfg).unwrap_or_else(|e| panic!("{e}"));
            ckpt.preload_trace(&cfg.trace);
            policy.import_state(&ckpt.board_state());
        }
        None => {
            let label = crate::algorithms::selsync::algorithm_label(cfg);
            tracing::emit_header(&cfg.trace, cfg, &label, &spec.label());
        }
    }
    policy
}

/// Run `group`'s rounds of `cfg` under `rule` and the δ-policy `spec` over `link`,
/// from the recovery image `resume` (any backend's) when given. Returns `None` when
/// the group died (the link's kill switch), otherwise the end of the cluster's run:
/// the iteration count, or the round after the halt when it halted after a
/// checkpoint.
pub(crate) fn run_group<L: ClusterLink>(
    cfg: &TrainConfig,
    (rule, spec): (SyncRule, &PolicySpec),
    group: &mut Simulator,
    link: &mut L,
    resume: Option<&Checkpoint>,
) -> Option<usize> {
    let (n, exchange_signals) = (cfg.workers, spec.consumes_round_signals());
    let start = resume.map_or(0, |ckpt| {
        group.restore_checkpoint(ckpt);
        ckpt.round + 1
    });
    // PS availability: a pure function of `(spec, round)`, so every backend sees the
    // same outage windows. Outages ride the status exchange, so only rules that
    // exchange their bits meet them.
    let ps_schedule = cfg.ps_fault_schedule().filter(|_| rule.exchanges_status());
    let (ps, sink) = (ps_schedule.as_ref(), &cfg.trace);
    let (mut steps, mut mean, mut known_evictions) = (Vec::new(), Vec::new(), 0);
    for it in start..cfg.iterations {
        if link.dies_at(it) {
            return None;
        }
        if (0..n).any(|w| group.hosts(w) && group.cfg.conditions.is_present(w, it)) {
            // Round-boundary barrier: learn the frozen eviction prefix and fold any
            // entry not seen yet, so every live worker derives the same membership.
            let evictions = link.round_begin(it);
            if evictions.len() > known_evictions {
                group.fold_evictions(&evictions[known_evictions..], it);
                known_evictions = evictions.len();
            }
        }
        let present = group.present_workers(it);
        // Evictions fire whether or not the remaining round is runnable: the evicted
        // member runs its doomed exchange for real — the layer must agree with the
        // precomputed membership — then falls out of the cluster for good.
        for &(worker, _) in group.evictions.iter().filter(|e| e.1 == it) {
            if group.hosts(worker) {
                link.farewell(it, worker);
                sink.record(Event::CommEvict { round: it, worker });
            }
        }
        group.plan_round(&present, &mut steps);
        // A group with no member present sits the round out: no compute, no
        // collectives. Every live worker derives the same membership from the
        // schedule, so the round-keyed rendezvous stays consistent.
        let outcome = if steps.is_empty() {
            None
        } else {
            let lr = group.lr_at(it);
            for step in &steps {
                if rule.has_ps() && group.cfg.conditions.rejoins(step.worker, it) {
                    // Tracker and optimizer did not survive the crash; the policy,
                    // like the PS, is cluster state and untouched.
                    let pulled = link.rejoin_pull(it, step.worker);
                    let from = || link.scheduled_round_before(it);
                    tracing::emit_rejoin_pull(cfg, it, step.worker, from);
                    group.replica_mut(step.worker).rejoin(&pulled);
                }
            }
            let gradient = rule.aggregation() == AggregationMode::Gradient;
            let round = if gradient {
                group.run_round(&steps)
            } else {
                // Alg. 1 line 9: the local update comes first, in the compute phase's
                // own sweep; parameter aggregation then averages its result.
                group.step_round(&steps, lr)
            };
            // PS outage: the round degrades to forced-local. The status exchange
            // probes the outage, the signal exchange and the sync (all PS-bound) are
            // skipped, and the δ policy is fed the lowest-ranked present worker's
            // local signal, so regime state stays coherent through the outage.
            let down = ps.is_some_and(|s| s.down(it as u64));
            let exchanged = exchange_signals && !down;
            let mut signal = if exchanged {
                link.signals(it, &round, present.len())
            } else if down {
                tracing::degraded_signal(it, round.stats[0].loss, round.deltas[0])
            } else {
                // Signal-blind policies discard their observations: the group's own
                // fold stands in for the cluster's.
                round.signal(it, false)
            };
            let delta = link.delta_for(it);
            let mut flags = vec![false; n];
            if !down {
                let bits = rule.flags(it, SyncPolicy::new(delta), &round.deltas);
                // The first reachable round after an outage runs the catch-up sync:
                // every bit is forced, so the accumulated local-only deltas reconcile
                // through the ordinary aggregation path.
                let catchup = ps.is_some_and(|s| s.outage_ends(it as u64));
                for (step, bit) in steps.iter().zip(bits) {
                    flags[step.worker] = bit || catchup;
                }
            }
            // One emitter per round: the group of the lowest-ranked present worker
            // logs the round's events and feeds the policy. A local round's signal is
            // final before the status all-gather, so a cluster observes it there.
            let emitter = present[0] == steps[0].worker;
            let next = group
                .cfg
                .conditions
                .next_active_iteration(n, it + 1, cfg.iterations);
            let mut observed = false;
            if rule.exchanges_status() {
                let pending = emitter.then_some((signal, next));
                (flags, observed) = link.status(it, &present, flags, pending);
            }
            signal.synced = flags.iter().any(|&f| f);
            if signal.synced {
                // Who contributes is drawn after the compute phase, on sync rounds only.
                let contributors = rule.contributors(&present, &mut group.rng);
                if gradient {
                    // Gradients are averaged and applied by every worker to its own
                    // replica (simulator only: the group is the cluster). Replicas stay
                    // diverged, so the global is the present replicas' average.
                    let grads: Vec<&[f32]> =
                        group.round_grads().iter().map(Vec::as_slice).collect();
                    link.sync(it, &grads, present.len(), &mut mean);
                    group.apply_round_shared(&present, &mean, lr);
                    group.average_params_of_into(&present, &mut mean);
                } else {
                    // Alg. 1 lines 14–15: push parameters, pull their average.
                    let mine = contributors.iter().filter(|&&w| group.hosts(w));
                    let replicas = mine.map(|&w| &group.workers[w - group.first]);
                    let params: Vec<&[f32]> = replicas.map(|r| r.params.as_slice()).collect();
                    link.sync(it, &params, present.len(), &mut mean);
                    for step in &steps {
                        group.replica_mut(step.worker).apply_sync(it, &mean);
                    }
                }
                link.commit(it, &mean);
            } else if gradient {
                group.apply_round_own(&steps, lr);
            }
            if emitter {
                // Canonical sorting in the sink erases any cross-worker interleaving
                // of the events. A round the status all-gather did not observe is
                // posted here: every present worker has passed the all-gather, so no
                // one still waits on this round's δ, and a synchronized global is
                // already in the snapshot ring a scheduled rejoin pull reads.
                tracing::emit_round_context(sink, &group.cfg.conditions, n, it, &present);
                if down {
                    tracing::degraded_round(sink, ps, &signal, delta);
                } else {
                    // The event keeps present-worker order.
                    let bits = present.iter().map(|&w| flags[w]);
                    tracing::emit_round(sink, ps, &signal, exchanged, delta, bits);
                }
                if !observed {
                    link.observe(signal, next);
                }
            }
            Some((round, signal.synced))
        };
        link.round_done(it, group, &present, outcome.as_ref().map(|(r, s)| (r, *s)));
        // Checkpoint participation: every group — present or absent — takes part in
        // a due image and parks until it is written. Nothing is written at
        // whole-cluster-absent rounds, and the kill switch cannot fire there.
        if let Some(ck) = cfg.checkpoint.as_ref().filter(|_| !present.is_empty()) {
            if ck.due(it) || ck.halt_after == Some(it) {
                link.checkpoint(it, group);
            }
            if ck.halt_after == Some(it) {
                return Some(it + 1);
            }
        }
    }
    Some(cfg.iterations)
}

/// A cluster worker's run: worker `group`'s rounds of `cfg` over `link`, from the
/// recovery image `resume` (any backend's: [`Checkpoint::check_resumable`]) when given.
pub(crate) fn run_worker<L: ClusterLink>(
    cfg: &TrainConfig,
    run: (SyncRule, &PolicySpec),
    mut group: Simulator,
    link: &mut L,
    resume: Option<&Checkpoint>,
) -> ThreadedWorkerReport {
    // Every worker starts from the global on the PS (pullFromPS, Alg. 1 line 3); the
    // request also identifies a worker process to its hub before any round.
    group.workers[0].params = link.pull(0);
    let end = run_group(cfg, run, &mut group, link, resume);
    let replica = group.workers.pop().expect("a worker is a group of one");
    // A killed worker dies right here — no final pull, no farewell. Its report never
    // reaches an orchestrator (the process is gone); the in-process tests that drive
    // the kill through `WorkerOptions` just discard it. A worker absent at the last
    // rounds gets here early, and its pull waits for the cluster to finish them.
    let distance_to_global = match end {
        Some(end) => {
            let global = link.pull(end);
            let pairs = replica.params.iter().zip(&global);
            pairs.map(|(a, b)| (a - b).powi(2)).sum::<f32>().sqrt()
        }
        None => f32::NAN,
    };
    ThreadedWorkerReport {
        worker: group.first,
        sync_steps: replica.sync_rounds.len() as u64,
        local_steps: replica.local_steps(),
        sync_rounds: replica.sync_rounds,
        final_loss: replica.last_loss,
        distance_to_global,
    }
}

/// How a cluster worker's link reaches `ClusterCore::serve`: a worker thread calls it
/// in-process, with no bytes; a worker process encodes the op, makes one RPC to the
/// hub that serves it and decodes the reply.
pub(crate) trait Reach {
    /// Serve `worker`'s `op` for round `it`, and hand the reply to `read` where it lies.
    fn call<T>(&self, worker: usize, it: usize, op: Op, read: impl FnOnce(Reply) -> T) -> T;
    /// The trace shard a checkpoint deposit carries: none from a worker that records
    /// into the cluster's one sink.
    fn shard(&self, _cfg: &TrainConfig) -> EventLog {
        EventLog::default()
    }
    /// Whether the worker dies abruptly at the top of round `it` (a kill switch).
    fn dies_at(&self, _it: usize) -> bool {
        false
    }
}

/// A cluster worker's [`ClusterLink`], on either cluster backend: each op's envelope
/// on the message layer — request out, hub ack back, bounded retry — then the op
/// itself, through `reach`. A worker present at a round always lands its envelopes
/// within its budget (exhaustion would have evicted it from the round's membership),
/// so a failed one is a schedule/layer disagreement, not a recoverable condition.
pub(crate) struct WorkerLink<'a, R> {
    cfg: &'a TrainConfig,
    layer: &'a MessageLayer,
    worker: usize,
    reach: R,
    /// The next active round and its δ, as the last status all-gather that observed
    /// its round answered them.
    next_delta: Option<(usize, f32)>,
}

impl<'a, R: Reach> WorkerLink<'a, R> {
    pub(crate) fn new(
        cfg: &'a TrainConfig,
        layer: &'a MessageLayer,
        worker: usize,
        reach: R,
    ) -> Self {
        let next_delta = None;
        WorkerLink {
            cfg,
            layer,
            worker,
            reach,
            next_delta,
        }
    }

    /// `op`'s reply, as `read` takes it.
    fn call<T>(&self, it: usize, op: Op, read: impl FnOnce(Reply) -> T) -> T {
        self.reach.call(self.worker, it, op, read)
    }

    /// One envelope; returns its attempt count, shared by every op this worker performs
    /// this round (link weather is per `(worker, round, attempt, leg)`, not per kind).
    fn send(&self, it: usize, kind: MsgKind, payload: &[u8]) -> u32 {
        let worker = self.worker;
        let outcome = self.layer.exchange(worker, it as u64, kind, payload);
        let failed = |e| panic!("present worker {worker} failed a comm op at round {it}: {e}");
        outcome.unwrap_or_else(failed).attempts
    }
}

impl<R: Reach> ClusterLink for WorkerLink<'_, R> {
    fn dies_at(&self, it: usize) -> bool {
        self.reach.dies_at(it)
    }

    fn round_begin(&mut self, it: usize) -> Vec<(usize, usize)> {
        self.call(it, Op::RoundBegin(), |reply| reply.into())
    }

    /// The exchange the fault schedule drives past this worker's retry budget.
    fn farewell(&mut self, it: usize, _worker: usize) {
        let worker = self.worker;
        let farewell = self.layer.exchange(worker, it as u64, MsgKind::Flags, &[0]);
        assert!(
            farewell.is_err(),
            "worker {worker} was precomputed as evicted at round {it} but its exchange succeeded"
        );
    }

    /// At a PS-down round the request's envelope is skipped — there is no server to
    /// ack it — while the data-plane pull stays.
    fn rejoin_pull(&mut self, it: usize, _worker: usize) -> Vec<f32> {
        if !self.layer.ps_down(it as u64) {
            self.send(it, MsgKind::Pull, &(it as u64).to_le_bytes());
        }
        self.call(it, Op::RejoinPull(), |reply| Floats::from(reply).into_vec())
    }

    fn scheduled_round_before(&self, it: usize) -> Option<usize> {
        self.call(it, Op::SchedRoundBefore(), |reply| reply.into())
    }

    /// Both signal scalars ride one envelope (the envelope id is (kind, round, sender),
    /// so a second `ScalarReduce` would be dropped as a duplicate), the Δ moments
    /// their own.
    fn signals(&mut self, it: usize, round: &RoundOutput, expected: usize) -> RoundSignal {
        let (loss, delta) = (round.stats[0].loss, round.deltas[0]);
        let pair = |a: f32, b: f32| [a.to_le_bytes(), b.to_le_bytes()].concat();
        self.send(it, MsgKind::ScalarReduce, &pair(loss, delta));
        self.send(it, MsgKind::VecReduce, &pair(delta, delta * delta));
        let op = Op::Signals(loss, delta, expected as u32);
        self.call(it, op, |reply| RoundSignal::of(it, reply.into()))
    }

    /// The δ the last observing status all-gather answered, when it is this round's;
    /// otherwise (the first round, a resumed run, the round after a sync, a worker
    /// that sat rounds out) the board's.
    fn delta_for(&mut self, it: usize) -> f32 {
        match self.next_delta.take() {
            Some((next, delta)) if next == it => delta,
            _ => self.call(it, Op::DeltaFor(), |reply| reply.into()),
        }
    }

    /// The status bit's envelope logs its retries: one event per (worker, round). At
    /// a PS-down round it is the probe that discovers the outage and fails fast.
    fn status(
        &mut self,
        it: usize,
        present: &[usize],
        flags: Vec<bool>,
        pending: Option<(RoundSignal, usize)>,
    ) -> (Vec<bool>, bool) {
        let (worker, round, flag) = (self.worker, it as u64, flags[self.worker]);
        if self.layer.ps_down(round) {
            let probe =
                (self.layer).ps_exchange(worker, round, MsgKind::Pull, &round.to_le_bytes());
            assert!(
                matches!(probe, Err(PsExchangeError::Down { .. })),
                "the PS availability schedule and the layer's gate disagree at round {it}"
            );
        } else {
            let attempts = self.send(it, MsgKind::Flags, &[flag as u8]);
            tracing::comm_retry(&self.cfg.trace, it, worker, attempts);
        }
        let pending = pending.map(|(signal, next)| (signal.values(), next as u64));
        let expected = present.len() as u32;
        let op = Op::Status(flag, expected, pending);
        let Status { flags, next } = self.call(it, op, |reply| reply.into());
        self.next_delta = next;
        (flags, next.is_some())
    }

    /// The envelope announces the parameter byte count; the parameters themselves
    /// travel in the op.
    fn sync(&mut self, it: usize, contributions: &[&[f32]], expected: usize, mean: &mut Vec<f32>) {
        let params = contributions[0];
        self.send(
            it,
            MsgKind::SyncRound,
            &((params.len() * 4) as u64).to_le_bytes(),
        );
        let op = Op::SyncRound(expected as u32, Floats::Slice(params));
        self.call(it, op, |reply| Floats::from(reply).read_into(mean))
    }

    fn observe(&mut self, signal: RoundSignal, next_round: usize) {
        let op = Op::Observe(signal.values(), signal.synced, next_round as u64);
        self.call(signal.iteration, op, |_| ())
    }

    /// Deposits the worker's section, with the trace shard its reach ships, and parks
    /// until the round's image is written (or voided).
    fn checkpoint(&mut self, it: usize, group: &Simulator) {
        let deposit = Deposit {
            round: it,
            fingerprint: checkpoint::config_fingerprint(self.cfg),
            section: group.workers[0].section(self.worker),
            shard: self.reach.shard(self.cfg),
        };
        self.call(it, Op::CkptDeposit(deposit), |_| ())
    }

    /// Frame round `u64::MAX`: the pull belongs to no round.
    fn pull(&self, end: usize) -> Vec<f32> {
        let op = Op::Pull(end as u64);
        self.call(usize::MAX, op, |reply| Floats::from(reply).into_vec())
    }
}

/// The message layer a cluster worker's envelopes ride over `transport`: one attempt
/// and intact delivery without `[comm_faults]`, that schedule's weather composed over
/// it with retry, timeout and eviction otherwise. With a `[ps_faults]` schedule,
/// PS-bound envelopes fail fast at down rounds and the workers degrade to local-only
/// rounds.
pub(crate) fn message_layer(cfg: &TrainConfig, transport: Box<dyn Transport>) -> MessageLayer {
    let layer = match cfg.comm_faults.map(CommFaultSchedule::new) {
        Some(schedule) => MessageLayer::faulty_over(schedule, transport),
        None => MessageLayer::over(transport, 1),
    };
    match cfg.ps_fault_schedule() {
        Some(schedule) => layer.with_ps_outages(schedule),
        None => layer,
    }
}
