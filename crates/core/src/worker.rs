//! The SelSync worker round (Alg. 1 of the paper), written once for both cluster
//! backends: batch → forward/backward → `Δ(g_i)` → 1-bit status all-gather →
//! push/pull or local apply.
//!
//! [`run_worker`] is one worker's whole run. Everything it shares with the rest of
//! the cluster — parameter server, collectives, δ-policy signal board, checkpoint
//! gate — it reaches through a [`ClusterLink`], which [`crate::threaded`] implements
//! as direct calls on in-process handles and [`crate::process`] as blocking RPCs to
//! the hub process, which makes the very same calls on the worker's behalf. The
//! loop is monomorphised per link, so a threaded round still makes direct calls.
//!
//! What a worker does *to its own state* in a round — rejoin reset, compute, local
//! apply, sync apply — are the phases of [`crate::replica::Replica`], the same ones
//! the simulator ([`crate::algorithms::selsync`]) runs for all W workers of a round
//! in one call. What is decided here and nowhere else is the order of a cluster
//! worker's link operations between them.

use crate::checkpoint::{Checkpoint, Section};
use crate::conditions::ClusterConditions;
use crate::config::{RejoinPull, TrainConfig};
use crate::policy::{PolicySpec, RoundSignal, SyncPolicy};
use crate::replica::{Engine, Replica};
use crate::sim;
use crate::threaded::ThreadedWorkerReport;
use selsync_comm::faults::PsFaultSchedule;
use selsync_comm::wire::MsgKind;
use selsync_comm::{MessageLayer, PsExchangeError, ScalarOp};
use selsync_data::dataset::Dataset;
use selsync_nn::model::PaperModel;
use selsync_tracelog::Event;

/// One worker's view of the cluster's shared state. Every method acts for the
/// worker the link was built for; rendezvous methods block until the round's other
/// present workers have made the matching call.
pub(crate) trait ClusterLink {
    /// The PS's current global vector (the initial pull, wall-clock rejoin pulls
    /// and the end-of-run distance).
    fn pull(&self) -> Vec<f32>;
    /// The global of the last *scheduled* synchronization before `round`.
    fn scheduled_global_before(&self, round: u64) -> Vec<f32>;
    /// The round of that synchronization (`None`: the initial global).
    fn scheduled_round_before(&self, round: u64) -> Option<u64>;
    /// Push `params`, pull the worker-order average over `expected` contributors
    /// into `mean` (reused across rounds, so a warm round allocates nothing).
    fn sync_round_elastic(&self, round: u64, params: &[f32], expected: usize, mean: &mut Vec<f32>);
    /// The round's full-width status vector (absent slots read `false`).
    fn allgather_flags_among(&self, round: u64, flag: bool, expected: usize) -> Vec<bool>;
    /// Worker-order reduction of one scalar over the round's present workers.
    fn allreduce_scalar_among(&self, round: u64, value: f32, expected: usize, op: ScalarOp) -> f32;
    /// Worker-order element-wise reduction of a small vector.
    fn allreduce_vec_among(
        &self,
        round: u64,
        values: &[f32],
        expected: usize,
        op: ScalarOp,
    ) -> Vec<f32>;
    /// Block until the shared policy has observed every active round before `iteration`.
    fn wait_caught_up(&self, iteration: usize);
    /// The shared policy's δ for `iteration` (blocks like [`Self::wait_caught_up`]).
    fn delta_for(&self, iteration: usize) -> f32;
    /// Post the completed round's cluster signal; the board advances to `next_round`.
    fn observe(&self, signal: RoundSignal, next_round: usize);
    /// Announce round `it` at its boundary. Returns the cluster's full list of
    /// runtime evictions — `(worker, first-absent round)`, frozen for the round —
    /// of which the caller folds the entries it has not seen yet. Always empty
    /// where membership cannot change at run time.
    fn round_begin(&self, it: usize) -> Vec<(usize, usize)>;
    /// Hand over this worker's recovery section for the image after round `it` and
    /// block until that image is written.
    fn ckpt_deposit(&self, it: usize, section: Section);
}

/// The schedule-pure inputs of a run every worker derives from the configuration
/// alone. Built once per process; the threaded driver's worker threads share one.
pub(crate) struct WorkerInputs {
    /// Shared immutable dataset: the *same* train split the simulator uses.
    train: Dataset,
    iid_order: Vec<usize>,
    /// Membership comes from the *effective* conditions: the scheduled ones plus one
    /// no-rejoin crash per comm-fault eviction. Every worker derives the same
    /// presence from this pure schedule, so fault-driven evictions need no runtime
    /// coordination — exactly like scheduled crashes.
    pub(crate) conditions: ClusterConditions,
    /// Eviction rounds are precomputed from the same schedule the message layer
    /// rolls, so a worker driven past its budget finds itself already absent from
    /// the membership above — the layer's `Err(Evicted)` and the schedule agree by
    /// construction (pinned by the transport tests).
    evictions: Vec<(usize, usize)>,
    /// PS availability: the same pure `(spec, round)` schedule the simulator reads.
    ps_schedule: Option<PsFaultSchedule>,
    /// Fixed and scheduled policies are pure functions of the iteration and discard
    /// their observations, so the two per-round scalar rendezvous that would feed
    /// them the cluster aggregates are pure overhead — skip them and let the
    /// observation carry the (ignored) per-worker values instead. The board itself
    /// always runs: its round-ordered advancement is also what tells a scheduled
    /// rejoin pull that the snapshot ring is complete up to the rejoin round.
    exchange_signals: bool,
}

impl WorkerInputs {
    pub(crate) fn build(cfg: &TrainConfig, spec: &PolicySpec, proto: &PaperModel) -> Self {
        let (train, _test) = sim::build_datasets(cfg);
        // The one compilation of the fault schedule into membership; the threaded
        // driver hands the result on to its `ClusterCore`.
        let evictions = cfg.comm_fault_evictions();
        WorkerInputs {
            iid_order: sim::iid_sample_order(&train, &proto.task),
            train,
            conditions: cfg.conditions.clone().with_evictions(&evictions),
            evictions,
            ps_schedule: cfg.ps_fault_schedule(),
            exchange_signals: spec.consumes_round_signals(),
        }
    }
}

/// Attach the run's PS availability gate to a backend's message layer: with a
/// `[ps_faults]` schedule, PS-bound envelopes fail fast at down rounds and the
/// workers degrade to local-only rounds.
pub(crate) fn with_ps_gate(cfg: &TrainConfig, layer: MessageLayer) -> MessageLayer {
    match cfg.ps_fault_schedule() {
        Some(schedule) => layer.with_ps_outages(schedule),
        None => layer,
    }
}

/// Run worker `worker`'s rounds of `cfg` over `link`, every control-plane message
/// riding `layer`. `resume` is the recovery image to continue from (any backend's:
/// [`Checkpoint::check_resumable`]); `kill_at` makes the worker die abruptly at the
/// top of that round — no announce, no farewell.
pub(crate) fn run_worker<L: ClusterLink>(
    cfg: &TrainConfig,
    inputs: &WorkerInputs,
    worker: usize,
    link: &L,
    layer: &MessageLayer,
    resume: Option<&Checkpoint>,
    kill_at: Option<usize>,
) -> ThreadedWorkerReport {
    let n = cfg.workers;
    let ps_schedule = inputs.ps_schedule.as_ref();
    // Folded membership: starts as the compiled schedule and accrues the evictions
    // announced at round boundaries, so every live worker derives the same
    // round-keyed membership a scheduled no-rejoin crash would have produced.
    let mut conditions = inputs.conditions.clone();
    let mut known_evictions = 0usize;
    // The first round the (possibly resumed) run executes.
    let start = resume.map_or(0, |ckpt| ckpt.round + 1);

    let mut engine = Engine::new(cfg.model, cfg.seed);
    // Every worker starts from the global state on the PS (pullFromPS, Alg. 1 line 3)
    // and walks the simulator's circular traversal over its data: its shuffled IID
    // partition, or its label shard on non-IID runs.
    let traversal = sim::worker_traversal(cfg, &inputs.train, &inputs.iid_order, worker);
    let mut state = Replica::new(cfg, link.pull(), traversal);
    let mut was_present = true;
    // The canonical global forward counter of the simulator
    // ([`ClusterConditions::forwards_before`]): the count *before* any iteration —
    // and this worker's position within it — is a pure function of the fault
    // schedule.
    let mut forwards_before = 0u64;
    if let Some(ckpt) = resume {
        // Durable per-worker state comes from the checkpoint; the schedule-pure
        // cursors (forward counter, presence edge) are recomputed from the same
        // deterministic schedule the uninterrupted run walked.
        state.restore(ckpt.worker_image(worker), cfg.batch_size);
        forwards_before = conditions.forwards_before(n, start);
        was_present = conditions.is_present(worker, start - 1);
    }
    let mut indices = Vec::with_capacity(cfg.batch_size);
    let (mut grads, mut mean) = (Vec::new(), Vec::new());
    // Control-plane exchange for one comm op: request envelope out, hub ack
    // back, bounded retry. A worker present at a round always lands within its
    // budget — exhaustion would have evicted it from this round's membership —
    // so an `Err` here is a schedule/layer disagreement, not a recoverable
    // condition. Returns the attempt count (shared by every op this worker
    // performs this round: link weather is per `(worker, round, attempt, leg)`,
    // not per message kind).
    let exchange = |round: usize, kind: MsgKind, payload: &[u8]| -> u32 {
        layer
            .exchange(worker, round as u64, kind, payload)
            .unwrap_or_else(|e| {
                panic!("present worker {worker} failed a comm op at round {round}: {e}")
            })
            .attempts
    };

    // Checkpoint-gate participation at the end of round `it`: every worker —
    // present or absent — deposits its recovery section when a checkpoint is due
    // and parks until the image is written. Returns whether the run halts after
    // this round (the simulated kill switch).
    let end_of_round = |it: usize, present: &[usize], state: &Replica| -> bool {
        let Some(ck) = &cfg.checkpoint else {
            return false;
        };
        // The simulator writes nothing at whole-cluster-absent rounds; neither
        // do the cluster backends (and the kill switch cannot fire there).
        if present.is_empty() {
            return false;
        }
        if ck.due(it) || ck.halt_after == Some(it) {
            link.ckpt_deposit(it, state.section(worker));
        }
        ck.halt_after == Some(it)
    };

    // One emitter per round: the lowest-ranked present worker logs the round's
    // structural events (canonical sorting in the sink erases any cross-worker
    // interleaving with other rounds) and posts its cluster signal.
    let post = |conditions: &ClusterConditions, present: &[usize], signal: RoundSignal| {
        let it = signal.iteration;
        crate::tracing::emit_round_context(&cfg.trace, conditions, n, it, present);
        link.observe(
            signal,
            conditions.next_active_iteration(n, it + 1, cfg.iterations),
        );
    };

    let mut killed = false;
    for it in start..cfg.iterations {
        if kill_at == Some(it) {
            // Abrupt death: the worker's connection drops at a frame boundary and
            // the rest of the cluster learns of it at its next round boundary.
            killed = true;
            break;
        }
        if conditions.is_present(worker, it) {
            // Round-boundary barrier: announce the round, learn the frozen
            // eviction prefix, and fold any entry not seen yet. The recompute
            // keeps the forward counter a pure function of the (now extended)
            // fault schedule — evictions can land at rounds this worker sat
            // out, where it never saw a barrier.
            let evs = link.round_begin(it);
            if evs.len() > known_evictions {
                conditions = conditions.with_evictions(&evs[known_evictions..]);
                known_evictions = evs.len();
                forwards_before = conditions.forwards_before(n, it);
            }
        }
        // Crash windows: an absent worker skips the round entirely — no compute, no
        // collectives. Every live worker derives the same membership from the
        // deterministic schedule, so the round-keyed rendezvous stays consistent.
        let present = conditions.present_workers(n, it);
        let Some(rank) = present.iter().position(|&p| p == worker) else {
            if inputs.evictions.contains(&(worker, it)) {
                // This is the round the fault schedule drives this worker past
                // its retry budget. Run the doomed exchange for real — the
                // layer must agree with the precomputed membership — then log
                // the eviction and fall out of the cluster for good.
                let farewell = layer.exchange(worker, it as u64, MsgKind::Flags, &[0]);
                assert!(
                    farewell.is_err(),
                    "worker {worker} was precomputed as evicted at round {it} but its \
                     exchange succeeded"
                );
                cfg.trace.record(Event::CommEvict { round: it, worker });
            }
            was_present = false;
            forwards_before += present.len() as u64;
            if end_of_round(it, &present, &state) {
                break;
            }
            continue;
        };
        let active = present.len();
        let forward_index = forwards_before + rank as u64;
        forwards_before += active as u64;
        if !was_present {
            // Rejoin: tracker and optimizer did not survive the crash
            // ([`Replica::rejoin`]; the shared board, like the simulator's
            // cluster-level policy, is untouched). The pull request
            // is an envelope on the message layer; the parameter pull itself
            // (the data plane) follows the configured semantics. At a PS-down
            // round the envelope is skipped — there is no server to ack it —
            // while the data plane (the schedule-pure snapshot lookup) and the
            // event stay, exactly like the simulator's rejoin path.
            if !layer.ps_down(it as u64) {
                exchange(it, MsgKind::Pull, &(it as u64).to_le_bytes());
            }
            let pulled = match cfg.rejoin_pull {
                RejoinPull::WallClock => link.pull(),
                RejoinPull::Scheduled => {
                    // Wait until every active round before the rejoin has fully
                    // decided (the board advances only after a round's sync, so
                    // the ring then holds every scheduled global this lookup can
                    // need), then pull the last scheduled synchronization's
                    // global — the simulator's `global` entering this round.
                    link.wait_caught_up(it);
                    link.scheduled_global_before(it as u64)
                }
            };
            // The ring's answer for this round: all earlier rounds have decided, so
            // its `< it` entries are final.
            crate::tracing::emit_rejoin_pull(cfg, it, worker, || {
                link.scheduled_round_before(it as u64).map(|r| r as usize)
            });
            state.rejoin(&pulled);
            was_present = true;
        }

        state.next_batch(cfg.batch_size, &mut indices);
        let (stats, delta_g) = state.compute(
            &mut engine,
            &inputs.train,
            &indices,
            forward_index,
            &mut grads,
        );

        // Local update through the configured optimizer at the scheduled learning
        // rate (Alg. 1 line 9).
        let lr = cfg.lr.lr_at(cfg.epoch_of(it), it);
        state.apply_local(&grads, lr);

        // PS outage: the round degrades to forced-local. One probe envelope
        // discovers the outage and fails fast (no retry budget consumed); the
        // status all-gather, signal exchange and sync round — all PS-bound —
        // are skipped, and the worker keeps its local update. The δ policy is
        // still consulted and fed the lowest-ranked present worker's local
        // signal, so regime state stays coherent — bit-identical to the
        // simulator's degraded branch.
        if layer.ps_down(it as u64) {
            let probe =
                layer.ps_exchange(worker, it as u64, MsgKind::Pull, &(it as u64).to_le_bytes());
            assert!(
                matches!(probe, Err(PsExchangeError::Down { .. })),
                "the PS availability schedule and the layer's gate disagree at round {it}"
            );
            let sync_policy = SyncPolicy::new(link.delta_for(it));
            // Worker-to-worker rendezvous (the PS plays no part): keeps the
            // board's round-ordered observe behind every present worker's δ
            // fetch, exactly like the status all-gather does on reachable rounds.
            link.allgather_flags_among(it as u64, false, active);
            if rank == 0 {
                let signal = crate::tracing::degraded_round(
                    &cfg.trace,
                    ps_schedule,
                    it,
                    sync_policy.delta,
                    stats.loss,
                    delta_g,
                );
                post(&conditions, &present, signal);
            }
            if end_of_round(it, &present, &state) {
                break;
            }
            continue;
        }
        // The first reachable round after an outage runs the catch-up sync:
        // every present worker forces its status bit, so the accumulated
        // local-only deltas reconcile through the ordinary elastic round.
        let catchup = ps_schedule.is_some_and(|s| s.outage_ends(it as u64));

        // Cluster-signal exchange among the live workers: the round's mean batch
        // loss and maximum Δ(g_i), combined in worker-id order — bit-identical to
        // the simulator's `RoundOutput::mean_loss` / `max_delta` folds. Elided
        // for signal-blind (fixed/scheduled) policies, whose observations are
        // discarded anyway.
        let moments = [delta_g, delta_g * delta_g];
        let (mean_loss, cluster_delta, moments) = if inputs.exchange_signals {
            // Both scalars ride one envelope (the envelope id is
            // (kind, round, sender), so a second ScalarReduce from the same
            // worker in the same round would be dropped as a duplicate), and
            // the Δ-moment vector rides its own VecReduce envelope.
            let pair = |a: f32, b: f32| {
                let mut payload = [0u8; 8];
                payload[..4].copy_from_slice(&a.to_le_bytes());
                payload[4..].copy_from_slice(&b.to_le_bytes());
                payload
            };
            exchange(it, MsgKind::ScalarReduce, &pair(stats.loss, delta_g));
            exchange(it, MsgKind::VecReduce, &pair(moments[0], moments[1]));
            let round = it as u64;
            (
                link.allreduce_scalar_among(round, stats.loss, active, ScalarOp::Mean),
                link.allreduce_scalar_among(round, delta_g, active, ScalarOp::Max),
                link.allreduce_vec_among(round, &moments, active, ScalarOp::Mean),
            )
        } else {
            (stats.loss, delta_g, moments.to_vec())
        };

        // This round's δ from the *shared* cluster policy (Phase 0 of the
        // simulator driver); blocks until all earlier rounds' signals are in.
        let sync_policy = SyncPolicy::new(link.delta_for(it));

        // 1-bit status all-gather followed by the cluster decision (lines 10–13),
        // restricted to the live workers of this iteration. A catch-up round
        // forces every status bit.
        let wants_sync = catchup || sync_policy.worker_wants_sync(delta_g);
        let attempts = exchange(it, MsgKind::Flags, &[wants_sync as u8]);
        if attempts > 1 {
            // One retry event per (worker, round): every envelope this worker
            // sent this round shares the same attempt count (link weather is
            // keyed by (worker, round, attempt, leg), not by message kind).
            cfg.trace.record(Event::CommRetry {
                round: it,
                worker,
                attempts,
            });
        }
        let flags = link.allgather_flags_among(it as u64, wants_sync, active);
        let synced = flags.iter().any(|&f| f);
        if synced {
            // Push local parameters, pull the average (lines 14–15). The elastic
            // round combines contributions in worker-id order, so the pulled
            // average equals the simulator's to the last bit. The control-plane
            // announcement (parameter byte count) is an envelope; the parameters
            // themselves move through the data-plane rendezvous below.
            exchange(
                it,
                MsgKind::SyncRound,
                &((state.params.len() * 4) as u64).to_le_bytes(),
            );
            link.sync_round_elastic(it as u64, &state.params, active, &mut mean);
            state.apply_sync(it, &mean);
        }
        if rank == 0 {
            let signal = RoundSignal {
                iteration: it,
                max_delta: cluster_delta,
                mean_loss,
                delta_mean: moments[0],
                delta_sq_mean: moments[1],
                synced,
            };
            crate::tracing::emit_round(
                &cfg.trace,
                ps_schedule,
                &signal,
                inputs.exchange_signals,
                sync_policy.delta,
                // The collective's gather is full-width (absent slots read false);
                // the canonical event keeps present-worker order, matching the
                // simulator's per-present-worker flag vector.
                present.iter().map(|&w| flags[w]),
            );
            // Every present worker has passed the status all-gather by now (it is
            // a rendezvous), so no one can still be waiting on this round's δ —
            // and if the round synchronized, its global is already in the
            // snapshot ring, so a scheduled rejoin pull unblocked by this
            // observation finds everything it needs.
            post(&conditions, &present, signal);
        }
        if end_of_round(it, &present, &state) {
            break;
        }
    }

    // A killed worker dies right here — no final pull, no farewell. Its report
    // never reaches an orchestrator (the process is gone); the in-process tests
    // that drive the kill through `WorkerOptions` just discard it.
    let distance_to_global = if killed {
        f32::NAN
    } else {
        let global = link.pull();
        state
            .params
            .iter()
            .zip(global.iter())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt()
    };
    ThreadedWorkerReport {
        worker,
        sync_steps: state.sync_rounds.len() as u64,
        local_steps: state.local_steps(),
        sync_rounds: state.sync_rounds,
        final_loss: state.last_loss,
        distance_to_global,
    }
}
