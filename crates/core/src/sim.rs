//! The replica group: what the one round loop (`crate::worker::run_group`) trains.
//!
//! In the deterministic single-process simulator the group is the whole cluster,
//! W [`Replica`]s over the in-memory link of [`crate::algorithms::selsync`]; on a
//! cluster backend it is one worker's replica. SSP's driver ([`crate::algorithms`])
//! uses it too. It owns the synthetic train/test datasets, the replicas, a pool of
//! compute engines (one per round slot for the worker-parallel compute phase, one
//! shared engine for evaluation and the sequential reference path) and — what only the
//! simulator reads — LSSR bookkeeping, the synchronization schedule, the evaluation
//! history that becomes the [`RunReport`], and the data-injection draw, which advances
//! *other* workers' shards. The group holds no clock: [`report::price`] turns the
//! schedule and the injected bytes into the report's simulated time and bytes.
//!
//! The compute phase runs concurrently on the shared worker pool
//! ([`selsync_tensor::par`]): batch indices are drawn up front from each worker's own
//! cursor/RNG stream (so batch content is independent of thread count), every worker's
//! forward/backward runs on its own engine slot with the dropout stream seeked to the
//! canonical sequential position, and all shared state (`BatchStats`,
//! `max_delta_seen`) is merged in worker-index order after the barrier. Reports are
//! therefore bit-for-bit identical across `SELSYNC_THREADS` values *and* to the
//! sequential baseline path ([`with_sequential_rounds`]).

use crate::aggregation;
use crate::checkpoint::{Checkpoint, Section};
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::policy::RoundSignal;
use crate::replica::{Engine, Replica};
use crate::report::{self, Cost, EvalPoint, RunReport};
use selsync_data::dataset::Dataset;
use selsync_data::injection::DataInjection;
use selsync_data::noniid;
use selsync_data::partition::WorkerPartition;
use selsync_data::synthetic::{self, MixtureSpec, TokenSpec};
use selsync_metrics::lssr::LssrCounter;
use selsync_nn::cost;
use selsync_nn::model::{BatchStats, ModelKind, NominalFootprint, TaskKind};
use selsync_tensor::par::{self, SendPtr};
use selsync_tensor::rng::{self, SelRng};
use std::ops::Range;
use std::sync::Arc;

/// One worker's slot in a training round, planned up front by
/// [`Simulator::plan_round`] and executed by [`Simulator::run_round`].
///
/// Batch indices are drawn at planning time, in worker-index order, from the worker's
/// own cursor/RNG stream — so the data each worker sees is a pure function of the run
/// configuration, never of how the round is later scheduled across threads.
#[derive(Debug, Default, Clone)]
pub struct WorkerStep {
    /// Worker id (rank).
    pub worker: usize,
    /// The mini-batch sample indices this worker trains on.
    pub indices: Vec<usize>,
    /// Bytes received through data-injection while assembling this batch.
    pub injected_bytes: u64,
    /// Global training-forward index (dropout-stream position) of this step.
    forward_index: u64,
}

/// Outcome of one [`Simulator::run_round`], merged in worker-index order after the
/// parallel barrier. Per-worker gradients stay inside the simulator
/// ([`Simulator::round_grads`] / [`Simulator::take_round_grads`]).
#[derive(Debug, Clone)]
pub struct RoundOutput {
    /// Per-step batch statistics, in step order.
    pub stats: Vec<BatchStats>,
    /// Per-step `Δ(g_i)`, in step order.
    pub deltas: Vec<f32>,
    /// Maximum `Δ(g_i)` of the round.
    pub max_delta: f32,
}

impl RoundOutput {
    /// The cluster-level [`RoundSignal`] a [`crate::policy::DeltaPolicy`] observes for
    /// this round, and whether the round synchronized: [`RoundSignal::fold`] over the
    /// steps' `(loss, Δ(g_i))` pairs in worker-index order — the fold the cluster's
    /// signal rendezvous runs — so the signal, and therefore every policy decision,
    /// is bit-identical across backends and thread counts.
    pub fn signal(&self, iteration: usize, synced: bool) -> RoundSignal {
        let pairs = self.stats.iter().zip(&self.deltas);
        RoundSignal {
            synced,
            ..RoundSignal::fold(iteration, pairs.map(|(s, &d)| (s.loss, d)))
        }
    }
}

thread_local! {
    /// When set, [`Simulator::run_round`] on this thread processes its steps one by
    /// one on the shared evaluation engine — the pre-parallel sequential baseline
    /// path. Thread-local (not process-global) so one test's reference run can never
    /// leak onto another test's supposedly-parallel run under the parallel test
    /// harness.
    static SEQUENTIAL_ROUNDS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with [`Simulator::run_round`] forced onto the sequential baseline path
/// (single shared engine, workers processed in order), restoring the previous setting
/// afterwards. The determinism tests compare this against the worker-parallel path at
/// several thread counts; the two must produce byte-identical reports.
pub fn with_sequential_rounds<R>(f: impl FnOnce() -> R) -> R {
    let previous = SEQUENTIAL_ROUNDS.with(|c| c.replace(true));
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SEQUENTIAL_ROUNDS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Placeholder of a stats slot a round or evaluation task has yet to write.
const NO_STATS: BatchStats = BatchStats {
    loss: 0.0,
    metric: 0.0,
};

/// Assert the worker list of a round is strictly increasing and within the cluster —
/// the properties that make per-worker pointer writes disjoint *and in bounds* across
/// parallel round tasks.
fn assert_valid_round_workers(workers: impl Iterator<Item = usize>, num_workers: usize) {
    let mut prev: Option<usize> = None;
    for w in workers {
        assert!(
            prev.is_none_or(|p| p < w),
            "round workers must be strictly increasing (distinct)"
        );
        assert!(
            w < num_workers,
            "round worker {w} out of range ({num_workers} workers)"
        );
        prev = Some(w);
    }
}

/// Run `apply(i, replica of worker id(i))` for `i` in `0..n`, across the pool. The ids
/// must be strictly increasing and in bounds ([`assert_valid_round_workers`]).
fn apply_each(
    workers: &mut [Replica],
    n: usize,
    id: impl Fn(usize) -> usize + Sync,
    apply: impl Fn(usize, &mut Replica) + Sync,
) {
    // When the cluster is narrower than the pool, worker-level tasks would waste
    // threads (an outer parallel_for marks its tasks in-pool, serialising the
    // optimizers' elementwise sweeps); a sequential worker loop then keeps the
    // PR 2 element-level parallelism. Either arrangement produces the same bytes.
    if n < par::current_num_threads() {
        for i in 0..n {
            apply(i, &mut workers[id(i)]);
        }
        return;
    }
    let workers_ptr = SendPtr(workers.as_mut_ptr());
    par::parallel_for(n, |i| {
        // SAFETY: worker ids are strictly increasing and in bounds — disjoint per task.
        apply(i, unsafe { &mut *workers_ptr.get().add(id(i)) });
    });
}

/// A replica group: the whole cluster in the simulator, one worker on a cluster backend.
pub struct Simulator {
    /// The run configuration, with the compiled membership schedule as its conditions.
    pub cfg: TrainConfig,
    /// The shared engine: evaluation, the sequential reference path, model facts.
    engine: Engine,
    /// Synthetic training set.
    pub train: Arc<Dataset>,
    /// Synthetic held-out set.
    pub test: Arc<Dataset>,
    /// The group's replicas: worker `first + i` at index `i`.
    pub workers: Vec<Replica>,
    /// The worker id of `workers[0]` (0 for the whole cluster).
    pub(crate) first: usize,
    /// The comm-fault evictions compiled into the membership schedule,
    /// `(worker, first-absent round)`.
    pub(crate) evictions: Vec<(usize, usize)>,
    injection: Option<DataInjection>,
    lssr: LssrCounter,
    /// Step indices at which [`Self::account_step`] recorded a synchronization — the
    /// run's synchronization schedule (see [`RunReport::sync_rounds`]).
    sync_rounds: Vec<usize>,
    /// `(round, bytes)` of every round whose batches injected data: what the cost of
    /// a run needs beyond its configuration and schedule.
    injected: Vec<(usize, u64)>,
    /// The rounds a resume image priced already, and their totals (zero from a
    /// cluster image, which carries none).
    priced_before: (usize, Cost),
    history: Vec<EvalPoint>,
    /// RNG for cluster-level stochastic decisions (FedAvg participant selection,
    /// data-injection donor choice, SSP scheduling jitter).
    pub rng: SelRng,
    max_delta_seen: f32,
    /// Per-slot compute engines for worker-parallel rounds (grown lazily to the
    /// largest round width seen).
    engines: Vec<Engine>,
    /// Per-step flat gradients of the most recent [`Self::run_round`] (buffers reused
    /// round to round).
    round_grads: Vec<Vec<f32>>,
    /// How many slots of [`Self::round_grads`] the last round filled: none after a
    /// [`Self::step_round`], whose gradients never leave the engines.
    grad_slots: usize,
    /// Worker id behind each step of the last round (alignment checks for
    /// [`Self::apply_round_own`]).
    last_round_workers: Vec<usize>,
    /// Global training-forward counter: the canonical sequential position of the next
    /// forward pass, used to seek per-engine dropout streams.
    forwards_issued: u64,
}

impl Simulator {
    /// Build a simulator (datasets, model, worker replicas) from a configuration.
    pub fn new(cfg: &TrainConfig) -> Self {
        let (train, test) = build_datasets(cfg);
        Self::group(cfg, &(Arc::new(train), Arc::new(test)), 0..cfg.workers)
    }

    /// The group of `members` over shared `datasets` (train, test): every replica
    /// holds the initial global (pullFromPS, Alg. 1 line 3).
    pub(crate) fn group(
        cfg: &TrainConfig,
        datasets: &(Arc<Dataset>, Arc<Dataset>),
        members: Range<usize>,
    ) -> Self {
        let (train, test) = datasets.clone();
        let engine = Engine::new(cfg.model, cfg.seed);
        let init_params = engine.model.params_flat();

        // Injection tops a worker's batch up from *other* workers' label shards, so it
        // only exists on non-IID runs.
        let injection = match cfg.algorithm {
            AlgorithmSpec::SelSync { injection, .. } => {
                injection.filter(|_| cfg.non_iid_labels_per_worker.is_some())
            }
            _ => None,
        };

        let iid_order = iid_sample_order(&train, &engine.model.task);
        let first = members.start;
        let workers = members
            .map(|w| {
                let traversal = worker_traversal(cfg, &train, &iid_order, w);
                Replica::new(cfg, init_params.clone(), traversal)
            })
            .collect();

        // Compile comm-fault evictions into the membership schedule up front: every
        // presence query below (round planning, trace context, rejoins) then sees
        // fault-driven evictions exactly like scheduled crashes. Idempotent — an
        // evicted worker is absent from its eviction round on, so recompiling cannot
        // add further crashes.
        let mut cfg = cfg.clone();
        let evictions = cfg.comm_fault_evictions();
        cfg.conditions = cfg.conditions.with_evictions(&evictions);
        let rng = rng::derived(cfg.seed, 0xC1A5);

        Simulator {
            cfg,
            engine,
            train,
            test,
            workers,
            first,
            evictions,
            injection,
            lssr: LssrCounter::new(),
            sync_rounds: Vec::new(),
            injected: Vec::new(),
            priced_before: (0, Cost::default()),
            history: Vec::new(),
            rng,
            max_delta_seen: 0.0,
            engines: Vec::new(),
            round_grads: Vec::new(),
            grad_slots: 0,
            last_round_workers: Vec::new(),
            forwards_issued: 0,
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Whether worker `w` is one of the group's members.
    pub(crate) fn hosts(&self, w: usize) -> bool {
        (self.first..self.first + self.workers.len()).contains(&w)
    }

    /// The replica of member `w`.
    pub(crate) fn replica_mut(&mut self, w: usize) -> &mut Replica {
        &mut self.workers[w - self.first]
    }

    /// Fold runtime `evictions` (worker deaths a cluster learns at the boundary of
    /// round `it`) into the schedule, and recompute the forward counter from it:
    /// evictions can land at rounds this group sat out.
    pub(crate) fn fold_evictions(&mut self, evictions: &[(usize, usize)], it: usize) {
        let conditions = std::mem::take(&mut self.cfg.conditions);
        self.cfg.conditions = conditions.with_evictions(evictions);
        self.forwards_issued = self.cfg.conditions.forwards_before(self.cfg.workers, it);
    }

    /// Number of scalar model parameters.
    pub fn param_dim(&self) -> usize {
        self.engine.model.param_count()
    }

    /// Nominal paper-scale footprint of the configured model.
    pub fn nominal(&self) -> NominalFootprint {
        self.engine.model.nominal
    }

    /// Draw the next mini-batch of sample indices for `worker` into `out` (cleared
    /// first), returning the number of bytes transferred for data-injection (0
    /// without it). Injection is the one draw that is not the replica's own
    /// ([`Replica::next_batch`]): it advances *other* workers' shard cursors and the
    /// cluster RNG, so it lives here, around the compute phase.
    pub fn fill_batch_indices(&mut self, worker: usize, out: &mut Vec<usize>) -> u64 {
        let batch = self.cfg.batch_size;
        let Some(inj) = self.injection else {
            self.replica_mut(worker).next_batch(batch, out);
            return 0;
        };
        let mut cursors: Vec<usize> = self.workers.iter().map(|w| w.cursor).collect();
        let shards: Vec<&[usize]> = self.workers.iter().map(|w| &w.traversal[..]).collect();
        let assembled = inj.assemble_batch(
            worker,
            &shards,
            &mut cursors,
            batch,
            self.train.sample_bytes,
            &mut self.rng,
        );
        for (w, c) in self.workers.iter_mut().zip(cursors) {
            w.cursor = c;
        }
        out.clear();
        out.extend_from_slice(&assembled.local_indices);
        out.extend(assembled.injected.iter().map(|&(_, i)| i));
        assembled.bytes_received as u64
    }

    // --- worker-parallel rounds ----------------------------------------------------

    /// Plan one training round for the group's members among the (strictly
    /// increasing) `present` workers: draw every member's batch indices in worker
    /// order — so cursor and cluster-RNG streams advance exactly as the sequential
    /// loop did — and stamp each step with its global forward index, its worker's
    /// rank among `present` past the forwards of earlier rounds. `steps` is reused
    /// across rounds (cleared and refilled, index buffers kept).
    pub fn plan_round(&mut self, present: &[usize], steps: &mut Vec<WorkerStep>) {
        assert_valid_round_workers(present.iter().copied(), self.cfg.workers);
        let (mut planned, mut injected) = (0, 0);
        for (rank, &w) in present.iter().enumerate() {
            if !self.hosts(w) {
                continue;
            }
            if steps.len() == planned {
                steps.push(WorkerStep::default());
            }
            let step = &mut steps[planned];
            step.worker = w;
            step.injected_bytes = self.fill_batch_indices(w, &mut step.indices);
            step.forward_index = self.forwards_issued + rank as u64;
            injected += step.injected_bytes;
            planned += 1;
        }
        if injected > 0 {
            self.injected.push((self.step_index(), injected));
        }
        steps.truncate(planned);
        self.forwards_issued += present.len() as u64;
    }

    /// Execute the compute phase of a planned round: every step's
    /// `Replica::compute`, spread across the worker pool (a fixed-chunk partition of
    /// the steps, one engine per chunk), then merge the shared-state updates in
    /// worker-index order.
    ///
    /// Per-step flat gradients land in [`Self::round_grads`]. Results are bit-identical
    /// for every thread count and to the sequential baseline ([`with_sequential_rounds`]):
    /// batches were drawn at planning time, engines seek the canonical dropout-stream
    /// position before each forward, kernels are order-preserving, every worker's
    /// tracker/optimizer state is its own, and a step's outcome is independent of
    /// *which* engine runs it (see `Engine`).
    pub fn run_round(&mut self, steps: &[WorkerStep]) -> RoundOutput {
        self.round(steps, None)
    }

    /// Compute and apply-local of a planned round as one phase, for a round whose
    /// update needs nothing from the other workers (parameter aggregation, Alg. 1
    /// line 9): every step's `Replica::step` at `lr`, partitioned across the pool like
    /// [`Self::run_round`], so a worker's optimizer sweep runs in the task that computed
    /// its gradient. Bit-identical to `run_round` then [`Self::apply_round_own`]. No
    /// gradient leaves the engines: [`Self::round_grads`] is empty afterwards.
    pub fn step_round(&mut self, steps: &[WorkerStep], lr: f32) -> RoundOutput {
        self.round(steps, Some(lr))
    }

    /// [`Self::run_round`] without `lr`, [`Self::step_round`] with it.
    fn round(&mut self, steps: &[WorkerStep], lr: Option<f32>) -> RoundOutput {
        let (n, first) = (steps.len(), self.first);
        assert_valid_round_workers(steps.iter().map(|s| s.worker - first), self.workers.len());
        self.last_round_workers.clear();
        self.last_round_workers
            .extend(steps.iter().map(|s| s.worker));
        self.grad_slots = if lr.is_some() { 0 } else { n };
        let mut output = RoundOutput {
            stats: vec![NO_STATS; n],
            deltas: vec![0.0f32; n],
            max_delta: 0.0,
        };
        if n == 0 {
            return output;
        }
        if self.round_grads.len() < n {
            self.round_grads.resize_with(n, Vec::new);
        }
        let train = &self.train;
        let run = |replica: &mut Replica, engine: &mut Engine, step: &WorkerStep, grads: &mut _| {
            let (indices, forward_index) = (&step.indices, step.forward_index);
            match lr {
                Some(lr) => replica.step(engine, train, indices, forward_index, lr),
                None => replica.compute(engine, train, indices, forward_index, grads),
            }
        };

        if SEQUENTIAL_ROUNDS.with(|c| c.get()) {
            // Reference path: the same phase on the one shared engine, workers in order.
            for (i, step) in steps.iter().enumerate() {
                let replica = &mut self.workers[step.worker - first];
                let grads = &mut self.round_grads[i];
                (output.stats[i], output.deltas[i]) = run(replica, &mut self.engine, step, grads);
            }
        } else {
            // Fixed-chunk partition over the round's slots: task `t` owns steps
            // `[t*chunk, (t+1)*chunk)` and walks them in order on engine `t`, so at
            // most `threads` engines ever exist and the slot→engine map is a pure
            // function of the partition — never of scheduling. Engine identity cannot
            // affect values (see `Engine`), so neither can the thread count.
            let threads = par::current_num_threads().clamp(1, n);
            let chunk = n.div_ceil(threads);
            let tasks = n.div_ceil(chunk);
            while self.engines.len() < tasks {
                self.engines
                    .push(Engine::new(self.cfg.model, self.cfg.seed));
            }
            let engines_ptr = SendPtr(self.engines.as_mut_ptr());
            let workers_ptr = SendPtr(self.workers.as_mut_ptr());
            let grads_ptr = SendPtr(self.round_grads.as_mut_ptr());
            let stats_ptr = SendPtr(output.stats.as_mut_ptr());
            let deltas_ptr = SendPtr(output.deltas.as_mut_ptr());
            par::parallel_for(tasks, |t| {
                // SAFETY: each task owns engine `t` and a disjoint slot range (so the
                // grads/stats/deltas writes are disjoint), and the steps' replica slots
                // are strictly increasing and in bounds (asserted above) so the replica
                // writes are disjoint too; `parallel_for` blocks until all tasks finish, so the
                // borrows outlive every use.
                let engine = unsafe { &mut *engines_ptr.get().add(t) };
                let hi = ((t + 1) * chunk).min(n);
                for (i, step) in steps.iter().enumerate().take(hi).skip(t * chunk) {
                    let wstate = unsafe { &mut *workers_ptr.get().add(step.worker - first) };
                    let grads = unsafe { &mut *grads_ptr.get().add(i) };
                    let (stats, delta) = run(wstate, engine, step, grads);
                    unsafe {
                        *stats_ptr.get().add(i) = stats;
                        *deltas_ptr.get().add(i) = delta;
                    }
                }
            });
        }

        // Merge shared state in worker-index order, exactly like the sequential loop.
        for &delta in &output.deltas {
            output.max_delta = output.max_delta.max(delta);
            self.max_delta_seen = self.max_delta_seen.max(delta);
        }
        output
    }

    /// Per-step flat gradients of the most recent [`Self::run_round`], in step order.
    pub fn round_grads(&self) -> &[Vec<f32>] {
        &self.round_grads[..self.grad_slots]
    }

    /// Move the round-gradient buffers out of the simulator (for drivers that need to
    /// read them while mutating the simulator, e.g. SSP's interleaved global pushes).
    /// Return them with [`Self::restore_round_grads`] so the buffers keep being reused.
    pub fn take_round_grads(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.round_grads)
    }

    /// Hand the buffers from [`Self::take_round_grads`] back for reuse.
    pub fn restore_round_grads(&mut self, grads: Vec<Vec<f32>>) {
        self.round_grads = grads;
    }

    /// The local apply ([`Replica::apply_local`]) of each step's own gradient
    /// ([`Self::round_grads`]), in parallel across workers. Optimizer state is per
    /// worker and the per-element update order is unchanged, so the result is
    /// bit-identical to the sequential apply loop.
    pub fn apply_round_own(&mut self, steps: &[WorkerStep], lr: f32) {
        // Slot i of round_grads belongs to the i-th worker of the last run_round;
        // applying a different or shifted step list would silently train the wrong
        // workers, so require exact alignment.
        assert!(
            steps.len() <= self.grad_slots,
            "apply_round_own without run_round"
        );
        for (step, &w) in steps.iter().zip(&self.last_round_workers) {
            assert_eq!(
                step.worker, w,
                "apply_round_own steps must align with the last run_round"
            );
        }
        let (grads, first) = (&self.round_grads, self.first);
        apply_each(
            &mut self.workers,
            steps.len(),
            |i| steps[i].worker - first,
            |i, w| w.apply_local(&grads[i], lr),
        );
    }

    /// Apply one shared gradient (the round average: a gradient-aggregation
    /// synchronization, recorded as such) to every listed worker's replica, in
    /// parallel across workers.
    pub fn apply_round_shared(&mut self, worker_ids: &[usize], grads: &[f32], lr: f32) {
        let (round, first) = (self.step_index(), self.first);
        assert_valid_round_workers(worker_ids.iter().map(|w| w - first), self.workers.len());
        apply_each(
            &mut self.workers,
            worker_ids.len(),
            |i| worker_ids[i] - first,
            |_, w| {
                w.apply_local(grads, lr);
                w.sync_rounds.push(round);
            },
        );
    }

    /// Every worker's parameters, borrowed (no per-replica clone fan-out).
    fn replicas(&self) -> Vec<&[f32]> {
        self.workers.iter().map(|w| w.params.as_slice()).collect()
    }

    /// Average of all worker replicas' parameters.
    pub fn average_params(&self) -> Vec<f32> {
        aggregation::average(&self.replicas())
    }

    /// Average of a subset of workers' parameters into a caller-owned buffer, so
    /// per-round aggregation reuses one allocation across the whole run.
    pub fn average_params_of_into(&self, worker_ids: &[usize], out: &mut Vec<f32>) {
        aggregation::average_present_into(&self.replicas(), worker_ids, out);
    }

    /// Overwrite every worker replica with `params` (the post-aggregation broadcast).
    pub fn set_all_params(&mut self, params: &[f32]) {
        for w in &mut self.workers {
            w.params.copy_from_slice(params);
        }
    }

    /// Learning rate in effect at `iteration`.
    pub fn lr_at(&self, iteration: usize) -> f32 {
        self.cfg.lr.lr_at(self.cfg.epoch_of(iteration), iteration)
    }

    /// Evaluate the given parameters on (a capped subset of) the held-out set.
    ///
    /// The evaluation chunks are spread across the worker pool (a fixed contiguous
    /// chunk-range per engine, like [`Self::run_round`]): each chunk's statistics are
    /// a pure function of `params` and the chunk's samples (eval-mode forwards touch
    /// no RNG stream and overwrite every cache they read), and the per-chunk partial
    /// sums are merged sequentially in chunk-index order with the same `f64`
    /// accumulators — so the result is bit-identical to the sequential baseline for
    /// every thread count.
    pub fn evaluate_params(&mut self, params: &[f32]) -> BatchStats {
        let n = self.cfg.eval_samples.min(self.test.len()).max(1);
        let chunk = 128usize;
        let n_chunks = n.div_ceil(chunk);
        let threads = par::current_num_threads();
        let mut chunk_stats = vec![NO_STATS; n_chunks];
        if SEQUENTIAL_ROUNDS.with(|c| c.get()) || threads <= 1 || n_chunks <= 1 {
            // Sequential reference path: one shared engine, chunks in order.
            let Engine { model, x, y } = &mut self.engine;
            model.set_params_flat(params);
            let mut indices = Vec::with_capacity(chunk);
            for (c, stats) in chunk_stats.iter_mut().enumerate() {
                indices.clear();
                indices.extend(c * chunk..((c + 1) * chunk).min(n));
                self.test.batch_into(&indices, x, y);
                *stats = model.evaluate(x, y);
            }
        } else {
            // Fixed chunk-range partition: task `t` owns chunks
            // `[t*span, (t+1)*span)` and walks them in order on engine `t`.
            let tasks = threads.min(n_chunks);
            let span = n_chunks.div_ceil(tasks);
            let tasks = n_chunks.div_ceil(span);
            while self.engines.len() < tasks {
                self.engines
                    .push(Engine::new(self.cfg.model, self.cfg.seed));
            }
            let engines_ptr = SendPtr(self.engines.as_mut_ptr());
            let stats_ptr = SendPtr(chunk_stats.as_mut_ptr());
            let test = &self.test;
            par::parallel_for(tasks, |t| {
                // SAFETY: each task owns engine `t` and a disjoint chunk range, so
                // the partial-stat writes are disjoint; `parallel_for` blocks until
                // all tasks finish, so the borrows outlive every use.
                let engine = unsafe { &mut *engines_ptr.get().add(t) };
                engine.model.set_params_flat(params);
                let mut indices = Vec::with_capacity(chunk);
                for c in (t * span)..((t + 1) * span).min(n_chunks) {
                    indices.clear();
                    indices.extend(c * chunk..((c + 1) * chunk).min(n));
                    test.batch_into(&indices, &mut engine.x, &mut engine.y);
                    let stats = engine.model.evaluate(&engine.x, &engine.y);
                    unsafe {
                        *stats_ptr.get().add(c) = stats;
                    }
                }
            });
        }
        let mut loss_acc = 0.0f64;
        let mut metric_acc = 0.0f64;
        for (c, stats) in chunk_stats.iter().enumerate() {
            let count = ((c * chunk + chunk).min(n)) - c * chunk;
            loss_acc += stats.loss as f64 * count as f64;
            metric_acc += stats.metric as f64 * count as f64;
        }
        BatchStats {
            loss: (loss_acc / n as f64) as f32,
            metric: (metric_acc / n as f64) as f32,
        }
    }

    // --- cluster-condition hooks (heterogeneity and fault injection) ---------------

    /// The alive workers at `iteration`, in worker order.
    pub fn present_workers(&self, iteration: usize) -> Vec<usize> {
        self.cfg
            .conditions
            .present_workers(self.cfg.workers, iteration)
    }

    /// Seconds of one synchronous compute round at `iteration`: the batch compute time
    /// stretched by the slowest present worker's multiplier (for the benchmark harness;
    /// a run's own cost is [`report::price`]'s, like the next two).
    pub fn round_compute_seconds(&self, iteration: usize) -> f64 {
        let nominal = &self.engine.model.nominal;
        let conditions = &self.cfg.conditions;
        cost::compute_time_ms(nominal, self.cfg.batch_size, &self.cfg.device) / 1e3
            * conditions.slowest_present_multiplier(self.cfg.workers, iteration)
    }

    /// Seconds for the 1-bit status all-gather among `participants` under the network
    /// conditions at `iteration`.
    pub fn status_allgather_seconds_at(&self, iteration: usize, participants: usize) -> f64 {
        let net = self.cfg.conditions.network_at(iteration, &self.cfg.network);
        net.status_allgather_time(participants)
    }

    /// The sync apply ([`Replica::apply_sync`]) for `worker_ids`: each adopts the
    /// synchronized `params` (a broadcast restricted to the present workers; crashed
    /// workers keep their stale state) and records the round.
    pub fn set_params_of(&mut self, worker_ids: &[usize], params: &[f32]) {
        let round = self.step_index();
        for &w in worker_ids {
            self.replica_mut(w).apply_sync(round, params);
        }
    }

    /// Begin a synchronous round at `iteration` for drivers with a PS rejoin path:
    /// returns the present workers, and for every worker that was absent at the
    /// round before and is back now, performs the rejoin pull from `global`
    /// ([`Replica::rejoin`]) and prices the one-way transfer. Returns
    /// `(present, rejoin_comm_seconds, rejoin_bytes)`.
    pub fn begin_round(&mut self, iteration: usize, global: &[f32]) -> (Vec<usize>, f64, u64) {
        let present = self.present_workers(iteration);
        let (mut comm_s, mut bytes) = (0.0f64, 0u64);
        let wire = self.nominal().wire_bytes;
        let net = self.cfg.conditions.network_at(iteration, &self.cfg.network);
        for &w in &present {
            if self.cfg.conditions.rejoins(w, iteration) {
                self.replica_mut(w).rejoin(global);
                comm_s += net.ps_one_way_time(wire);
                bytes += wire;
                crate::tracing::emit_rejoin_pull(&self.cfg, iteration, w, || {
                    self.sync_rounds.last().copied()
                });
            }
        }
        (present, comm_s, bytes)
    }

    /// The index of the step being run: the count of previously accounted steps — for
    /// drivers that account exactly one step per iteration (all of them today), the
    /// training iteration. A step's sync applies read it, so they come before its
    /// [`Self::account_step`].
    fn step_index(&self) -> usize {
        self.lssr.total() as usize
    }

    /// Count one step, and whether it synchronized. The cost arguments are unused —
    /// the step's cost is [`report::price`]'s — and go once the benchmark harness stops
    /// passing them (ROADMAP A(iv)).
    pub fn account_step(&mut self, _compute_s: f64, _comm_s: f64, _bytes: u64, synced: bool) {
        if synced {
            self.sync_rounds.push(self.step_index());
            self.lssr.record_sync();
        } else {
            self.lssr.record_local();
        }
    }

    /// Record an evaluation point for `iteration` using the supplied parameters.
    pub fn record_eval(&mut self, iteration: usize, params: &[f32], cluster_delta: f32) {
        let stats = self.evaluate_params(params);
        let point = EvalPoint {
            iteration,
            // Priced with the run (`report::price`).
            sim_time_s: 0.0,
            // The most recent training step: the last worker of the last round.
            train_loss: (self.last_round_workers.last())
                .map_or(0.0, |&w| self.workers[w].last_loss),
            test_loss: stats.loss,
            test_metric: stats.metric,
            delta_g: cluster_delta,
            lr: self.lr_at(iteration),
        };
        self.history.push(point);
    }

    /// Whether `iteration` is an evaluation iteration.
    pub fn should_eval(&self, iteration: usize) -> bool {
        iteration.is_multiple_of(self.cfg.eval_every.max(1)) || iteration + 1 == self.cfg.iterations
    }

    /// The cost of the rounds run so far, with `history`'s points priced.
    fn price(&self, history: &mut [EvalPoint]) -> Cost {
        let (start, from) = self.priced_before;
        let (sync_rounds, injected) = (&self.sync_rounds, &self.injected);
        let rounds = start..self.step_index();
        report::price(&self.cfg, rounds, sync_rounds, injected, from, history)
    }

    /// Consume the simulator and produce the run report.
    pub fn finalize(mut self, algorithm: String) -> RunReport {
        let mut history = std::mem::take(&mut self.history);
        let cost = self.price(&mut history);
        let higher = self.engine.model.task.higher_is_better();
        let last = history.last().copied();
        let metrics = history.iter().map(|p| p.test_metric);
        let best = if higher {
            metrics.fold(f32::NEG_INFINITY, f32::max)
        } else {
            metrics.fold(f32::INFINITY, f32::min)
        };
        RunReport {
            algorithm,
            model: self.cfg.model,
            higher_is_better: higher,
            iterations: self.cfg.iterations,
            local_steps: self.lssr.local_steps,
            sync_steps: self.lssr.sync_steps,
            sync_rounds: self.sync_rounds,
            lssr: self.lssr.lssr(),
            final_metric: last.map(|p| p.test_metric).unwrap_or(0.0),
            best_metric: if history.is_empty() { 0.0 } else { best },
            final_loss: last.map(|p| p.test_loss).unwrap_or(f32::NAN),
            max_delta: self.max_delta_seen,
            sim_time_s: cost.compute_time_s + cost.comm_time_s,
            comm_time_s: cost.comm_time_s,
            compute_time_s: cost.compute_time_s,
            bytes_communicated: cost.bytes_communicated,
            // SSP never switches regimes; the rule-driven loop overwrites these from
            // its policy after finalization.
            policy_switches: 0,
            switch_rounds: Vec::new(),
            history,
        }
    }

    // --- checkpoint / resume -------------------------------------------------------

    /// The simulator's part of a recovery image ([`Checkpoint::assemble`]): one
    /// `worker<k>` section per worker ([`Replica::section`], exactly what that worker
    /// deposits on a cluster backend), then the `sim` section — what only the simulator
    /// measures (the priced cost of the rounds so far, the eval history, the run-wide
    /// max `Δ(g_i)`, which tracker restarts forget) or draws (the cluster RNG position
    /// and, because data-injection advances *other* workers' shards, the shard
    /// cursors). Must be called at a round boundary (after the round's updates,
    /// accounting and evaluation) — scratch buffers, engines and the round-gradient
    /// pool are rebuild-on-demand and deliberately not stored.
    pub fn recovery_sections(&self) -> Vec<Section> {
        let mut sections: Vec<Section> = self
            .workers
            .iter()
            .enumerate()
            .map(|(k, w)| w.section(self.first + k))
            .collect();

        let mut s = Section::new("sim");
        s.push_int(self.rng.word_pos());
        let cursors: Vec<u64> = self.workers.iter().map(|w| w.cursor as u64).collect();
        s.push_ints(&cursors);
        let mut history = self.history.clone();
        let cost = self.price(&mut history);
        s.push_f64(cost.compute_time_s);
        s.push_f64(cost.comm_time_s);
        s.push_int(cost.bytes_communicated);
        s.push_f32(self.max_delta_seen);
        s.push_usize(history.len());
        for p in &history {
            s.push_usize(p.iteration);
            s.push_f64(p.sim_time_s);
            s.push_f32(p.train_loss);
            s.push_f32(p.test_loss);
            s.push_f32(p.test_metric);
            s.push_f32(p.delta_g);
            s.push_f32(p.lr);
        }
        sections.push(s);
        sections
    }

    /// Restore a recovery image — any backend's — onto a freshly built simulator for
    /// the same configuration. Per-worker state comes from the `worker<k>` sections
    /// ([`Replica::restore`], which also recomputes the data-traversal position); the
    /// cluster-level cursors (forward counter, presence edge, schedule) are
    /// recomputed from the configuration exactly as a cluster worker recomputes its
    /// own. A cluster-written image has no `sim` section: the cost totals the run
    /// prices onward from and the eval history then restart at zero, and the run-wide
    /// max `Δ(g_i)` is the trackers'. A group of part of the cluster reads only its
    /// members' sections.
    pub fn restore_checkpoint(&mut self, ckpt: &Checkpoint) {
        let rounds = ckpt.round + 1;
        let mut sync_rounds = Vec::new();
        self.max_delta_seen = 0.0;
        for (k, w) in self.workers.iter_mut().enumerate() {
            w.restore(ckpt.worker_image(self.first + k), self.cfg.batch_size);
            self.max_delta_seen = self.max_delta_seen.max(w.tracker.max_delta());
            sync_rounds.extend_from_slice(&w.sync_rounds);
        }
        // A round synchronized iff any worker present at it did (all of them do), so
        // the union of the per-worker views is the cluster's schedule; every other
        // round the cluster ran is a local step.
        sync_rounds.sort_unstable();
        sync_rounds.dedup();
        self.lssr.sync_steps = sync_rounds.len() as u64;
        self.lssr.local_steps = rounds as u64 - self.lssr.sync_steps;
        self.sync_rounds = sync_rounds;
        self.priced_before = (rounds, Cost::default());
        self.forwards_issued = self
            .cfg
            .conditions
            .forwards_before(self.cfg.workers, rounds);

        let whole = self.workers.len() == self.cfg.workers;
        let Some(section) = ckpt.section("sim").filter(|_| whole) else {
            return;
        };
        let mut s = section.reader();
        self.rng.set_word_pos(s.int());
        for (w, cursor) in self.workers.iter_mut().zip(s.ints()) {
            w.cursor = cursor as usize;
        }
        self.priced_before.1 = Cost {
            compute_time_s: s.f64(),
            comm_time_s: s.f64(),
            bytes_communicated: s.int(),
        };
        self.max_delta_seen = s.f32();
        let n_history = s.usize();
        self.history = (0..n_history)
            .map(|_| EvalPoint {
                iteration: s.usize(),
                sim_time_s: s.f64(),
                train_loss: s.f32(),
                test_loss: s.f32(),
                test_metric: s.f32(),
                delta_g: s.f32(),
                lr: s.f32(),
            })
            .collect();
        s.finish();
    }

    /// Snapshot of one parameter tensor from the given parameters (used by the
    /// weight-distribution figure, Fig. 11): the `idx`-th tensor in flat-vector order
    /// (layer order, then each layer's tensors), empty past the last.
    pub fn layer_weights(&self, params: &[f32], idx: usize) -> Vec<f32> {
        use selsync_nn::layer::Layer;
        let lens = self.engine.model.network().param_lens();
        let start: usize = lens.iter().take(idx).sum();
        lens.get(idx)
            .map(|len| params[start..start + len].to_vec())
            .unwrap_or_default()
    }
}

/// The "on-disk" sample order the IID DefDP/SelDP partitions enumerate positions over:
/// label-grouped for classification tasks, natural order for the LM task. Shared by the
/// simulator and the threaded driver so both walk identical batch streams.
pub fn iid_sample_order(train: &Dataset, task: &TaskKind) -> Vec<usize> {
    match task {
        TaskKind::Classification { .. } => {
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.sort_by_key(|&i| (train.targets()[i], i));
            order
        }
        TaskKind::LanguageModel { .. } => (0..train.len()).collect(),
    }
}

/// The circular mini-batch traversal worker `w` walks under the configured data
/// regime ([`Replica::traversal`]): its label shard ([`noniid::label_sharded`], in
/// shard order) when `non_iid_labels_per_worker` is set; otherwise the positions of
/// its DefDP/SelDP partition, mapped through the on-disk order
/// ([`iid_sample_order`]) and shuffled per worker (a shuffling data loader over the
/// worker's partition). A pure function of the run configuration: all three
/// backends build their replicas from this, so they walk identical samples on IID
/// *and* non-IID runs. (Data-injection draws from the simulator's cluster RNG and
/// stays simulator-only.)
pub fn worker_traversal(
    cfg: &TrainConfig,
    train: &Dataset,
    iid_order: &[usize],
    w: usize,
) -> Vec<usize> {
    if let Some(labels) = cfg.non_iid_labels_per_worker {
        let mut split = noniid::label_sharded(train, cfg.workers, labels);
        return split.per_worker.swap_remove(w);
    }
    let part = WorkerPartition::build(cfg.partition, iid_order.len(), cfg.workers, w);
    let order: Vec<usize> = part.order().iter().map(|&p| iid_order[p]).collect();
    let mut worker_rng = rng::derived(cfg.seed, 0x0D_A7A0 + w as u64);
    let perm = rng::permutation(&mut worker_rng, order.len());
    perm.into_iter().map(|p| order[p]).collect()
}

/// The synthetic classification task a workload trains on, `samples` long — `None`
/// for the language model, which trains on token streams. The one place a model is
/// paired with its dataset, and so with its class count.
pub fn mixture_spec(model: ModelKind, samples: usize) -> Option<MixtureSpec> {
    match model {
        ModelKind::ResNetLike => Some(MixtureSpec::cifar10_like(samples)),
        ModelKind::VggLike => Some(MixtureSpec::cifar100_like(samples)),
        ModelKind::AlexLike => Some(MixtureSpec::imagenet_like(samples)),
        ModelKind::TransformerLike => None,
    }
}

/// Build the synthetic train/test datasets for the configured workload — the single
/// source of truth for what every backend trains on (the simulator, the threaded
/// driver, and the bench harness all share it).
pub fn build_datasets(cfg: &TrainConfig) -> (Dataset, Dataset) {
    let total = cfg.train_samples + cfg.test_samples;
    let seed = cfg.seed ^ 0xDA7A;
    let all = match mixture_spec(cfg.model, total) {
        Some(spec) => synthetic::gaussian_mixture(&spec, seed),
        None => synthetic::markov_tokens(&TokenSpec::wikitext_like(total), seed),
    };
    all.split(cfg.train_samples as f32 / total as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_data::partition::PartitionScheme;

    fn small_cfg() -> TrainConfig {
        let mut cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        cfg.train_samples = 512;
        cfg.test_samples = 128;
        cfg.iterations = 20;
        cfg
    }

    #[test]
    fn simulator_builds_consistent_state() {
        let cfg = small_cfg();
        let sim = Simulator::new(&cfg);
        assert_eq!(sim.num_workers(), 4);
        assert!(sim.param_dim() > 0);
        assert_eq!(sim.train.len(), 512);
        assert_eq!(sim.test.len(), 128);
        // All replicas start identical.
        assert_eq!(aggregation::replica_divergence(&sim.replicas()), 0.0);
    }

    #[test]
    fn next_batch_respects_batch_size_and_partition() {
        let mut cfg = small_cfg();
        cfg.partition = PartitionScheme::DefDp;
        let mut sim = Simulator::new(&cfg);
        let mut idx = Vec::new();
        let bytes = sim.fill_batch_indices(1, &mut idx);
        assert_eq!(idx.len(), cfg.batch_size);
        assert_eq!(bytes, 0);
        // DefDP enumerates a contiguous chunk of the label-grouped order, so a worker's
        // batch covers only a few of the 10 labels (the Fig. 9 failure mode).
        let mut labels: Vec<usize> = idx.iter().map(|&i| sim.train.targets()[i]).collect();
        labels.sort_unstable();
        labels.dedup();
        assert!(
            labels.len() <= 4,
            "DefDP batch should be label-skewed, saw {labels:?}"
        );
    }

    #[test]
    fn seldp_batches_cover_all_labels_over_time() {
        let mut cfg = small_cfg();
        cfg.partition = PartitionScheme::SelDp;
        let mut sim = Simulator::new(&cfg);
        let mut seen = std::collections::HashSet::new();
        let mut idx = Vec::new();
        // One full pass over the SelDP queue touches every label.
        for _ in 0..(sim.train.len() / cfg.batch_size) {
            sim.fill_batch_indices(0, &mut idx);
            seen.extend(idx.iter().map(|&i| sim.train.targets()[i]));
        }
        assert_eq!(seen.len(), sim.train.num_classes);
    }

    #[test]
    fn compute_and_apply_update_changes_only_that_worker() {
        let cfg = small_cfg();
        let mut sim = Simulator::new(&cfg);
        let mut steps = Vec::new();
        sim.plan_round(&[0], &mut steps);
        let _ = sim.run_round(&steps);
        assert!(sim.round_grads()[0].iter().any(|&g| g != 0.0));
        sim.apply_round_own(&steps, 0.05);
        assert!(aggregation::replica_divergence(&sim.replicas()) > 0.0);
        // Averaging and broadcasting collapses divergence again.
        let avg = sim.average_params();
        sim.set_all_params(&avg);
        assert_eq!(aggregation::replica_divergence(&sim.replicas()), 0.0);
    }

    #[test]
    fn accounting_distinguishes_local_and_sync_steps() {
        let cfg = small_cfg();
        let mut sim = Simulator::new(&cfg);
        sim.account_step(0.1, 0.0, 0, false);
        sim.account_step(0.1, 2.0, 1_000, true);
        let report = sim.finalize("test".into());
        assert_eq!(report.local_steps, 1);
        assert_eq!(report.sync_steps, 1);
        assert!((report.lssr - 0.5).abs() < 1e-9);
        // The cost is the schedule's price, whatever the steps were handed.
        let cost = report::price(&cfg, 0..2, &[1], &[], Cost::default(), &mut []);
        assert!(cost.bytes_communicated > 1_000);
        assert_eq!(report.bytes_communicated, cost.bytes_communicated);
        assert_eq!(report.sim_time_s, cost.compute_time_s + cost.comm_time_s);
    }

    #[test]
    fn evaluation_produces_finite_metrics() {
        let cfg = small_cfg();
        let mut sim = Simulator::new(&cfg);
        let params = sim.workers[0].params.clone();
        let stats = sim.evaluate_params(&params);
        assert!(stats.loss.is_finite());
        assert!(stats.metric >= 0.0);
    }

    #[test]
    fn timing_helpers_are_positive_and_ordered() {
        let cfg = small_cfg();
        let sim = Simulator::new(&cfg);
        assert!(sim.round_compute_seconds(0) > 0.0);
        let status = |n| sim.status_allgather_seconds_at(0, n);
        assert!(status(4) > 0.0 && status(16) > status(4));
    }

    #[test]
    fn run_round_matches_the_legacy_per_worker_calls() {
        // plan_round + run_round + apply_round_own on one simulator must equal a
        // hand-written per-worker loop over the replica's phase methods (draw, compute,
        // apply-local, one worker after the other on the shared engine) on a twin,
        // byte for byte — including cursor/RNG streams across several rounds.
        let cfg = small_cfg();
        let mut a = Simulator::new(&cfg);
        let mut b = Simulator::new(&cfg);
        let present: Vec<usize> = (0..cfg.workers).collect();
        let mut steps = Vec::new();
        let (mut idx, mut g) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            a.plan_round(&present, &mut steps);
            let round = a.run_round(&steps);
            a.apply_round_own(&steps, 0.05);

            for (i, &w) in present.iter().enumerate() {
                let inj = b.fill_batch_indices(w, &mut idx);
                assert_eq!(idx, steps[i].indices, "worker {w} batch");
                assert_eq!(inj, steps[i].injected_bytes);
                let (stats, d) =
                    b.workers[w].compute(&mut b.engine, &b.train, &idx, b.forwards_issued, &mut g);
                b.forwards_issued += 1;
                assert_eq!(stats, round.stats[i], "worker {w} stats");
                assert_eq!(g, a.round_grads()[i], "worker {w} grads");
                assert_eq!(d, round.deltas[i], "worker {w} delta");
                assert_eq!(d, b.workers[w].tracker.last_delta());
                b.workers[w].apply_local(&g, 0.05);
            }
            for &w in &present {
                assert_eq!(
                    a.workers[w].params, b.workers[w].params,
                    "worker {w} params"
                );
            }
        }
    }

    #[test]
    fn a_step_round_is_run_round_then_apply_round_own() {
        // The fused phase against the two-phase pair on a twin, over several rounds, on
        // the parallel engines at 1 and 3 threads and on the sequential reference path.
        let cfg = small_cfg();
        let present: Vec<usize> = (0..cfg.workers).collect();
        for mode in 0..3 {
            let (mut a, mut b) = (Simulator::new(&cfg), Simulator::new(&cfg));
            let (mut steps_a, mut steps_b) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                a.plan_round(&present, &mut steps_a);
                b.plan_round(&present, &mut steps_b);
                let fused = |a: &mut Simulator| a.step_round(&steps_a, 0.05);
                let got = match mode {
                    0 => with_sequential_rounds(|| fused(&mut a)),
                    t => par::with_threads(2 * t - 1, || fused(&mut a)),
                };
                let want = b.run_round(&steps_b);
                b.apply_round_own(&steps_b, 0.05);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "mode {mode}");
                assert!(a.round_grads().is_empty());
                for (x, y) in a.workers.iter().zip(&b.workers) {
                    assert_eq!(x.params, y.params, "mode {mode}");
                    assert_eq!(x.optimizer.export_state(), y.optimizer.export_state());
                    assert_eq!(x.progress, y.progress);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "apply_round_own without run_round")]
    fn a_step_round_leaves_no_gradient_to_apply() {
        let mut sim = Simulator::new(&small_cfg());
        let mut steps = Vec::new();
        sim.plan_round(&[0, 1], &mut steps);
        sim.step_round(&steps, 0.05);
        sim.apply_round_own(&steps, 0.05);
    }

    #[test]
    fn sequential_rounds_mode_matches_the_parallel_engines() {
        let cfg = small_cfg();
        let present: Vec<usize> = (0..cfg.workers).collect();
        let mut steps_a = Vec::new();
        let mut steps_b = Vec::new();
        let mut a = Simulator::new(&cfg);
        let mut b = Simulator::new(&cfg);
        a.plan_round(&present, &mut steps_a);
        b.plan_round(&present, &mut steps_b);
        let parallel = a.run_round(&steps_a);
        let sequential = with_sequential_rounds(|| b.run_round(&steps_b));
        assert_eq!(format!("{parallel:?}"), format!("{sequential:?}"));
        assert_eq!(a.round_grads(), b.round_grads());
    }

    #[test]
    fn parallel_evaluation_matches_the_sequential_baseline_bitwise() {
        let mut cfg = small_cfg();
        cfg.eval_samples = 300; // 3 chunks: exercises the partial-sum merge
        let mut a = Simulator::new(&cfg);
        let mut b = Simulator::new(&cfg);
        let params = a.workers[0].params.clone();
        let parallel = a.evaluate_params(&params);
        let sequential = with_sequential_rounds(|| b.evaluate_params(&params));
        assert_eq!(parallel.loss.to_bits(), sequential.loss.to_bits());
        assert_eq!(parallel.metric.to_bits(), sequential.metric.to_bits());
        // Evaluation must not perturb training state.
        assert_eq!(a.forwards_issued, 0);
        let pos_before = a.rng.word_pos();
        let _ = a.evaluate_params(&params);
        assert_eq!(a.rng.word_pos(), pos_before);
    }

    #[test]
    fn checkpoint_sections_round_trip_and_continue_bit_identically() {
        let cfg = small_cfg();
        let mut a = Simulator::new(&cfg);
        let present: Vec<usize> = (0..cfg.workers).collect();
        let mut steps = Vec::new();
        for it in 0..4 {
            a.plan_round(&present, &mut steps);
            let _ = a.run_round(&steps);
            a.apply_round_own(&steps, 0.05);
            if it % 2 == 0 {
                let avg = a.average_params();
                a.set_params_of(&present, &avg);
            }
            a.account_step(0.1, 0.2, 64, it % 2 == 0);
        }
        let params = a.workers[0].params.clone();
        a.record_eval(3, &params, 0.01);

        // The driver's share of the image: the synchronized global and the δ-policy
        // state — neither is the simulator's to restore.
        let ps = selsync_comm::ps::PsState::new(params, cfg.snapshot_depth());
        let board = crate::policy::PolicyState::default();
        let ckpt = Checkpoint::assemble(
            "sim",
            &cfg,
            3,
            &ps,
            &board,
            a.recovery_sections(),
            &selsync_tracelog::EventLog::default(),
        );
        // Codec round-trip in the middle, so what continues is what a file stores.
        let ckpt = Checkpoint::decode(&ckpt.encode()).expect("decode");
        let mut b = Simulator::new(&cfg);
        b.restore_checkpoint(&ckpt);

        assert_eq!(b.rng.word_pos(), a.rng.word_pos());
        assert_eq!(b.forwards_issued, a.forwards_issued);
        assert_eq!(b.sync_rounds, a.sync_rounds);
        assert_eq!(b.lssr, a.lssr);
        // The image holds the history priced; the run holds it unpriced until its end.
        let mut history = a.history.clone();
        assert_eq!(b.price(&mut []), a.price(&mut history));
        assert_eq!(b.history, history);
        // Continue both for two more rounds: plans, outputs and replicas must agree
        // byte for byte.
        let mut steps_b = Vec::new();
        for _ in 0..2 {
            a.plan_round(&present, &mut steps);
            b.plan_round(&present, &mut steps_b);
            for (sa, sb) in steps.iter().zip(steps_b.iter()) {
                assert_eq!(sa.indices, sb.indices);
                assert_eq!(sa.forward_index, sb.forward_index);
            }
            let ra = a.run_round(&steps);
            let rb = b.run_round(&steps_b);
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
            a.apply_round_own(&steps, 0.05);
            b.apply_round_own(&steps_b, 0.05);
        }
        for w in 0..cfg.workers {
            assert_eq!(a.workers[w].params, b.workers[w].params, "worker {w}");
        }
        let ea = a.evaluate_params(&a.workers[0].params.clone());
        let eb = b.evaluate_params(&b.workers[0].params.clone());
        assert_eq!(ea.loss.to_bits(), eb.loss.to_bits());

        // Second input: traversals of unequal length (label shards) and unequal step
        // counts (a crash window), through the SelSync driver, halted mid-run. Resumed
        // from the full image the shard cursors are the stored ints; with the
        // trailing `sim` section removed — what a cluster-written image looks like —
        // they come from `Replica::restore`'s recompute. Both must continue to the
        // uninterrupted trace and synchronization schedule.
        use crate::algorithms::selsync::{run, run_resumed};
        use selsync_tracelog::{TraceGranularity, TraceSink};
        let dir =
            std::env::temp_dir().join(format!("selsync-sim-cursor-test-{}", std::process::id()));
        let make = || {
            let mut c = small_cfg();
            c.algorithm = AlgorithmSpec::selsync(0.05);
            c.non_iid_labels_per_worker = Some(3);
            c.conditions = crate::conditions::ClusterConditions::uniform().with_fault(
                crate::conditions::FaultEvent::Crash {
                    worker: 3,
                    start: 4,
                    rejoin: Some(9),
                },
            );
            // A signal-consuming policy logs every round's mean loss and max Δ(g_i),
            // so the trace is sensitive to which samples each worker drew.
            c.delta_policy = Some(crate::policy::PolicySpec::Adaptive {
                delta_explore: 0.05,
                delta_exploit: 0.5,
                factor: 0.15,
                warmup: 8,
                settle: 0.05,
                patience: 4,
                spike: 2.5,
            });
            c.trace = TraceSink::capture(TraceGranularity::Full);
            c
        };
        let full_cfg = make();
        let full = run(&full_cfg);
        let full_trace = full_cfg.trace.take_log().encode();
        assert!(!full.sync_rounds.is_empty() && full.local_steps > 0);

        let mut halted_cfg = make();
        halted_cfg.checkpoint = Some(crate::config::CheckpointSpec {
            every: 100,
            dir: dir.to_string_lossy().into_owned(),
            halt_after: Some(11),
            keep: None,
        });
        let _ = run(&halted_cfg);
        let image = Checkpoint::read_file(dir.join("ckpt-11")).expect("checkpoint reads back");
        std::fs::remove_dir_all(&dir).ok();
        let lens: Vec<usize> = Simulator::new(&make())
            .workers
            .iter()
            .map(|w| w.traversal.len())
            .collect();
        assert!(lens.iter().any(|&l| l != lens[0]), "shards {lens:?}");

        let mut stripped = image.clone();
        assert_eq!(
            stripped.sections.pop().map(|s| s.name).as_deref(),
            Some("sim")
        );
        for (ckpt, whole) in [(&image, true), (&stripped, false)] {
            let resumed_cfg = make();
            let resumed = run_resumed(&resumed_cfg, ckpt);
            assert_eq!(resumed_cfg.trace.take_log().encode(), full_trace);
            assert_eq!(resumed.sync_rounds, full.sync_rounds);
            if whole {
                assert_eq!(format!("{resumed:?}"), format!("{full:?}"));
            }
        }
    }

    #[test]
    #[should_panic]
    fn round_worker_lists_must_be_strictly_increasing() {
        let cfg = small_cfg();
        let mut sim = Simulator::new(&cfg);
        let mut steps = Vec::new();
        sim.plan_round(&[1, 1], &mut steps);
    }

    #[test]
    fn non_iid_workers_draw_from_their_shards() {
        let mut cfg = small_cfg();
        cfg.workers = 10;
        cfg.non_iid_labels_per_worker = Some(1);
        let mut sim = Simulator::new(&cfg);
        let mut idx = Vec::new();
        sim.fill_batch_indices(3, &mut idx);
        let labels: Vec<usize> = idx.iter().map(|&i| sim.train.targets()[i]).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 1, "a 1-label shard must yield a single label");
    }
}
