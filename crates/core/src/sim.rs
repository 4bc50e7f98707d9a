//! The deterministic single-process cluster simulator.
//!
//! All algorithm drivers ([`crate::algorithms`]) share this harness. It owns:
//!
//! * the synthetic train/test datasets for the configured workload,
//! * one model replica's worth of parameters **per worker**, plus a pool of compute
//!   engines: one `PaperModel` per round slot for the worker-parallel gradient phase
//!   (parameters are loaded before each worker's forward/backward pass) and one shared
//!   engine for evaluation and the sequential reference path,
//! * per-worker optimizers and `Δ(g_i)` trackers,
//! * the simulated clock: compute time comes from the device cost model, communication
//!   time from the network cost model, with identical accounting for every algorithm,
//! * LSSR bookkeeping and the evaluation history that becomes the [`RunReport`].
//!
//! Since the worker-parallel rounds PR, the per-worker gradient phase of every round
//! runs concurrently on the shared worker pool ([`selsync_tensor::par`]) through
//! [`Simulator::plan_round`] / [`Simulator::run_round`]: batch indices are drawn up
//! front from each worker's own cursor/RNG stream (so batch content is independent of
//! thread count), every worker's forward/backward runs on its own engine slot with the
//! dropout stream seeked to the canonical sequential position, and all shared state
//! (`BatchStats`, `Δ(g_i)` trackers, `max_delta_seen`) is merged in worker-index order
//! after the barrier. Reports are therefore bit-for-bit identical across
//! `SELSYNC_THREADS` values *and* to the sequential baseline path
//! ([`with_sequential_rounds`]); the *threaded* driver in [`crate::threaded`] exercises
//! the real parameter server / collectives for the same algorithm logic.

use crate::aggregation;
use crate::checkpoint::{Checkpoint, Section, WorkerCore, WorkerImage};
use crate::config::{AlgorithmSpec, TrainConfig};
use crate::policy::RoundSignal;
use crate::report::{EvalPoint, RunReport};
use crate::tracker::GradientTracker;
use selsync_data::dataset::Dataset;
use selsync_data::injection::DataInjection;
use selsync_data::noniid;
use selsync_data::partition::WorkerPartition;
use selsync_data::synthetic::{self, MixtureSpec, TokenSpec};
use selsync_metrics::lssr::LssrCounter;
use selsync_nn::cost;
use selsync_nn::model::{BatchStats, ModelKind, NominalFootprint, PaperModel, TaskKind};
use selsync_nn::optim::Optimizer;
use selsync_tensor::par::{self, SendPtr};
use selsync_tensor::rng::{self, SelRng};
use selsync_tensor::Tensor;

/// Per-worker replica state.
pub struct WorkerState {
    /// Worker id (rank).
    pub id: usize,
    /// Flat model parameters of this worker's replica.
    pub params: Vec<f32>,
    /// This worker's optimizer (momentum / Adam state is per worker, as on a real cluster).
    pub optimizer: Box<dyn Optimizer>,
    /// This worker's `Δ(g_i)` tracker.
    pub tracker: GradientTracker,
    /// IID traversal order: the dataset indices this worker walks circularly, derived
    /// from its DefDP/SelDP partition over the on-disk order and then shuffled per
    /// worker (mini-batches are mixed, exactly like a shuffling data loader over the
    /// worker's partition). `None` when training non-IID.
    pub iid_traversal: Option<Vec<usize>>,
    /// Non-IID shard indices (None when training IID).
    pub shard: Option<Vec<usize>>,
    shard_cursor: usize,
    /// Relative gradient change observed at the most recent step.
    pub last_delta: f32,
    /// Training loss of this worker's most recent step.
    pub last_loss: f32,
    /// Number of iterations this worker has completed (used by SSP).
    pub progress: usize,
}

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
    /// Total data-injection bytes of the round.
    pub injected_bytes: u64,
}

impl RoundOutput {
    /// Mean training loss over the round's steps (0 for an empty round).
    pub fn mean_loss(&self) -> f32 {
        if self.stats.is_empty() {
            return 0.0;
        }
        self.stats.iter().map(|s| s.loss).sum::<f32>() / self.stats.len() as f32
    }

    /// The cluster-level [`RoundSignal`] a [`crate::policy::DeltaPolicy`] observes for
    /// this round: the round-maximum `Δ(g_i)`, the mean batch loss, the Δ moment
    /// feed (mean of `Δ(g_i)` and of `Δ(g_i)²`), and whether the round
    /// synchronized. Everything here is merged in worker-index order — the moment
    /// sums fold exactly like the threaded driver's elementwise worker-order vector
    /// all-reduce — so the signal, and therefore every policy decision, is
    /// bit-identical across backends and thread counts.
    pub fn signal(&self, iteration: usize, synced: bool) -> RoundSignal {
        let (delta_mean, delta_sq_mean) = if self.deltas.is_empty() {
            (0.0, 0.0)
        } else {
            let mut sum = 0.0f32;
            let mut sq_sum = 0.0f32;
            for &d in &self.deltas {
                sum += d;
                sq_sum += d * d;
            }
            let n = self.deltas.len() as f32;
            (sum / n, sq_sum / n)
        };
        RoundSignal {
            iteration,
            max_delta: self.max_delta,
            mean_loss: self.mean_loss(),
            delta_mean,
            delta_sq_mean,
            synced,
        }
    }
}

/// A compute engine of the round pool: one model replica plus reusable batch buffers.
/// [`Simulator::run_round`] partitions a round's slots into fixed contiguous chunks
/// (one engine per chunk, at most one engine per pool thread). Which engine runs a
/// slot therefore depends on the thread count — but never on scheduling — and engine
/// identity cannot affect values: parameters are loaded fresh per step, the dropout
/// stream is seeked to the step's global position, and a forward pass overwrites
/// every layer cache its backward reads.
struct RoundEngine {
    model: PaperModel,
    x: Tensor,
    y: Vec<usize>,
}

impl RoundEngine {
    fn new(kind: ModelKind, seed: u64) -> Self {
        RoundEngine {
            model: PaperModel::build(kind, seed),
            x: Tensor::zeros(0, 0),
            y: Vec::new(),
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

/// The shared simulator.
pub struct Simulator {
    /// The run configuration.
    pub cfg: TrainConfig,
    model: PaperModel,
    /// Synthetic training set.
    pub train: Dataset,
    /// Synthetic held-out set.
    pub test: Dataset,
    /// Per-worker replica state.
    pub workers: Vec<WorkerState>,
    injection: Option<DataInjection>,
    lssr: LssrCounter,
    /// Step indices at which [`Self::account_step`] recorded a synchronization — the
    /// run's synchronization schedule (see [`RunReport::sync_rounds`]).
    sync_rounds: Vec<usize>,
    history: Vec<EvalPoint>,
    compute_time_s: f64,
    comm_time_s: f64,
    bytes_communicated: u64,
    /// RNG for cluster-level stochastic decisions (FedAvg participant selection,
    /// data-injection donor choice, SSP scheduling jitter).
    pub rng: SelRng,
    last_train_loss: f32,
    max_delta_seen: f32,
    /// The last iteration [`Self::begin_round`] processed (rejoin detection).
    last_round: Option<usize>,
    /// Per-slot compute engines for worker-parallel rounds (grown lazily to the
    /// largest round width seen).
    engines: Vec<RoundEngine>,
    /// Per-step flat gradients of the most recent [`Self::run_round`] (buffers reused
    /// round to round).
    round_grads: Vec<Vec<f32>>,
    /// Number of valid entries in [`Self::round_grads`] after the last round.
    last_round_len: usize,
    /// Worker id behind each slot of [`Self::round_grads`] (alignment checks for
    /// [`Self::apply_round_own`]).
    last_round_workers: Vec<usize>,
    /// Global training-forward counter: the canonical sequential position of the next
    /// forward pass, used to seek per-engine dropout streams.
    forwards_issued: u64,
    /// Reusable evaluation / sequential-path batch buffers.
    eval_indices: Vec<usize>,
    eval_x: Tensor,
    eval_y: Vec<usize>,
}

impl Simulator {
    /// Build a simulator (datasets, model, worker replicas) from a configuration.
    pub fn new(cfg: &TrainConfig) -> Self {
        let (train, test) = build_datasets(cfg);
        let model = PaperModel::build(cfg.model, cfg.seed);
        let init_params = model.params_flat();

        let injection = match cfg.algorithm {
            AlgorithmSpec::SelSync { injection, .. } => injection,
            _ => None,
        };

        // Non-IID shards (if configured) are built once over the training set.
        let shards: Option<Vec<Vec<usize>>> = cfg
            .non_iid_labels_per_worker
            .map(|labels| noniid::label_sharded(&train, cfg.workers, labels).per_worker);

        // IID partitions enumerate positions over the label-grouped ("on-disk") sample
        // order for classification tasks, and the natural order for the LM task.
        let iid_order = iid_sample_order(&train, &model.task);

        let workers = (0..cfg.workers)
            .map(|w| {
                let (iid_traversal, shard) = match &shards {
                    Some(s) => (None, Some(s[w].clone())),
                    None => (Some(worker_iid_traversal(cfg, &iid_order, w)), None),
                };
                let ewma_factor = (cfg.workers as f32 / 100.0).clamp(0.01, 1.0);
                WorkerState {
                    id: w,
                    params: init_params.clone(),
                    optimizer: cfg.optimizer.build(),
                    tracker: GradientTracker::new(
                        crate::tracker::GradStatistic::SqNorm,
                        ewma_factor,
                        cfg.ewma_window,
                    ),
                    iid_traversal,
                    shard,
                    shard_cursor: 0,
                    last_delta: 0.0,
                    last_loss: 0.0,
                    progress: 0,
                }
            })
            .collect();

        // Compile comm-fault evictions into the membership schedule up front: every
        // presence query below (all algorithm drivers, round planning, trace
        // context) then sees fault-driven evictions exactly like scheduled crashes.
        // Idempotent — an evicted worker is absent from its eviction round on, so
        // recompiling cannot add further crashes.
        let mut cfg = cfg.clone();
        cfg.conditions = cfg.effective_conditions();
        let rng = rng::derived(cfg.seed, 0xC1A5);

        Simulator {
            cfg,
            model,
            train,
            test,
            workers,
            injection,
            lssr: LssrCounter::new(),
            sync_rounds: Vec::new(),
            history: Vec::new(),
            compute_time_s: 0.0,
            comm_time_s: 0.0,
            bytes_communicated: 0,
            rng,
            last_train_loss: 0.0,
            max_delta_seen: 0.0,
            last_round: None,
            engines: Vec::new(),
            round_grads: Vec::new(),
            last_round_len: 0,
            last_round_workers: Vec::new(),
            forwards_issued: 0,
            eval_indices: Vec::new(),
            eval_x: Tensor::zeros(0, 0),
            eval_y: Vec::new(),
        }
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of scalar model parameters.
    pub fn param_dim(&self) -> usize {
        self.model.param_count()
    }

    /// Nominal paper-scale footprint of the configured model.
    pub fn nominal(&self) -> NominalFootprint {
        self.model.nominal
    }

    /// Whether larger test metrics are better for this workload.
    pub fn higher_is_better(&self) -> bool {
        self.model.task.higher_is_better()
    }

    /// Draw the next mini-batch of sample indices for `worker`, returning the indices
    /// and the number of bytes transferred for data-injection (0 without injection).
    pub fn next_batch(&mut self, worker: usize) -> (Vec<usize>, u64) {
        let mut indices = Vec::new();
        let bytes = self.fill_batch_indices(worker, &mut indices);
        (indices, bytes)
    }

    /// [`Self::next_batch`] into a caller-owned buffer (cleared first) — the zero-alloc
    /// planning path. Cursor and RNG advancement is identical to `next_batch`.
    pub fn fill_batch_indices(&mut self, worker: usize, out: &mut Vec<usize>) -> u64 {
        let batch = self.cfg.batch_size;
        out.clear();
        // Non-IID path (with or without injection).
        if self.workers[worker].shard.is_some() {
            if let Some(inj) = self.injection {
                let mut cursors: Vec<usize> = self.workers.iter().map(|w| w.shard_cursor).collect();
                let shards: Vec<&[usize]> = self
                    .workers
                    .iter()
                    .map(|w| w.shard.as_deref().unwrap_or(&[]))
                    .collect();
                let assembled = inj.assemble_batch(
                    worker,
                    &shards,
                    &mut cursors,
                    batch,
                    self.train.sample_bytes,
                    &mut self.rng,
                );
                for (w, c) in cursors.into_iter().enumerate() {
                    self.workers[w].shard_cursor = c;
                }
                out.extend_from_slice(&assembled.local_indices);
                out.extend(assembled.injected.iter().map(|&(_, i)| i));
                return assembled.bytes_received as u64;
            }
            // Plain non-IID: walk the worker's own shard circularly (borrowed in
            // place — no per-call shard clone).
            let w = &mut self.workers[worker];
            let shard = w.shard.as_ref().expect("non-IID worker must have a shard");
            let mut cursor = w.shard_cursor;
            for _ in 0..batch {
                out.push(shard[cursor % shard.len()]);
                cursor += 1;
            }
            w.shard_cursor = cursor % shard.len();
            return 0;
        }
        // IID path: walk the worker's (shuffled) DefDP/SelDP traversal circularly.
        let w = &mut self.workers[worker];
        let traversal = w
            .iid_traversal
            .as_ref()
            .expect("IID worker must have a traversal order");
        let mut cursor = w.shard_cursor;
        for _ in 0..batch {
            out.push(traversal[cursor % traversal.len()]);
            cursor += 1;
        }
        w.shard_cursor = cursor % traversal.len();
        0
    }

    /// Run a forward/backward pass for `worker` on the given samples, returning the
    /// batch statistics and the flat gradient. The worker's replica parameters are
    /// loaded into the shared compute engine first, and the dropout stream is seeked
    /// to the global forward counter (identical to letting the stateful stream run).
    pub fn compute_gradient(&mut self, worker: usize, indices: &[usize]) -> (BatchStats, Vec<f32>) {
        let (x, y) = self.train.batch(indices);
        self.model.set_params_flat(&self.workers[worker].params);
        self.model.seek_dropout(self.forwards_issued);
        self.forwards_issued += 1;
        let stats = self.model.forward_backward(&x, &y);
        self.last_train_loss = stats.loss;
        self.workers[worker].last_loss = stats.loss;
        (stats, self.model.grads_flat())
    }

    /// Update `worker`'s `Δ(g_i)` tracker with this step's gradient and return the delta.
    pub fn track_delta(&mut self, worker: usize, grads: &[f32]) -> f32 {
        let delta = self.workers[worker].tracker.update(grads);
        self.workers[worker].last_delta = delta;
        self.max_delta_seen = self.max_delta_seen.max(delta);
        delta
    }

    /// Apply a gradient to `worker`'s replica through its optimizer at learning rate `lr`.
    pub fn apply_update(&mut self, worker: usize, grads: &[f32], lr: f32) {
        let w = &mut self.workers[worker];
        w.optimizer.step(&mut w.params, grads, lr);
        w.progress += 1;
    }

    // --- worker-parallel rounds ----------------------------------------------------

    /// Plan one training round for the given (strictly increasing) worker list: draw
    /// every worker's batch indices in worker order — so cursor and cluster-RNG
    /// streams advance exactly as the sequential loop did — and stamp each step with
    /// its global forward index. `steps` is reused across rounds (cleared and
    /// refilled, index buffers kept).
    pub fn plan_round(&mut self, present: &[usize], steps: &mut Vec<WorkerStep>) {
        assert_valid_round_workers(present.iter().copied(), self.workers.len());
        steps.truncate(present.len());
        while steps.len() < present.len() {
            steps.push(WorkerStep::default());
        }
        for (step, &w) in steps.iter_mut().zip(present.iter()) {
            step.worker = w;
            step.injected_bytes = self.fill_batch_indices(w, &mut step.indices);
            step.forward_index = self.forwards_issued;
            self.forwards_issued += 1;
        }
    }

    /// Execute the gradient phase of a planned round: every step's forward/backward
    /// pass and `Δ(g_i)` tracker update, spread across the worker pool (a fixed-chunk
    /// partition of the steps, one engine per chunk), then merge the shared-state
    /// updates in worker-index order.
    ///
    /// Per-step flat gradients land in [`Self::round_grads`]. Results are bit-identical
    /// for every thread count and to the sequential baseline ([`with_sequential_rounds`]):
    /// batches were drawn at planning time, engines seek the canonical dropout-stream
    /// position before each forward, kernels are order-preserving, every worker's
    /// tracker/optimizer state is its own, and a step's outcome is independent of
    /// *which* engine runs it (parameters are loaded fresh and the forward pass
    /// overwrites every layer cache its backward reads).
    pub fn run_round(&mut self, steps: &[WorkerStep]) -> RoundOutput {
        let n = steps.len();
        assert_valid_round_workers(steps.iter().map(|s| s.worker), self.workers.len());
        self.last_round_workers.clear();
        self.last_round_workers
            .extend(steps.iter().map(|s| s.worker));
        let mut output = RoundOutput {
            stats: vec![
                BatchStats {
                    loss: 0.0,
                    metric: 0.0
                };
                n
            ],
            deltas: vec![0.0f32; n],
            max_delta: 0.0,
            injected_bytes: 0,
        };
        self.last_round_len = n;
        if n == 0 {
            return output;
        }
        if self.round_grads.len() < n {
            self.round_grads.resize_with(n, Vec::new);
        }

        if SEQUENTIAL_ROUNDS.with(|c| c.get()) {
            // Reference path: the pre-parallel sequential baseline — one shared
            // engine, workers processed in order, stateful-equivalent dropout seeks.
            for (i, step) in steps.iter().enumerate() {
                self.train
                    .batch_into(&step.indices, &mut self.eval_x, &mut self.eval_y);
                self.model
                    .set_params_flat(&self.workers[step.worker].params);
                self.model.seek_dropout(step.forward_index);
                let stats = self.model.forward_backward(&self.eval_x, &self.eval_y);
                self.model.grads_flat_into(&mut self.round_grads[i]);
                let wstate = &mut self.workers[step.worker];
                let delta = wstate.tracker.update(&self.round_grads[i]);
                wstate.last_delta = delta;
                wstate.last_loss = stats.loss;
                output.stats[i] = stats;
                output.deltas[i] = delta;
            }
        } else {
            // Fixed-chunk partition over the round's slots: task `t` owns steps
            // `[t*chunk, (t+1)*chunk)` and walks them in order on engine `t`, so at
            // most `threads` engines ever exist and the slot→engine map is a pure
            // function of the partition — never of scheduling. Engine identity cannot
            // affect values (see the method docs), so neither can the thread count.
            let threads = par::current_num_threads().clamp(1, n);
            let chunk = n.div_ceil(threads);
            let tasks = n.div_ceil(chunk);
            while self.engines.len() < tasks {
                self.engines
                    .push(RoundEngine::new(self.cfg.model, self.cfg.seed));
            }
            let engines_ptr = SendPtr(self.engines.as_mut_ptr());
            let workers_ptr = SendPtr(self.workers.as_mut_ptr());
            let grads_ptr = SendPtr(self.round_grads.as_mut_ptr());
            let stats_ptr = SendPtr(output.stats.as_mut_ptr());
            let deltas_ptr = SendPtr(output.deltas.as_mut_ptr());
            let train = &self.train;
            par::parallel_for(tasks, |t| {
                // SAFETY: each task owns engine `t` and a disjoint slot range (so the
                // grads/stats/deltas writes are disjoint), and worker ids are strictly
                // increasing and in bounds (asserted above) so the worker writes are
                // disjoint too; `parallel_for` blocks until all tasks finish, so the
                // borrows outlive every use.
                let engine = unsafe { &mut *engines_ptr.get().add(t) };
                let hi = ((t + 1) * chunk).min(n);
                for (i, step) in steps.iter().enumerate().take(hi).skip(t * chunk) {
                    let wstate = unsafe { &mut *workers_ptr.get().add(step.worker) };
                    let grads = unsafe { &mut *grads_ptr.get().add(i) };
                    train.batch_into(&step.indices, &mut engine.x, &mut engine.y);
                    engine.model.set_params_flat(&wstate.params);
                    engine.model.seek_dropout(step.forward_index);
                    let stats = engine.model.forward_backward(&engine.x, &engine.y);
                    engine.model.grads_flat_into(grads);
                    let delta = wstate.tracker.update(grads);
                    wstate.last_delta = delta;
                    wstate.last_loss = stats.loss;
                    unsafe {
                        *stats_ptr.get().add(i) = stats;
                        *deltas_ptr.get().add(i) = delta;
                    }
                }
            });
        }

        // Merge shared state in worker-index order, exactly like the sequential loop.
        for (i, step) in steps.iter().enumerate() {
            output.injected_bytes += step.injected_bytes;
            output.max_delta = output.max_delta.max(output.deltas[i]);
            self.max_delta_seen = self.max_delta_seen.max(output.deltas[i]);
        }
        if let Some(last) = output.stats.last() {
            self.last_train_loss = last.loss;
        }
        output
    }

    /// Per-step flat gradients of the most recent [`Self::run_round`], in step order.
    pub fn round_grads(&self) -> &[Vec<f32>] {
        &self.round_grads[..self.last_round_len]
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

    /// Apply each step's own gradient ([`Self::round_grads`]) to its worker's replica,
    /// in parallel across workers. Optimizer state is per worker and the per-element
    /// update order is unchanged, so the result is bit-identical to the sequential
    /// apply loop.
    pub fn apply_round_own(&mut self, steps: &[WorkerStep], lr: f32) {
        let n = steps.len();
        assert!(
            n <= self.last_round_len,
            "apply_round_own without run_round"
        );
        // Slot i of round_grads belongs to the i-th worker of the last run_round;
        // applying a different or shifted step list would silently train the wrong
        // workers, so require exact alignment.
        for (i, step) in steps.iter().enumerate() {
            assert_eq!(
                step.worker, self.last_round_workers[i],
                "apply_round_own steps must align with the last run_round"
            );
        }
        let Simulator {
            workers,
            round_grads,
            ..
        } = self;
        // When the cluster is narrower than the pool, worker-level tasks would waste
        // threads (an outer parallel_for marks its tasks in-pool, serialising the
        // optimizers' elementwise sweeps); a sequential worker loop then keeps the
        // PR 2 element-level parallelism. Either arrangement produces the same bytes.
        if n < par::current_num_threads() {
            for (step, grads) in steps.iter().zip(round_grads.iter()) {
                let w = &mut workers[step.worker];
                w.optimizer.step(&mut w.params, grads, lr);
                w.progress += 1;
            }
            return;
        }
        let workers_ptr = SendPtr(workers.as_mut_ptr());
        let grads: &[Vec<f32>] = round_grads;
        par::parallel_for(n, |i| {
            // SAFETY: worker ids are strictly increasing and in bounds — disjoint
            // per task.
            let w = unsafe { &mut *workers_ptr.get().add(steps[i].worker) };
            w.optimizer.step(&mut w.params, &grads[i], lr);
            w.progress += 1;
        });
    }

    /// Apply one shared gradient (e.g. the round average) to every listed worker's
    /// replica, in parallel across workers.
    pub fn apply_round_shared(&mut self, worker_ids: &[usize], grads: &[f32], lr: f32) {
        assert_valid_round_workers(worker_ids.iter().copied(), self.workers.len());
        // Same narrow-cluster fallback as apply_round_own: keep element-level
        // parallelism when there are fewer workers than pool threads.
        if worker_ids.len() < par::current_num_threads() {
            for &id in worker_ids {
                let w = &mut self.workers[id];
                w.optimizer.step(&mut w.params, grads, lr);
                w.progress += 1;
            }
            return;
        }
        let workers_ptr = SendPtr(self.workers.as_mut_ptr());
        par::parallel_for(worker_ids.len(), |i| {
            // SAFETY: worker ids are strictly increasing and in bounds — disjoint
            // per task.
            let w = unsafe { &mut *workers_ptr.get().add(worker_ids[i]) };
            w.optimizer.step(&mut w.params, grads, lr);
            w.progress += 1;
        });
    }

    /// Average of all worker replicas' parameters (borrows the replicas — no per-replica
    /// clone fan-out).
    pub fn average_params(&self) -> Vec<f32> {
        let replicas: Vec<&[f32]> = self.workers.iter().map(|w| w.params.as_slice()).collect();
        aggregation::average(&replicas)
    }

    /// Average of a subset of workers' parameters (FedAvg participation).
    pub fn average_params_of(&self, worker_ids: &[usize]) -> Vec<f32> {
        let replicas: Vec<&[f32]> = self.workers.iter().map(|w| w.params.as_slice()).collect();
        aggregation::average_present(&replicas, worker_ids)
    }

    /// Average of a subset of workers' parameters into a caller-owned buffer, so
    /// per-round aggregation reuses one allocation across the whole run.
    pub fn average_params_of_into(&self, worker_ids: &[usize], out: &mut Vec<f32>) {
        let replicas: Vec<&[f32]> = self.workers.iter().map(|w| w.params.as_slice()).collect();
        aggregation::average_present_into(&replicas, worker_ids, out);
    }

    /// Overwrite every worker replica with `params` (the post-aggregation broadcast).
    pub fn set_all_params(&mut self, params: &[f32]) {
        for w in &mut self.workers {
            w.params.copy_from_slice(params);
        }
    }

    /// Current replica divergence across workers (diagnostic for the PA-vs-GA analysis).
    pub fn replica_divergence(&self) -> f32 {
        let replicas: Vec<&[f32]> = self.workers.iter().map(|w| w.params.as_slice()).collect();
        aggregation::replica_divergence(&replicas)
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
        let chunk_stats = if SEQUENTIAL_ROUNDS.with(|c| c.get()) || threads <= 1 || n_chunks <= 1 {
            // Sequential reference path: one shared engine, chunks in order.
            self.model.set_params_flat(params);
            let mut partials = Vec::with_capacity(n_chunks);
            for c in 0..n_chunks {
                let start = c * chunk;
                let end = (start + chunk).min(n);
                self.eval_indices.clear();
                self.eval_indices.extend(start..end);
                self.test
                    .batch_into(&self.eval_indices, &mut self.eval_x, &mut self.eval_y);
                partials.push(self.model.evaluate(&self.eval_x, &self.eval_y));
            }
            partials
        } else {
            // Fixed chunk-range partition: task `t` owns chunks
            // `[t*span, (t+1)*span)` and walks them in order on engine `t`.
            let tasks = threads.min(n_chunks);
            let span = n_chunks.div_ceil(tasks);
            let tasks = n_chunks.div_ceil(span);
            while self.engines.len() < tasks {
                self.engines
                    .push(RoundEngine::new(self.cfg.model, self.cfg.seed));
            }
            let mut partials = vec![
                BatchStats {
                    loss: 0.0,
                    metric: 0.0
                };
                n_chunks
            ];
            let engines_ptr = SendPtr(self.engines.as_mut_ptr());
            let partials_ptr = SendPtr(partials.as_mut_ptr());
            let test = &self.test;
            par::parallel_for(tasks, |t| {
                // SAFETY: each task owns engine `t` and a disjoint chunk range, so
                // the partial-stat writes are disjoint; `parallel_for` blocks until
                // all tasks finish, so the borrows outlive every use.
                let engine = unsafe { &mut *engines_ptr.get().add(t) };
                engine.model.set_params_flat(params);
                let mut indices = Vec::with_capacity(chunk);
                for c in (t * span)..((t + 1) * span).min(n_chunks) {
                    let start = c * chunk;
                    let end = (start + chunk).min(n);
                    indices.clear();
                    indices.extend(start..end);
                    test.batch_into(&indices, &mut engine.x, &mut engine.y);
                    let stats = engine.model.evaluate(&engine.x, &engine.y);
                    unsafe {
                        *partials_ptr.get().add(c) = stats;
                    }
                }
            });
            partials
        };
        let mut loss_acc = 0.0f64;
        let mut metric_acc = 0.0f64;
        let mut seen = 0usize;
        for (c, stats) in chunk_stats.iter().enumerate() {
            let count = ((c * chunk + chunk).min(n)) - c * chunk;
            loss_acc += stats.loss as f64 * count as f64;
            metric_acc += stats.metric as f64 * count as f64;
            seen += count;
        }
        BatchStats {
            loss: (loss_acc / seen as f64) as f32,
            metric: (metric_acc / seen as f64) as f32,
        }
    }

    /// Per-iteration compute time (seconds) for one worker's batch on the configured
    /// device, using the nominal (paper-scale) per-sample FLOPs.
    pub fn step_compute_seconds(&self) -> f64 {
        cost::compute_time_ms(&self.model.nominal, self.cfg.batch_size, &self.cfg.device) / 1e3
    }

    /// Seconds for a full PS synchronization of the nominal model across `participants`.
    pub fn ps_sync_seconds(&self, participants: usize) -> f64 {
        self.cfg
            .network
            .ps_sync_time(self.model.nominal.wire_bytes, participants)
    }

    /// Seconds for the 1-bit status all-gather.
    pub fn status_allgather_seconds(&self) -> f64 {
        self.cfg.network.status_allgather_time(self.cfg.workers)
    }

    /// Seconds for a one-way PS push or pull by a single worker (SSP).
    pub fn ps_one_way_seconds(&self) -> f64 {
        self.cfg
            .network
            .ps_one_way_time(self.model.nominal.wire_bytes)
    }

    // --- cluster-condition hooks (heterogeneity and fault injection) ---------------

    /// Compute-time multiplier of `worker` at `iteration` under the configured cluster
    /// conditions (1.0 on a homogeneous, fault-free cluster).
    pub fn compute_multiplier(&self, worker: usize, iteration: usize) -> f64 {
        self.cfg.conditions.compute_multiplier(worker, iteration)
    }

    /// Whether `worker` is alive at `iteration`.
    pub fn is_present(&self, worker: usize, iteration: usize) -> bool {
        self.cfg.conditions.is_present(worker, iteration)
    }

    /// The alive workers at `iteration`, in worker order.
    pub fn present_workers(&self, iteration: usize) -> Vec<usize> {
        self.cfg
            .conditions
            .present_workers(self.workers.len(), iteration)
    }

    /// Wall-clock seconds of one synchronous compute round at `iteration`: the batch
    /// compute time stretched by the slowest present worker's multiplier.
    pub fn round_compute_seconds(&self, iteration: usize) -> f64 {
        self.step_compute_seconds()
            * self
                .cfg
                .conditions
                .slowest_present_multiplier(self.workers.len(), iteration)
    }

    /// The network model in effect at `iteration` (base model plus active degradations).
    pub fn network_at(&self, iteration: usize) -> selsync_comm::NetworkModel {
        self.cfg.conditions.network_at(iteration, &self.cfg.network)
    }

    /// Seconds for a full PS synchronization across `participants` under the network
    /// conditions at `iteration`.
    pub fn ps_sync_seconds_at(&self, iteration: usize, participants: usize) -> f64 {
        self.network_at(iteration)
            .ps_sync_time(self.model.nominal.wire_bytes, participants)
    }

    /// Seconds for the 1-bit status all-gather among `participants` under the network
    /// conditions at `iteration`.
    pub fn status_allgather_seconds_at(&self, iteration: usize, participants: usize) -> f64 {
        self.network_at(iteration)
            .status_allgather_time(participants)
    }

    /// Seconds for a one-way PS push or pull under the network conditions at `iteration`.
    pub fn ps_one_way_seconds_at(&self, iteration: usize) -> f64 {
        self.network_at(iteration)
            .ps_one_way_time(self.model.nominal.wire_bytes)
    }

    /// Overwrite the replicas of `worker_ids` with `params` (a broadcast restricted to
    /// the present workers; crashed workers keep their stale state).
    pub fn set_params_of(&mut self, worker_ids: &[usize], params: &[f32]) {
        for &w in worker_ids {
            self.workers[w].params.copy_from_slice(params);
        }
    }

    /// Bring a rejoining worker back: overwrite its replica with `params` (the PS pull
    /// on rejoin) and reset its optimizer and `Δ(g_i)` tracker state, neither of which
    /// survived the crash (the threaded driver restarts its tracker the same way).
    pub fn rejoin_worker(&mut self, worker: usize, params: &[f32]) {
        self.workers[worker].params.copy_from_slice(params);
        self.workers[worker].optimizer.reset();
        self.workers[worker].tracker.reset();
        self.workers[worker].last_delta = 0.0;
    }

    /// Begin a synchronous round at `iteration` for drivers with a PS rejoin path:
    /// returns the present workers, and for every worker that was absent at the
    /// previously processed round and is back now, performs the rejoin pull from
    /// `global` ([`Self::rejoin_worker`]) and accounts the one-way transfer. Returns
    /// `(present, rejoin_comm_seconds, rejoin_bytes)` for the caller to fold into the
    /// round's accounting.
    pub fn begin_round(&mut self, iteration: usize, global: &[f32]) -> (Vec<usize>, f64, u64) {
        let present = self.present_workers(iteration);
        let mut comm_s = 0.0f64;
        let mut bytes = 0u64;
        if let Some(prev) = self.last_round {
            for &w in &present {
                if !self.is_present(w, prev) {
                    self.rejoin_worker(w, global);
                    comm_s += self.ps_one_way_seconds_at(iteration);
                    bytes += self.nominal().wire_bytes;
                    if self.cfg.trace.is_enabled() {
                        // Mirror the threaded driver's pull event: under scheduled
                        // pulls the source is the last sync round (what the PS
                        // snapshot ring would return); wall-clock pulls have an
                        // inherently timing-dependent source, recorded as `None` so
                        // both backends' logs stay byte-comparable.
                        let (pull, from) = match self.cfg.rejoin_pull {
                            crate::config::RejoinPull::Scheduled => (
                                selsync_tracelog::PullKind::Scheduled,
                                self.sync_rounds.last().copied(),
                            ),
                            crate::config::RejoinPull::WallClock => {
                                (selsync_tracelog::PullKind::WallClock, None)
                            }
                        };
                        self.cfg.trace.record(selsync_tracelog::Event::RejoinPull {
                            round: iteration,
                            worker: w,
                            pull,
                            from,
                        });
                    }
                }
            }
        }
        self.last_round = Some(iteration);
        (present, comm_s, bytes)
    }

    /// Account one step's simulated time and bytes. `sync_bytes` should include every
    /// parameter/gradient transfer of the step (data-injection bytes are added through
    /// [`Self::account_injection`]).
    pub fn account_step(&mut self, compute_s: f64, comm_s: f64, sync_bytes: u64, synced: bool) {
        self.compute_time_s += compute_s;
        self.comm_time_s += comm_s;
        self.bytes_communicated += sync_bytes;
        if synced {
            // The step index is the count of previously accounted steps — for drivers
            // that account exactly one step per iteration (all of them today), this is
            // the training iteration.
            self.sync_rounds.push(self.lssr.total() as usize);
            self.lssr.record_sync();
        } else {
            self.lssr.record_local();
        }
    }

    /// Account bytes moved by data-injection (already included in step time by callers
    /// that add `p2p` time; kept separate so reports can distinguish it).
    pub fn account_injection(&mut self, bytes: u64) {
        self.bytes_communicated += bytes;
    }

    /// Record an evaluation point for `iteration` using the supplied parameters.
    pub fn record_eval(&mut self, iteration: usize, params: &[f32], cluster_delta: f32) {
        let stats = self.evaluate_params(params);
        let point = EvalPoint {
            iteration,
            sim_time_s: self.compute_time_s + self.comm_time_s,
            train_loss: self.last_train_loss,
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

    /// Simulated time elapsed so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.compute_time_s + self.comm_time_s
    }

    /// Consume the simulator and produce the run report.
    pub fn finalize(self, algorithm: String) -> RunReport {
        let higher = self.higher_is_better();
        let last = self.history.last().copied();
        let best = if higher {
            self.history
                .iter()
                .map(|p| p.test_metric)
                .fold(f32::NEG_INFINITY, f32::max)
        } else {
            self.history
                .iter()
                .map(|p| p.test_metric)
                .fold(f32::INFINITY, f32::min)
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
            best_metric: if self.history.is_empty() { 0.0 } else { best },
            final_loss: last.map(|p| p.test_loss).unwrap_or(f32::NAN),
            max_delta: self.max_delta_seen,
            sim_time_s: self.compute_time_s + self.comm_time_s,
            comm_time_s: self.comm_time_s,
            compute_time_s: self.compute_time_s,
            bytes_communicated: self.bytes_communicated,
            // Stateless drivers never switch regimes; the SelSync driver overwrites
            // these from its policy after finalization.
            policy_switches: 0,
            switch_rounds: Vec::new(),
            history: self.history,
        }
    }

    // --- checkpoint / resume -------------------------------------------------------

    /// The simulator's part of a recovery image ([`Checkpoint::assemble`]): one
    /// `worker<k>` section per worker, exactly what that worker would deposit on a
    /// cluster backend, then the `sim` section — what only the simulator measures
    /// (cost-model seconds, bytes, eval history, the run-wide max `Δ(g_i)`, which
    /// tracker restarts forget) or draws (the cluster RNG position and, because
    /// data-injection advances *other* workers' shards, the shard cursors). Must be
    /// called at a round boundary (after the round's updates, accounting and
    /// evaluation) — scratch buffers, engines and the round-gradient pool are
    /// rebuild-on-demand and deliberately not stored.
    pub fn recovery_sections(&self) -> Vec<Section> {
        let conditions = &self.cfg.conditions;
        let rounds = self.lssr.total() as usize;
        let mut sections: Vec<Section> = self
            .workers
            .iter()
            .map(|w| {
                // A worker's view of the schedule is the cluster's restricted to the
                // rounds it was present at.
                let sync_rounds: Vec<usize> = self
                    .sync_rounds
                    .iter()
                    .copied()
                    .filter(|&r| conditions.is_present(w.id, r))
                    .collect();
                let present = conditions.rounds_present_before(w.id, rounds);
                WorkerImage {
                    core: WorkerCore {
                        params: w.params.clone(),
                        optimizer: w.optimizer.export_state(),
                        tracker: w.tracker.export_state(),
                    },
                    local_steps: (present - sync_rounds.len()) as u64,
                    sync_rounds,
                    last_loss: w.last_loss,
                }
                .section(w.id)
            })
            .collect();

        let mut s = Section::new("sim");
        s.push_int(self.rng.word_pos());
        let cursors: Vec<u64> = self.workers.iter().map(|w| w.shard_cursor as u64).collect();
        s.push_ints(&cursors);
        s.push_f64(self.compute_time_s);
        s.push_f64(self.comm_time_s);
        s.push_int(self.bytes_communicated);
        s.push_f32(self.max_delta_seen);
        s.push_usize(self.history.len());
        for p in &self.history {
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
    /// the same configuration. Durable per-worker state comes from the `worker<k>`
    /// sections; every schedule-pure cursor (data-traversal position, step and
    /// forward counters, presence edge, the cluster-level schedule) is recomputed
    /// from the configuration exactly as a cluster worker recomputes its own. A
    /// cluster-written image has no `sim` section: the cost-model aggregates and the
    /// eval history then restart at zero and the run-wide max `Δ(g_i)` is the
    /// trackers'. (`last_train_loss` is in no image: the first step of the next
    /// round rewrites it before an evaluation can read it.)
    pub fn restore_checkpoint(&mut self, ckpt: &Checkpoint) {
        let rounds = ckpt.round + 1;
        let mut sync_rounds = Vec::new();
        self.max_delta_seen = 0.0;
        for w in &mut self.workers {
            let image = ckpt.worker_image(w.id);
            self.max_delta_seen = self.max_delta_seen.max(image.core.tracker.max_delta);
            w.last_delta = image.core.tracker.last_delta;
            w.last_loss = image.last_loss;
            w.params = image.core.params;
            w.optimizer.load_state(&image.core.optimizer);
            w.tracker.restore_state(&image.core.tracker);
            w.progress = self.cfg.conditions.rounds_present_before(w.id, rounds);
            let traversal = w.iid_traversal.as_ref().or(w.shard.as_ref());
            let len = traversal.expect("every worker walks a traversal").len();
            w.shard_cursor = (w.progress * self.cfg.batch_size) % len;
            sync_rounds.extend(image.sync_rounds);
        }
        // A round synchronized iff any worker present at it did (all of them do), so
        // the union of the per-worker views is the cluster's schedule; every other
        // round the cluster ran is a local step.
        sync_rounds.sort_unstable();
        sync_rounds.dedup();
        self.lssr.sync_steps = sync_rounds.len() as u64;
        self.lssr.local_steps = rounds as u64 - self.lssr.sync_steps;
        self.sync_rounds = sync_rounds;
        self.forwards_issued = self
            .cfg
            .conditions
            .forwards_before(self.workers.len(), rounds);
        self.last_round = Some(ckpt.round);

        let Some(section) = ckpt.section("sim") else {
            return;
        };
        let mut s = section.reader();
        self.rng.set_word_pos(s.int());
        for (w, cursor) in self.workers.iter_mut().zip(s.ints()) {
            w.shard_cursor = cursor as usize;
        }
        self.compute_time_s = s.f64();
        self.comm_time_s = s.f64();
        self.bytes_communicated = s.int();
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

    /// Snapshot of a named layer's weights from the given parameters (used by the
    /// weight-distribution figure, Fig. 11). Returns the flat weights of the `idx`-th
    /// parameterised layer.
    pub fn layer_weights(&mut self, params: &[f32], idx: usize) -> Vec<f32> {
        use selsync_nn::layer::Layer;
        self.model.set_params_flat(params);
        let tensors = self.model.network().params();
        tensors
            .get(idx)
            .map(|t| t.data().to_vec())
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

/// The circular mini-batch traversal worker `w` walks when training IID: positions from
/// its DefDP/SelDP partition, mapped through the on-disk order ([`iid_sample_order`])
/// and shuffled per worker (a shuffling data loader over the worker's partition). A
/// pure function of the run configuration — the simulator and the threaded driver both
/// derive it, so their per-worker batch streams are identical.
pub fn worker_iid_traversal(cfg: &TrainConfig, iid_order: &[usize], w: usize) -> Vec<usize> {
    let part = WorkerPartition::build(cfg.partition, iid_order.len(), cfg.workers, w);
    let order: Vec<usize> = part.order().iter().map(|&p| iid_order[p]).collect();
    let mut worker_rng = rng::derived(cfg.seed, 0x0D_A7A0 + w as u64);
    let perm = rng::permutation(&mut worker_rng, order.len());
    perm.into_iter().map(|p| order[p]).collect()
}

/// The circular mini-batch traversal worker `w` walks under the configured data
/// regime: its label shard when `non_iid_labels_per_worker` is set (the exact
/// per-worker index list [`Simulator::new`] builds through
/// [`noniid::label_sharded`], walked in shard order like the simulator's
/// non-IID cursor), its shuffled IID partition otherwise. The threaded and
/// multi-process drivers derive their batch streams from this, so all three
/// backends walk identical samples on IID *and* non-IID runs. (Data-injection
/// draws from the simulator's cluster RNG and stays simulator-only.)
pub fn worker_traversal(
    cfg: &TrainConfig,
    train: &Dataset,
    iid_order: &[usize],
    w: usize,
) -> Vec<usize> {
    match cfg.non_iid_labels_per_worker {
        Some(labels) => {
            let mut split = noniid::label_sharded(train, cfg.workers, labels);
            split.per_worker.swap_remove(w)
        }
        None => worker_iid_traversal(cfg, iid_order, w),
    }
}

/// Build the synthetic train/test datasets for the configured workload — the single
/// source of truth for what every backend trains on (the simulator, the threaded
/// driver, and the bench harness all share it).
pub fn build_datasets(cfg: &TrainConfig) -> (Dataset, Dataset) {
    let model = PaperModel::build(cfg.model, cfg.seed);
    match model.task {
        TaskKind::Classification { .. } => {
            let spec = match cfg.model {
                ModelKind::ResNetLike => {
                    MixtureSpec::cifar10_like(cfg.train_samples + cfg.test_samples)
                }
                ModelKind::VggLike => {
                    MixtureSpec::cifar100_like(cfg.train_samples + cfg.test_samples)
                }
                _ => MixtureSpec::imagenet_like(cfg.train_samples + cfg.test_samples),
            };
            let all = synthetic::gaussian_mixture(&spec, cfg.seed ^ 0xDA7A);
            let frac = cfg.train_samples as f32 / (cfg.train_samples + cfg.test_samples) as f32;
            all.split(frac)
        }
        TaskKind::LanguageModel { .. } => {
            let spec = TokenSpec::wikitext_like(cfg.train_samples + cfg.test_samples);
            let all = synthetic::markov_tokens(&spec, cfg.seed ^ 0xDA7A);
            let frac = cfg.train_samples as f32 / (cfg.train_samples + cfg.test_samples) as f32;
            all.split(frac)
        }
    }
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
        assert_eq!(sim.replica_divergence(), 0.0);
    }

    #[test]
    fn next_batch_respects_batch_size_and_partition() {
        let mut cfg = small_cfg();
        cfg.partition = PartitionScheme::DefDp;
        let mut sim = Simulator::new(&cfg);
        let (idx, bytes) = sim.next_batch(1);
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
        // One full pass over the SelDP queue touches every label.
        for _ in 0..(sim.train.len() / cfg.batch_size) {
            let (idx, _) = sim.next_batch(0);
            for i in idx {
                seen.insert(sim.train.targets()[i]);
            }
        }
        assert_eq!(seen.len(), sim.train.num_classes);
    }

    #[test]
    fn compute_and_apply_update_changes_only_that_worker() {
        let cfg = small_cfg();
        let mut sim = Simulator::new(&cfg);
        let (idx, _) = sim.next_batch(0);
        let (_, grads) = sim.compute_gradient(0, &idx);
        assert!(grads.iter().any(|&g| g != 0.0));
        sim.apply_update(0, &grads, 0.05);
        assert!(sim.replica_divergence() > 0.0);
        // Averaging and broadcasting collapses divergence again.
        let avg = sim.average_params();
        sim.set_all_params(&avg);
        assert_eq!(sim.replica_divergence(), 0.0);
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
        assert!((report.sim_time_s - 2.2).abs() < 1e-9);
        assert_eq!(report.bytes_communicated, 1_000);
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
        assert!(sim.step_compute_seconds() > 0.0);
        assert!(sim.ps_sync_seconds(16) > sim.ps_sync_seconds(4));
        assert!(sim.status_allgather_seconds() < sim.ps_sync_seconds(4));
    }

    #[test]
    fn run_round_matches_the_legacy_per_worker_calls() {
        // plan_round + run_round + apply_round_own on one simulator must equal the
        // legacy next_batch / compute_gradient / track_delta / apply_update loop on a
        // twin, byte for byte — including cursor/RNG streams across several rounds.
        let cfg = small_cfg();
        let mut a = Simulator::new(&cfg);
        let mut b = Simulator::new(&cfg);
        let present: Vec<usize> = (0..cfg.workers).collect();
        let mut steps = Vec::new();
        for _ in 0..3 {
            a.plan_round(&present, &mut steps);
            let round = a.run_round(&steps);
            a.apply_round_own(&steps, 0.05);

            for (i, &w) in present.iter().enumerate() {
                let (idx, inj) = b.next_batch(w);
                assert_eq!(idx, steps[i].indices, "worker {w} batch");
                assert_eq!(inj, steps[i].injected_bytes);
                let (stats, g) = b.compute_gradient(w, &idx);
                assert_eq!(stats, round.stats[i], "worker {w} stats");
                assert_eq!(g, a.round_grads()[i], "worker {w} grads");
                let d = b.track_delta(w, &g);
                assert_eq!(d, round.deltas[i], "worker {w} delta");
                b.apply_update(w, &g, 0.05);
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
        assert_eq!(b.history, a.history);
        assert_eq!(b.elapsed_seconds(), a.elapsed_seconds());
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
        let (idx, _) = sim.next_batch(3);
        let labels: Vec<usize> = idx.iter().map(|&i| sim.train.targets()[i]).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 1, "a 1-label shard must yield a single label");
    }
}
