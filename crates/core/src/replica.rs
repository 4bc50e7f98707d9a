//! One worker's replica and the link-free phases of its SelSync round (Alg. 1),
//! written once for all three backends.
//!
//! Seen from one worker, a round is four steps that touch nothing but its own state:
//! [`Replica::rejoin`] (adopt the pulled model, restart optimizer and tracker),
//! *compute* ([`Replica::next_batch`], `Replica::compute`: batch → forward/backward
//! → `Δ(g_i)`), [`Replica::apply_local`] (the optimizer step) and
//! [`Replica::apply_sync`] (adopt the PS mean, record the round). What happens
//! *between* them is the one round loop, `crate::worker::run_group`, with a
//! `ClusterLink` there; the [`crate::sim::Simulator`] group runs the phases for its
//! replicas, all W in the simulator and one on a cluster backend. No phase knows
//! which backend is calling. The replica is also the one writer and reader of a
//! worker's durable record ([`Replica::section`], [`Replica::restore`]), so any
//! backend continues any other's image.

use crate::checkpoint::{Section, WorkerCore, WorkerImage};
use crate::config::TrainConfig;
use crate::tracker::{GradStatistic, GradientTracker};
use selsync_data::dataset::Dataset;
use selsync_nn::model::{BatchStats, ModelKind, PaperModel};
use selsync_nn::optim::Optimizer;
use selsync_tensor::Tensor;

/// A compute engine: one model plus reusable batch buffers. Engine identity cannot
/// affect values — `Replica::compute` loads the parameters fresh, seeks the dropout
/// stream to the step's global position, and a forward pass overwrites every layer
/// cache its backward reads — so any replica may compute on any engine.
pub(crate) struct Engine {
    pub(crate) model: PaperModel,
    pub(crate) x: Tensor,
    pub(crate) y: Vec<usize>,
}

impl Engine {
    pub(crate) fn new(kind: ModelKind, seed: u64) -> Self {
        Engine {
            model: PaperModel::build(kind, seed),
            x: Tensor::zeros(0, 0),
            y: Vec::new(),
        }
    }
}

/// One worker's training state.
pub struct Replica {
    /// Flat model parameters of this worker's replica.
    pub params: Vec<f32>,
    /// This worker's optimizer (momentum / Adam state is per worker, as on a real cluster).
    pub optimizer: Box<dyn Optimizer>,
    /// This worker's `Δ(g_i)` tracker.
    pub tracker: GradientTracker,
    /// The dataset indices this worker walks circularly
    /// ([`crate::sim::worker_traversal`]).
    pub traversal: Vec<usize>,
    /// Position of the next sample in [`Self::traversal`].
    pub(crate) cursor: usize,
    /// Training loss of this worker's most recent step.
    pub last_loss: f32,
    /// Optimizer steps taken: one per round the worker was present at.
    pub progress: usize,
    /// The rounds at which this worker synchronized.
    pub sync_rounds: Vec<usize>,
}

impl Replica {
    /// A fresh worker of `cfg`'s cluster holding `params` (pullFromPS, Alg. 1 line 3).
    pub fn new(cfg: &TrainConfig, params: Vec<f32>, traversal: Vec<usize>) -> Self {
        Replica {
            params,
            optimizer: cfg.optimizer.build(),
            tracker: GradientTracker::new(
                GradStatistic::SqNorm,
                (cfg.workers as f32 / 100.0).clamp(0.01, 1.0),
                cfg.ewma_window,
            ),
            traversal,
            cursor: 0,
            last_loss: 0.0,
            progress: 0,
            sync_rounds: Vec::new(),
        }
    }

    /// Rejoin reset: overwrite the replica with the pulled `params` and restart the
    /// optimizer and `Δ(g_i)` tracker, neither of which survived the crash.
    pub fn rejoin(&mut self, params: &[f32]) {
        self.params.copy_from_slice(params);
        self.optimizer.reset();
        self.tracker.reset();
    }

    /// Draw the next `batch` sample indices of the circular traversal into `out`
    /// (cleared first).
    pub fn next_batch(&mut self, batch: usize, out: &mut Vec<usize>) {
        out.clear();
        let len = self.traversal.len();
        out.extend((0..batch).map(|k| self.traversal[(self.cursor + k) % len]));
        self.cursor = (self.cursor + batch) % len;
    }

    /// Compute: forward/backward on `indices` at the canonical dropout-stream
    /// position `forward_index`, the flat gradient into `grads`, and this step's
    /// `Δ(g_i)`. Allocation-free once `engine` and `grads` are warm.
    pub(crate) fn compute(
        &mut self,
        engine: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
        grads: &mut Vec<f32>,
    ) -> (BatchStats, f32) {
        train.batch_into(indices, &mut engine.x, &mut engine.y);
        engine.model.set_params_flat(&self.params);
        engine.model.seek_dropout(forward_index);
        let stats = engine.model.forward_backward(&engine.x, &engine.y);
        engine.model.grads_flat_into(grads);
        self.last_loss = stats.loss;
        (stats, self.tracker.update(grads))
    }

    /// Apply-local: one optimizer step on `grads` at learning rate `lr` (Alg. 1 line 9).
    pub fn apply_local(&mut self, grads: &[f32], lr: f32) {
        self.optimizer.step(&mut self.params, grads, lr);
        self.progress += 1;
    }

    /// Apply-sync: adopt the PS `mean` pulled at `round` (Alg. 1 lines 14–15).
    pub fn apply_sync(&mut self, round: usize, mean: &[f32]) {
        self.params.copy_from_slice(mean);
        self.sync_rounds.push(round);
    }

    /// The rounds this worker was present at and stayed local (a round's sync follows
    /// its own step, so every synchronized round is a counted step).
    pub fn local_steps(&self) -> u64 {
        (self.progress - self.sync_rounds.len()) as u64
    }

    /// Everything of this worker that cannot be recomputed from the schedule, packed
    /// as the image section `worker<worker>`.
    pub fn section(&self, worker: usize) -> Section {
        WorkerImage {
            core: WorkerCore {
                params: self.params.clone(),
                optimizer: self.optimizer.export_state(),
                tracker: self.tracker.export_state(),
            },
            sync_rounds: self.sync_rounds.clone(),
            local_steps: self.local_steps(),
            last_loss: self.last_loss,
        }
        .section(worker)
    }

    /// Continue from `image`. The traversal cursor is not stored: the worker took one
    /// `batch`-sample step per round it was present at, so its position is recomputed
    /// from the step count.
    pub fn restore(&mut self, image: WorkerImage, batch: usize) {
        self.params = image.core.params;
        self.optimizer.load_state(&image.core.optimizer);
        self.tracker.restore_state(&image.core.tracker);
        self.progress = image.local_steps as usize + image.sync_rounds.len();
        self.sync_rounds = image.sync_rounds;
        self.last_loss = image.last_loss;
        self.cursor = (self.progress * batch) % self.traversal.len();
    }
}
