//! One worker's replica and the link-free phases of its SelSync round (Alg. 1),
//! written once for all three backends.
//!
//! Seen from one worker, a round is four steps that touch nothing but its own state:
//! [`Replica::rejoin`] (adopt the pulled model, restart optimizer and tracker),
//! *compute* ([`Replica::next_batch`], `Replica::compute`: batch → forward/backward
//! → `Δ(g_i)`), [`Replica::apply_local`] (the optimizer step) and
//! [`Replica::apply_sync`] (adopt the PS mean, record the round). When the update
//! needs nothing from the other workers (parameter aggregation, Alg. 1 line 9),
//! `Replica::step` runs compute and the update as one pass over the parameters.
//! What happens *between* them is the one round loop, `crate::worker::run_group`,
//! with a `ClusterLink` there; the [`crate::sim::Simulator`] group runs the phases for
//! its replicas, all W in the simulator and one on a cluster backend. No phase knows
//! which backend is calling. The replica is also the one writer and reader of a
//! worker's durable record ([`Replica::section`], [`Replica::restore`]), so any
//! backend continues any other's image.

use crate::checkpoint::{Section, WorkerCore, WorkerImage};
use crate::config::TrainConfig;
use crate::tracker::{GradStatistic, GradientTracker};
use selsync_data::dataset::Dataset;
use selsync_nn::model::{BatchStats, ModelKind, PaperModel};
use selsync_nn::optim::{self, Optimizer};
use selsync_tensor::Tensor;

/// A compute engine: one model plus reusable batch buffers. Engine identity cannot
/// affect values — a replica swaps its own parameters in for the step, seeks the dropout
/// stream to the step's global position, a forward pass overwrites every layer cache
/// its backward reads, and every step leaves the gradient zeroed — so any replica may
/// compute on any engine.
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

/// One worker's training state. Its tracker follows the squared gradient norm
/// ([`GradStatistic::SqNorm`]), the value the step's sweeps sum.
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
    /// `Δ(g_i)`, for an update that waits for the synchronization. Allocation-free
    /// once `engine` and `grads` are warm.
    pub(crate) fn compute(
        &mut self,
        engine: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
        grads: &mut Vec<f32>,
    ) -> (BatchStats, f32) {
        let drain = |_: &mut Self, g: &mut [f32]| optim::drain_grads(g, grads);
        self.step_with(engine, train, indices, forward_index, drain)
    }

    /// Compute and apply-local in one: forward/backward as [`Self::compute`], then one
    /// optimizer sweep at `lr` that updates the parameters, sums `Δ(g_i)`'s statistic
    /// and resets the engine's gradient. Bit-identical to `compute` + `apply_local`.
    pub(crate) fn step(
        &mut self,
        engine: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
        lr: f32,
    ) -> (BatchStats, f32) {
        self.progress += 1;
        let update = |r: &mut Self, g: &mut [f32]| r.optimizer.step_fused(&mut r.params, g, lr);
        self.step_with(engine, train, indices, forward_index, update)
    }

    /// Forward/backward, then `sweep`: the one pass over the gradient where backward
    /// left it in `engine`, which returns `Σ g²` for `Δ(g_i)` and leaves the gradient
    /// zeroed for the next step on the engine.
    fn step_with(
        &mut self,
        engine: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
        sweep: impl FnOnce(&mut Self, &mut [f32]) -> f32,
    ) -> (BatchStats, f32) {
        let stats = self.forward_backward(engine, train, indices, forward_index);
        let sq_norm = sweep(self, engine.model.grads_mut());
        (stats, self.tracker.update_with_statistic(sq_norm))
    }

    /// Forward/backward on `indices` at the canonical dropout-stream position
    /// `forward_index`, with the parameters swapped into `engine` for the pass, not
    /// copied, onto the engine's zeroed gradient.
    fn forward_backward(
        &mut self,
        engine: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
    ) -> BatchStats {
        debug_assert_eq!(self.tracker.statistic(), GradStatistic::SqNorm);
        debug_assert!(engine.model.grads_mut().iter().all(|&g| g == 0.0));
        train.batch_into(indices, &mut engine.x, &mut engine.y);
        engine.model.swap_params(&mut self.params);
        engine.model.seek_dropout(forward_index);
        let stats = engine
            .model
            .forward_backward_accumulate(&engine.x, &engine.y);
        engine.model.swap_params(&mut self.params);
        self.last_loss = stats.loss;
        stats
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerSpec;
    use crate::sim::build_datasets;

    /// One training step of the pin: the replica's compute and update of one batch at
    /// `forward_index` and learning rate `lr`, returning the step's stats and `Δ(g_i)`.
    /// A step may fold bytes it alone sees (an exported gradient) into the digest.
    type Step =
        fn(&mut Replica, &mut Engine, &Dataset, &[usize], u64, f32, &mut u64) -> (BatchStats, f32);

    /// FNV-1a over the little-endian bit patterns: a digest of bytes, not of values.
    fn digest(h: u64, data: &[f32]) -> u64 {
        data.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3))
    }

    /// The replica steps on its own gradient (Alg. 1 line 9).
    fn local_step(
        r: &mut Replica,
        e: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
        lr: f32,
        _: &mut u64,
    ) -> (BatchStats, f32) {
        let mut grads = Vec::new();
        let out = r.compute(e, train, indices, forward_index, &mut grads);
        r.apply_local(&grads, lr);
        out
    }

    /// The gradient leaves the replica before its update (gradient aggregation): its
    /// bytes are pinned too.
    fn norm_only_step(
        r: &mut Replica,
        e: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
        lr: f32,
        h: &mut u64,
    ) -> (BatchStats, f32) {
        let mut grads = Vec::new();
        let out = r.compute(e, train, indices, forward_index, &mut grads);
        *h = digest(*h, &grads);
        r.apply_local(&grads, lr);
        out
    }

    /// Compute and the local update as one sweep: must land on the local digests.
    fn fused_step(
        r: &mut Replica,
        e: &mut Engine,
        train: &Dataset,
        indices: &[usize],
        forward_index: u64,
        lr: f32,
        _: &mut u64,
    ) -> (BatchStats, f32) {
        r.step(e, train, indices, forward_index, lr)
    }

    /// The optimizer of a pinned run: SGD with momentum and weight decay, or Adam with
    /// weight decay, each at a learning rate that moves the parameters visibly.
    fn optimizer(adam: bool) -> (OptimizerSpec, f32) {
        if adam {
            (OptimizerSpec::adam(1e-4), 1e-3)
        } else {
            (OptimizerSpec::sgd(0.9, 5e-4), 0.05)
        }
    }

    /// The digest of 8 steps of a fresh `kind` replica on one reused engine, at fixed
    /// forward indices: each step's loss, metric and `Δ(g_i)`, then the parameters, the
    /// optimizer state and the tracker state.
    fn pinned_run(kind: ModelKind, adam: bool, step: Step) -> u64 {
        let mut cfg = TrainConfig::small(kind, 4);
        cfg.train_samples = 256;
        cfg.test_samples = 32;
        let (spec, lr) = optimizer(adam);
        cfg.optimizer = spec;
        let (train, _) = build_datasets(&cfg);
        let mut engine = Engine::new(kind, cfg.seed);
        let params = engine.model.params_flat();
        let mut replica = Replica::new(&cfg, params, (0..train.len()).collect());
        let mut h = 0xCBF2_9CE4_8422_2325;
        let mut indices = Vec::new();
        for k in 0..8 {
            replica.next_batch(cfg.batch_size, &mut indices);
            let (stats, delta) = step(
                &mut replica,
                &mut engine,
                &train,
                &indices,
                3 * k + 1,
                lr,
                &mut h,
            );
            h = digest(h, &[stats.loss, stats.metric, delta]);
        }
        h = digest(h, &replica.params);
        let state = replica.optimizer.export_state();
        h = digest(h, &[f32::from_bits(state.t as u32)]);
        for buffer in &state.buffers {
            h = digest(h, buffer);
        }
        // `{:?}` prints every f32 as its shortest round-trip form: one string per value.
        let tracker = format!("{:?}", replica.tracker.export_state());
        tracker
            .bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3))
    }

    /// `(model, adam, [local, norm-only])`.
    const GOLDEN: [(ModelKind, bool, [u64; 2]); 8] = [
        (
            ModelKind::ResNetLike,
            false,
            [0xD2AC_F7DD_6581_054E, 0x7B99_1790_7ADF_13B0],
        ),
        (
            ModelKind::ResNetLike,
            true,
            [0xA576_F6EB_D787_B20E, 0xC81E_6F3A_7677_61FF],
        ),
        (
            ModelKind::VggLike,
            false,
            [0x5658_5D1C_674A_7474, 0xFAD4_EF62_1602_B641],
        ),
        (
            ModelKind::VggLike,
            true,
            [0x2844_A676_B43C_6845, 0x43CF_33D7_4AE0_A43B],
        ),
        (
            ModelKind::AlexLike,
            false,
            [0x49DB_38A1_54B9_83CD, 0x66FC_C368_13CC_10AA],
        ),
        (
            ModelKind::AlexLike,
            true,
            [0x6E93_8D0D_F99B_148B, 0xE568_29EE_1EFC_B8FB],
        ),
        (
            ModelKind::TransformerLike,
            false,
            [0xEB96_381B_ED89_A87E, 0xDB54_58A0_EAB5_C037],
        ),
        (
            ModelKind::TransformerLike,
            true,
            [0xACE0_E384_DB4E_67D7, 0xDF7C_BDA7_5812_7DE9],
        ),
    ];

    #[test]
    fn every_model_step_is_pinned_across_commits() {
        // Every layer kind (TransformerLike brings dropout, the embedding, layer norm
        // and attention pooling), both optimizers, and both ways a step leaves the
        // replica. Recorded before the training step became one sweep over the
        // parameter vector: any change to a step's arithmetic or order moves a digest.
        for (kind, adam, want) in GOLDEN {
            let got = [
                pinned_run(kind, adam, local_step),
                pinned_run(kind, adam, norm_only_step),
            ];
            assert_eq!(got, want, "{kind:?} adam={adam}");
        }
    }

    #[test]
    fn the_fused_step_keeps_the_pinned_bytes() {
        for (kind, adam, want) in GOLDEN {
            let got = pinned_run(kind, adam, fused_step);
            assert_eq!(got, want[0], "{kind:?} adam={adam}");
        }
    }
}
