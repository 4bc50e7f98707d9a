//! Networks: [`Sequential`] containers, residual blocks, and the four paper-model
//! analogues wrapped as [`PaperModel`].
//!
//! The paper evaluates ResNet101 (CIFAR10), VGG11 (CIFAR100), AlexNet (ImageNet-1K) and
//! a 2-layer Transformer LM (WikiText-103). We cannot train those exact networks here
//! (no GPUs, no datasets, no tch), so each is substituted by a *small analogue that
//! keeps the property the paper relies on*:
//!
//! * `ResNetLike` — residual (skip-connection) MLP: generalises well, robust to local
//!   training, matches the paper's observation that ResNet101 tolerates high LSSR.
//! * `VggLike` — deep plain MLP on a 100-class task: the fragile architecture that
//!   degrades badly under DefDP / FedAvg in the paper.
//! * `AlexLike` — wide, shallow MLP with dropout on a many-class task, trained with Adam
//!   and a fixed learning rate (the one model where GA ≈ PA in Fig. 10).
//! * `TransformerLike` — embedding + attention-pooling language model reporting
//!   perplexity, with the LR decaying every 2000 iterations.
//!
//! Each analogue also carries the *nominal* communication/computation footprint of the
//! original network (wire size in bytes, FLOPs and activation bytes per sample). The
//! network cost model uses the nominal numbers, so throughput and speedup experiments
//! see paper-scale communication even though the in-memory models are small.

use crate::layer::{AttentionPool, Dropout, Embedding, Layer, LayerNorm, Linear, Relu};
use crate::loss;
use selsync_tensor::{rng, Tensor};
use serde::{Deserialize, Serialize};
use std::ops::Range;

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

/// An ordered stack of layers over one flat parameter vector and one gradient vector of
/// the same length, layer order, then tensor order: each layer reads and accumulates
/// into its own range of them. A network nested in another (a [`Residual`]'s) hands its
/// initial parameters to the outer network when it joins it, and from then on runs on
/// the range the outer network passes it.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    ranges: Vec<Range<usize>>,
    params: Vec<f32>,
    grads: Vec<f32>,
}

impl Sequential {
    /// Create an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a layer, moving its initial parameters to the end of the flat vector.
    pub fn push(&mut self, mut layer: Box<dyn Layer>) {
        let init = layer.take_init();
        assert_eq!(init.len(), layer.param_count(), "initial parameter count");
        let start = self.param_count();
        self.ranges.push(start..start + init.len());
        self.params.extend(init);
        self.grads.resize(self.params.len(), 0.0);
        self.layers.push(layer);
    }

    /// Builder-style append.
    pub fn with(mut self, layer: Box<dyn Layer>) -> Self {
        self.push(layer);
        self
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }

    /// A copy of the flat parameter vector.
    pub fn params_flat(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// A copy of the flat gradient vector (same ordering as [`Self::params_flat`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        self.grads.clone()
    }

    /// Overwrite all parameters from a flat vector produced by [`Self::params_flat`].
    ///
    /// Panics if the length does not match the model's parameter count.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.params.len(), "parameter count mismatch");
        self.params.copy_from_slice(flat);
    }

    /// Exchange the flat parameter vector with `params`, no copy: the network runs on
    /// the caller's vector until the next swap hands it back. Panics if the length does
    /// not match the model's parameter count.
    pub fn swap_params(&mut self, params: &mut Vec<f32>) {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        std::mem::swap(&mut self.params, params);
    }

    /// Zero the accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.grads.fill(0.0);
    }

    /// Forward pass on the network's own parameters.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        forward_through(&mut self.layers, &self.ranges, &self.params, input, train)
    }

    /// Backward pass into the network's own gradients, returning `dL/d input`.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (p, g) = (&self.params, &mut self.grads);
        backward_through(&mut self.layers, &self.ranges, p, g, grad_output, true)
            .expect("the input gradient was asked for")
    }

    /// [`Self::backward`] without `dL/d input`, which nobody reads.
    pub fn backward_params(&mut self, grad_output: &Tensor) {
        let (p, g) = (&self.params, &mut self.grads);
        backward_through(&mut self.layers, &self.ranges, p, g, grad_output, false);
    }
}

/// Ping-pong `input` through `layers`, each on its range of `p`, recycling every
/// intermediate activation into the scratch arena — steady-state forward allocates
/// nothing.
fn forward_through(
    layers: &mut [Box<dyn Layer>],
    ranges: &[Range<usize>],
    p: &[f32],
    input: &Tensor,
    train: bool,
) -> Tensor {
    let mut x: Option<Tensor> = None;
    for (layer, r) in layers.iter_mut().zip(ranges) {
        let next = layer.forward(&p[r.clone()], x.as_ref().unwrap_or(input), train);
        if let Some(prev) = x.replace(next) {
            prev.recycle();
        }
    }
    x.unwrap_or_else(|| input.clone())
}

/// Backpropagate through `layers` in reverse, each accumulating into its range of `g`;
/// the first layer forms `dL/d input` only when `input_grad` asks for it.
fn backward_through(
    layers: &mut [Box<dyn Layer>],
    ranges: &[Range<usize>],
    p: &[f32],
    g: &mut [f32],
    grad_output: &Tensor,
    input_grad: bool,
) -> Option<Tensor> {
    let mut dy: Option<Tensor> = None;
    for (i, (layer, r)) in layers.iter_mut().zip(ranges).enumerate().rev() {
        let (p, g) = (&p[r.clone()], &mut g[r.clone()]);
        let d = dy.as_ref().unwrap_or(grad_output);
        let next = if i > 0 || input_grad {
            Some(layer.backward(p, g, d))
        } else {
            layer.backward_params(p, g, d);
            None
        };
        if let Some(prev) = std::mem::replace(&mut dy, next) {
            prev.recycle();
        }
    }
    dy.or_else(|| input_grad.then(|| grad_output.clone()))
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, p: &[f32], input: &Tensor, train: bool) -> Tensor {
        forward_through(&mut self.layers, &self.ranges, p, input, train)
    }

    fn backward(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) -> Tensor {
        backward_through(&mut self.layers, &self.ranges, p, g, grad_output, true)
            .expect("the input gradient was asked for")
    }

    fn backward_params(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) {
        backward_through(&mut self.layers, &self.ranges, p, g, grad_output, false);
    }

    fn param_lens(&self) -> Vec<usize> {
        self.layers.iter().flat_map(|l| l.param_lens()).collect()
    }

    fn take_init(&mut self) -> Vec<f32> {
        self.grads = Vec::new();
        std::mem::take(&mut self.params)
    }

    fn seek_dropout(&mut self, forward_index: u64) {
        for layer in &mut self.layers {
            layer.seek_dropout(forward_index);
        }
    }
}

/// A residual block: `y = x + f(x)` where `f` is an inner [`Sequential`] whose output
/// shape equals its input shape. This is the skip connection that makes the
/// `ResNetLike` analogue generalise like the paper's ResNet101.
pub struct Residual {
    inner: Sequential,
}

impl Residual {
    /// Wrap an inner network with a skip connection.
    pub fn new(inner: Sequential) -> Self {
        Residual { inner }
    }
}

impl Layer for Residual {
    fn name(&self) -> &'static str {
        "residual"
    }

    fn forward(&mut self, p: &[f32], input: &Tensor, train: bool) -> Tensor {
        let mut fx = Layer::forward(&mut self.inner, p, input, train);
        // Reuse the inner network's output buffer for the skip addition:
        // out = f(x) + x has the same value as x + f(x) written into a clone of x.
        fx.zip_mut_with(input, |y, x| y + x)
            .expect("residual shapes must match");
        fx
    }

    fn backward(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) -> Tensor {
        let mut through = Layer::backward(&mut self.inner, p, g, grad_output);
        through
            .zip_mut_with(grad_output, |y, g| y + g)
            .expect("residual backward shapes");
        through
    }

    fn param_lens(&self) -> Vec<usize> {
        self.inner.param_lens()
    }

    fn take_init(&mut self) -> Vec<f32> {
        self.inner.take_init()
    }

    fn seek_dropout(&mut self, forward_index: u64) {
        Layer::seek_dropout(&mut self.inner, forward_index);
    }
}

// ---------------------------------------------------------------------------
// Paper models
// ---------------------------------------------------------------------------

/// Which of the paper's four workloads a model corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// ResNet101 on CIFAR10 analogue (residual MLP, 10 classes, top-1 accuracy).
    ResNetLike,
    /// VGG11 on CIFAR100 analogue (plain deep MLP, 100 classes, top-1 accuracy).
    VggLike,
    /// AlexNet on ImageNet-1K analogue (wide MLP + dropout, 200 classes, top-5 accuracy).
    AlexLike,
    /// Transformer LM on WikiText-103 analogue (embedding + attention pooling, perplexity).
    TransformerLike,
}

impl ModelKind {
    /// All four workloads, in the order the paper lists them.
    pub fn all() -> [ModelKind; 4] {
        [
            ModelKind::ResNetLike,
            ModelKind::VggLike,
            ModelKind::AlexLike,
            ModelKind::TransformerLike,
        ]
    }

    /// Paper-facing display name.
    pub fn paper_name(&self) -> &'static str {
        match self {
            ModelKind::ResNetLike => "ResNet101",
            ModelKind::VggLike => "VGG11",
            ModelKind::AlexLike => "AlexNet",
            ModelKind::TransformerLike => "Transformer",
        }
    }
}

/// The task a model is trained on, which determines the evaluation metric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Classification with `classes` labels, reporting top-`topk` accuracy (percent).
    Classification {
        /// Number of classes.
        classes: usize,
        /// k for the reported top-k accuracy (1 or 5 in the paper).
        topk: usize,
    },
    /// Next-token language modelling over `vocab` tokens, reporting perplexity.
    LanguageModel {
        /// Vocabulary size.
        vocab: usize,
        /// Context length in tokens.
        context: usize,
    },
}

impl TaskKind {
    /// Name of the evaluation metric.
    pub fn metric_name(&self) -> &'static str {
        match self {
            TaskKind::Classification { topk: 1, .. } => "top1_accuracy_%",
            TaskKind::Classification { .. } => "topk_accuracy_%",
            TaskKind::LanguageModel { .. } => "perplexity",
        }
    }

    /// Whether larger metric values are better (accuracy) or worse (perplexity).
    pub fn higher_is_better(&self) -> bool {
        matches!(self, TaskKind::Classification { .. })
    }
}

/// Nominal (paper-scale) resource footprint of a model, used by the network cost model
/// and the batch-size cost figures. These numbers describe the *original* network
/// (ResNet101, VGG11, ...), not the small in-memory analogue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NominalFootprint {
    /// Bytes on the wire for a full parameter or gradient exchange.
    pub wire_bytes: u64,
    /// Forward+backward FLOPs per training sample.
    pub flops_per_sample: u64,
    /// Activation (working-set) bytes per sample during training.
    pub activation_bytes_per_sample: u64,
}

/// One of the four paper workloads: a trainable network plus task and nominal footprint.
pub struct PaperModel {
    /// Which paper workload this is.
    pub kind: ModelKind,
    /// Task and evaluation metric.
    pub task: TaskKind,
    /// Nominal paper-scale footprint used by the cost model.
    pub nominal: NominalFootprint,
    net: Sequential,
}

/// Outcome of one forward/backward (or evaluation) pass over a batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchStats {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Task metric (accuracy in percent, or perplexity).
    pub metric: f32,
}

impl PaperModel {
    /// Build the analogue for `kind` with deterministic initialisation from `seed`.
    pub fn build(kind: ModelKind, seed: u64) -> Self {
        let mut r = rng::seeded(seed);
        match kind {
            ModelKind::ResNetLike => {
                let hidden = 64;
                let mut net = Sequential::new()
                    .with(Box::new(Linear::new(&mut r, 32, hidden)))
                    .with(Box::new(Relu::new()));
                for _ in 0..3 {
                    let block = Sequential::new()
                        .with(Box::new(Linear::new(&mut r, hidden, hidden)))
                        .with(Box::new(Relu::new()))
                        .with(Box::new(Linear::new(&mut r, hidden, hidden)));
                    net.push(Box::new(Residual::new(block)));
                    net.push(Box::new(Relu::new()));
                }
                net.push(Box::new(Linear::new(&mut r, hidden, 10)));
                PaperModel {
                    kind,
                    task: TaskKind::Classification {
                        classes: 10,
                        topk: 1,
                    },
                    nominal: NominalFootprint {
                        wire_bytes: 170 * 1024 * 1024, // ~44.5M params ≈ 170 MB
                        flops_per_sample: 7_800_000_000,
                        activation_bytes_per_sample: 9 * 1024 * 1024,
                    },
                    net,
                }
            }
            ModelKind::VggLike => {
                let hidden = 128;
                let mut net = Sequential::new()
                    .with(Box::new(Linear::new(&mut r, 32, hidden)))
                    .with(Box::new(Relu::new()));
                for _ in 0..5 {
                    net.push(Box::new(Linear::new(&mut r, hidden, hidden)));
                    net.push(Box::new(Relu::new()));
                }
                net.push(Box::new(Linear::new(&mut r, hidden, 100)));
                PaperModel {
                    kind,
                    task: TaskKind::Classification {
                        classes: 100,
                        topk: 1,
                    },
                    nominal: NominalFootprint {
                        wire_bytes: 507 * 1024 * 1024, // paper: 507 MB VGG11
                        flops_per_sample: 900_000_000,
                        activation_bytes_per_sample: 2 * 1024 * 1024,
                    },
                    net,
                }
            }
            ModelKind::AlexLike => {
                let hidden = 256;
                let net = Sequential::new()
                    .with(Box::new(Linear::new(&mut r, 64, hidden)))
                    .with(Box::new(Relu::new()))
                    .with(Box::new(Dropout::new(0.2, seed ^ 0xD06)))
                    .with(Box::new(Linear::new(&mut r, hidden, hidden)))
                    .with(Box::new(Relu::new()))
                    .with(Box::new(Linear::new(&mut r, hidden, 200)));
                PaperModel {
                    kind,
                    task: TaskKind::Classification {
                        classes: 200,
                        topk: 5,
                    },
                    nominal: NominalFootprint {
                        wire_bytes: 244 * 1024 * 1024, // ~61M params ≈ 244 MB
                        flops_per_sample: 1_400_000_000,
                        activation_bytes_per_sample: 10 * 1024 * 1024,
                    },
                    net,
                }
            }
            ModelKind::TransformerLike => {
                let vocab = 1000;
                let context = 16;
                let dim = 32;
                let hidden = 128;
                let net = Sequential::new()
                    .with(Box::new(Embedding::new(&mut r, vocab, dim)))
                    .with(Box::new(AttentionPool::new(&mut r, context, dim)))
                    .with(Box::new(LayerNorm::new(dim)))
                    .with(Box::new(Linear::new(&mut r, dim, hidden)))
                    .with(Box::new(Relu::new()))
                    .with(Box::new(Dropout::new(0.2, seed ^ 0x7F0)))
                    .with(Box::new(Linear::new(&mut r, hidden, vocab)));
                PaperModel {
                    kind,
                    task: TaskKind::LanguageModel { vocab, context },
                    nominal: NominalFootprint {
                        wire_bytes: 213 * 1024 * 1024, // embedding-dominated small Transformer
                        flops_per_sample: 2_600_000_000,
                        activation_bytes_per_sample: 170 * 1024 * 1024,
                    },
                    net,
                }
            }
        }
    }

    /// Dimensionality of one input sample (feature count, or context length for the LM).
    pub fn input_dim(&self) -> usize {
        match self.task {
            TaskKind::Classification { .. } => match self.kind {
                ModelKind::AlexLike => 64,
                _ => 32,
            },
            TaskKind::LanguageModel { context, .. } => context,
        }
    }

    /// Number of output classes / vocabulary size.
    pub fn output_dim(&self) -> usize {
        match self.task {
            TaskKind::Classification { classes, .. } => classes,
            TaskKind::LanguageModel { vocab, .. } => vocab,
        }
    }

    /// Total scalar parameter count of the in-memory analogue.
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// Flattened parameters.
    pub fn params_flat(&self) -> Vec<f32> {
        self.net.params_flat()
    }

    /// Flattened gradients (accumulated since the last [`Self::zero_grads`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        self.net.grads_flat()
    }

    /// Flattened gradients into a caller-owned buffer (cleared first) — the zero-alloc
    /// per-step gradient export used by the worker-parallel simulator rounds.
    pub fn grads_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.net.grads);
    }

    /// Overwrite parameters from a flat vector.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        self.net.set_params_flat(flat);
    }

    /// Exchange the flat parameters with `params` ([`Sequential::swap_params`]).
    pub fn swap_params(&mut self, params: &mut Vec<f32>) {
        self.net.swap_params(params);
    }

    /// The flat gradients, where [`Self::forward_backward`] accumulates.
    pub fn grads_mut(&mut self) -> &mut [f32] {
        &mut self.net.grads
    }

    /// Zero accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.net.zero_grads();
    }

    /// Position the model's stochastic layers (dropout) for the `forward_index`-th
    /// training forward of the canonical shared stream (see [`Layer::seek_dropout`]).
    /// Call before [`Self::forward_backward`] when several replica engines must
    /// reproduce one sequential engine's RNG stream bit-for-bit.
    pub fn seek_dropout(&mut self, forward_index: u64) {
        Layer::seek_dropout(&mut self.net, forward_index);
    }

    /// Read-only access to the underlying network (e.g. for per-layer weight inspection).
    pub fn network(&self) -> &Sequential {
        &self.net
    }

    /// One training pass: zero grads, then [`Self::forward_backward_accumulate`].
    /// Gradients are left accumulated in the model; read them with [`Self::grads_flat`].
    pub fn forward_backward(&mut self, inputs: &Tensor, targets: &[usize]) -> BatchStats {
        self.net.zero_grads();
        self.forward_backward_accumulate(inputs, targets)
    }

    /// Forward in train mode, compute loss, backpropagate, adding the batch's gradient
    /// to the accumulated one — the batch's gradient itself when the caller left the
    /// gradients zeroed. The input gradient nobody reads is never formed.
    pub fn forward_backward_accumulate(
        &mut self,
        inputs: &Tensor,
        targets: &[usize],
    ) -> BatchStats {
        let logits = self.net.forward(inputs, true);
        let (loss, grad) = loss::softmax_cross_entropy(&logits, targets);
        let metric = self.metric_from_logits(&logits, targets, loss);
        logits.recycle();
        self.net.backward_params(&grad);
        grad.recycle();
        BatchStats { loss, metric }
    }

    /// Evaluation pass (no dropout, no gradients).
    pub fn evaluate(&mut self, inputs: &Tensor, targets: &[usize]) -> BatchStats {
        let logits = self.net.forward(inputs, false);
        let (loss, grad) = loss::softmax_cross_entropy(&logits, targets);
        let metric = self.metric_from_logits(&logits, targets, loss);
        logits.recycle();
        grad.recycle();
        BatchStats { loss, metric }
    }

    fn metric_from_logits(&self, logits: &Tensor, targets: &[usize], loss_value: f32) -> f32 {
        match self.task {
            TaskKind::Classification { topk: 1, .. } => loss::top1_accuracy(logits, targets),
            TaskKind::Classification { topk, .. } => loss::topk_accuracy(logits, targets, topk),
            TaskKind::LanguageModel { .. } => loss::perplexity(loss_value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_flat_roundtrip() {
        let mut r = rng::seeded(11);
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(&mut r, 8, 16)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(&mut r, 16, 4)));
        let flat = net.params_flat();
        assert_eq!(flat.len(), net.param_count());
        let mut doubled = flat.clone();
        for x in &mut doubled {
            *x *= 2.0;
        }
        net.set_params_flat(&doubled);
        assert_eq!(net.params_flat(), doubled);
        net.set_params_flat(&flat);
        assert_eq!(net.params_flat(), flat);
    }

    #[test]
    #[should_panic]
    fn set_params_flat_length_checked() {
        let mut r = rng::seeded(1);
        let mut net = Sequential::new().with(Box::new(Linear::new(&mut r, 2, 2)));
        net.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn residual_is_identity_plus_block() {
        let mut r = rng::seeded(3);
        let mut block = Sequential::new().with(Box::new(Linear::new(&mut r, 4, 4)));
        // Zero the block so the residual reduces to the identity.
        let zeros = vec![0.0; block.param_count()];
        block.set_params_flat(&zeros);
        let mut res = Residual::new(block);
        let p = res.take_init();
        assert_eq!(p, zeros);
        let mut g = vec![0.0; p.len()];
        let x = Tensor::from_fn(2, 4, |r, c| (r + c) as f32);
        let y = res.forward(&p, &x, true);
        assert_eq!(y, x);
        let dy = Tensor::ones(2, 4);
        let dx = res.backward(&p, &mut g, &dy);
        assert_eq!(dx, dy);
    }

    #[test]
    fn a_nested_network_runs_on_its_range_of_the_outer_vector() {
        let mut r = rng::seeded(4);
        let block = Sequential::new().with(Box::new(Linear::new(&mut r, 3, 3)));
        let inner = block.params_flat();
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(&mut r, 2, 3)))
            .with(Box::new(Residual::new(block)));
        assert_eq!(net.param_count(), 9 + 12);
        assert_eq!(&net.params_flat()[9..], &inner[..]);
        assert_eq!(net.param_lens(), [6, 3, 9, 3]);
        // The block's gradient lands in its range, after the first layer's.
        net.forward(&Tensor::ones(2, 2), true);
        net.backward_params(&Tensor::ones(2, 3));
        assert!(net.grads_flat()[9..].iter().any(|&g| g != 0.0));
    }

    #[test]
    fn swapping_hands_the_caller_its_own_allocation_back() {
        let mut r = rng::seeded(5);
        let mut net = Sequential::new().with(Box::new(Linear::new(&mut r, 4, 2)));
        let own = net.params_flat();
        let mut mine = vec![0.25; net.param_count()];
        let ptr = mine.as_ptr();
        net.swap_params(&mut mine);
        // The network runs on the caller's values, and holds its previous vector out.
        assert_eq!(net.params_flat(), vec![0.25; 10]);
        assert_eq!(mine, own);
        net.swap_params(&mut mine);
        assert_eq!(mine.as_ptr(), ptr, "the swap copied instead of exchanging");
        assert_eq!(net.params_flat(), own);
    }

    #[test]
    fn a_warm_training_step_takes_nothing_from_the_allocator() {
        // "Steady-state forward allocates nothing", counted over a worker's whole step:
        // swap its parameters in, forward/backward, swap them out, one fused optimizer
        // sweep. After one warm-up step every activation and matmul pack buffer of the
        // next comes out of the thread-local arena; the swap and the sweep take no
        // buffer at all. Batch 16 puts VggLike's matmuls at the dispatch gate and
        // AlexLike's past it; buffers are taken by the calling thread on either side
        // of it.
        use crate::optim::{Adam, Optimizer, Sgd};
        for kind in ModelKind::all() {
            let mut m = PaperModel::build(kind, 42);
            let x = match m.task {
                TaskKind::Classification { .. } => {
                    Tensor::from_fn(16, m.input_dim(), |r, c| ((r * 7 + c) % 5) as f32 * 0.1)
                }
                TaskKind::LanguageModel { vocab, context } => {
                    Tensor::from_fn(16, context, |r, c| ((r * 13 + c * 7) % vocab) as f32)
                }
            };
            let targets: Vec<usize> = (0..16).map(|i| i % m.output_dim()).collect();
            let mut params = m.params_flat();
            let mut opt: Box<dyn Optimizer> = match kind {
                ModelKind::AlexLike => Box::new(Adam::new(1e-4)),
                _ => Box::new(Sgd::new(0.9, 5e-4)),
            };
            let mut step = |m: &mut PaperModel| {
                m.swap_params(&mut params);
                m.seek_dropout(3);
                m.forward_backward_accumulate(&x, &targets);
                m.swap_params(&mut params);
                opt.step_fused(&mut params, m.grads_mut(), 0.01)
            };
            step(&mut m);
            let before = selsync_tensor::scratch::misses();
            assert!(step(&mut m) > 0.0);
            assert_eq!(
                selsync_tensor::scratch::misses(),
                before,
                "{kind:?}: a warm step allocated scratch buffers"
            );
        }
    }

    #[test]
    fn all_paper_models_build_and_run() {
        for kind in ModelKind::all() {
            let mut m = PaperModel::build(kind, 42);
            assert!(m.param_count() > 0);
            let batch = 4;
            let x = match m.task {
                TaskKind::Classification { .. } => {
                    Tensor::from_fn(batch, m.input_dim(), |r, c| ((r * 7 + c) % 5) as f32 * 0.1)
                }
                TaskKind::LanguageModel { vocab, context } => {
                    Tensor::from_fn(batch, context, |r, c| ((r * 13 + c * 7) % vocab) as f32)
                }
            };
            let targets: Vec<usize> = (0..batch).map(|i| i % m.output_dim()).collect();
            let stats = m.forward_backward(&x, &targets);
            assert!(stats.loss.is_finite(), "{kind:?} loss");
            let grads = m.grads_flat();
            assert_eq!(grads.len(), m.param_count());
            assert!(
                grads.iter().any(|&g| g != 0.0),
                "{kind:?} should produce nonzero grads"
            );
            let eval = m.evaluate(&x, &targets);
            assert!(eval.loss.is_finite());
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_batch() {
        // A few SGD steps on a fixed batch must reduce the loss for every model family.
        use crate::optim::{Optimizer, Sgd};
        for kind in [
            ModelKind::ResNetLike,
            ModelKind::VggLike,
            ModelKind::AlexLike,
        ] {
            let mut m = PaperModel::build(kind, 7);
            let batch = 16;
            let x = Tensor::from_fn(batch, m.input_dim(), |r, c| {
                ((r * 31 + c * 17) % 11) as f32 * 0.2 - 1.0
            });
            let targets: Vec<usize> = (0..batch).map(|i| (i * 3) % m.output_dim()).collect();
            let first = m.forward_backward(&x, &targets).loss;
            let mut opt = Sgd::new(0.9, 0.0);
            for _ in 0..30 {
                let mut params = m.params_flat();
                let grads = m.grads_flat();
                opt.step(&mut params, &grads, 0.05);
                m.set_params_flat(&params);
                m.forward_backward(&x, &targets);
            }
            let last = m.evaluate(&x, &targets).loss;
            assert!(last < first, "{kind:?}: {last} !< {first}");
        }
    }

    #[test]
    fn metric_names_and_direction() {
        assert_eq!(
            PaperModel::build(ModelKind::ResNetLike, 1)
                .task
                .metric_name(),
            "top1_accuracy_%"
        );
        assert_eq!(
            PaperModel::build(ModelKind::AlexLike, 1).task.metric_name(),
            "topk_accuracy_%"
        );
        let lm = PaperModel::build(ModelKind::TransformerLike, 1);
        assert_eq!(lm.task.metric_name(), "perplexity");
        assert!(!lm.task.higher_is_better());
    }

    #[test]
    fn paper_names() {
        assert_eq!(ModelKind::ResNetLike.paper_name(), "ResNet101");
        assert_eq!(ModelKind::VggLike.paper_name(), "VGG11");
        assert_eq!(ModelKind::AlexLike.paper_name(), "AlexNet");
        assert_eq!(ModelKind::TransformerLike.paper_name(), "Transformer");
    }

    #[test]
    fn nominal_footprints_match_paper_scale() {
        let vgg = PaperModel::build(ModelKind::VggLike, 1);
        assert_eq!(vgg.nominal.wire_bytes, 507 * 1024 * 1024);
        let resnet = PaperModel::build(ModelKind::ResNetLike, 1);
        assert!(resnet.nominal.wire_bytes < vgg.nominal.wire_bytes);
        // ResNet101 is the most compute-intensive per sample (deepest network).
        assert!(resnet.nominal.flops_per_sample > vgg.nominal.flops_per_sample);
    }
}
