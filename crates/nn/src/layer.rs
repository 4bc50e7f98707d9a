//! Layers with hand-written forward/backward passes.
//!
//! Each layer caches whatever it needs from the forward pass to compute gradients in the
//! backward pass (the usual tape-free, layer-local autodiff used before general autograd
//! engines). A layer owns no parameters: its network ([`crate::model::Sequential`])
//! keeps them in one flat vector and passes each layer its range. Correctness of every backward pass is certified by the finite-difference
//! checks in [`crate::gradcheck`] and the unit tests below.

use selsync_tensor::{ops, rng, Tensor};

/// Write `f(src)` elementwise into `slot`, reusing the slot's buffer when the shape
/// matches — the per-step cache path of the layers allocates nothing in steady state.
fn map_into_slot(slot: &mut Option<Tensor>, src: &Tensor, f: impl Fn(f32) -> f32) {
    match slot {
        Some(t) if t.shape() == src.shape() => {
            for (d, &s) in t.data_mut().iter_mut().zip(src.data().iter()) {
                *d = f(s);
            }
        }
        _ => *slot = Some(src.map(&f)),
    }
}

/// Move `value` into `slot`, recycling the buffer the slot previously held.
fn replace_recycling(slot: &mut Option<Tensor>, value: Tensor) {
    if let Some(prev) = slot.replace(value) {
        prev.recycle();
    }
}

/// A differentiable network layer.
///
/// A layer reads its parameters from `p`, its range of the network's flat parameter
/// vector, and accumulates their gradients into `g`, the same range of the network's
/// gradient vector; the network resets `g`. Both hold the layer's tensors back to back
/// in [`Layer::param_lens`] order. The distributed training algorithms never touch
/// layers directly; they use the flat vectors of [`crate::model::Sequential`].
pub trait Layer: Send {
    /// Short human-readable layer name (used in gradient KDE plots, Fig. 3/11).
    fn name(&self) -> &'static str;

    /// Forward pass. `train` enables training-only behaviour (e.g. dropout).
    fn forward(&mut self, p: &[f32], input: &Tensor, train: bool) -> Tensor;

    /// Backward pass: given `dL/d output`, accumulate parameter gradients into `g` and
    /// return `dL/d input`.
    fn backward(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) -> Tensor;

    /// [`Layer::backward`] where nobody reads `dL/d input` (a network's first layer):
    /// only the parameter gradients are formed.
    fn backward_params(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) {
        self.backward(p, g, grad_output).recycle();
    }

    /// Lengths of this layer's parameter tensors, in `p` order (possibly empty).
    fn param_lens(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Total number of scalar parameters in this layer.
    fn param_count(&self) -> usize {
        self.param_lens().iter().sum()
    }

    /// The layer's initial parameters, moved out when it joins a network.
    fn take_init(&mut self) -> Vec<f32> {
        Vec::new()
    }

    /// Position every stochastic layer's RNG for the `forward_index`-th *training*
    /// forward pass of a canonical shared stream (a no-op for deterministic layers).
    ///
    /// The simulator's worker-parallel rounds run each worker on its own model
    /// replica, but the sequential baseline fed every worker through one shared
    /// engine whose dropout RNG advanced worker by worker. Seeking before each
    /// training forward lets independent replicas reproduce that single shared
    /// stream bit-for-bit, so results do not depend on which engine ran which
    /// worker. Callers that never seek get the classic stateful stream.
    fn seek_dropout(&mut self, forward_index: u64) {
        let _ = forward_index;
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer: `Y = X W + b` with `W` of shape `(in_dim, out_dim)`; `p` is
/// `W` row-major, then `b`.
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    init: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Create a Linear layer with He-normal weights and zero bias.
    pub fn new(rng_: &mut rng::SelRng, in_dim: usize, out_dim: usize) -> Self {
        let mut init = selsync_tensor::init::he_normal(rng_, in_dim, out_dim)
            .data()
            .to_vec();
        init.resize((in_dim + 1) * out_dim, 0.0);
        Linear {
            in_dim,
            out_dim,
            init,
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, p: &[f32], input: &Tensor, train: bool) -> Tensor {
        // Zero-alloc hot path: X*W into a scratch tensor, bias added in place.
        let (weight, bias) = p.split_at(self.in_dim * self.out_dim);
        let mut out = Tensor::scratch_zeros(input.rows(), self.out_dim);
        let shape = (input.rows(), self.in_dim, self.out_dim);
        ops::matmul_slices_acc(input.data(), weight, out.data_mut(), shape);
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *o += b;
            }
        }
        if train {
            input.clone_into_slot(&mut self.cached_input);
        }
        out
    }

    fn backward(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) -> Tensor {
        self.backward_params(p, g, grad_output);
        // dX = dY W^T
        let mut dx = Tensor::scratch_zeros(grad_output.rows(), self.in_dim);
        let weight = &p[..self.in_dim * self.out_dim];
        let shape = (grad_output.rows(), self.out_dim, self.in_dim);
        ops::matmul_bt_slices_acc(grad_output.data(), weight, dx.data_mut(), shape);
        dx
    }

    fn backward_params(&mut self, _: &[f32], g: &mut [f32], grad_output: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW += X^T dY ; db += column sums of dY — straight into the gradient vector.
        let (grad_weight, grad_bias) = g.split_at_mut(self.in_dim * self.out_dim);
        let shape = (self.in_dim, input.rows(), self.out_dim);
        ops::matmul_at_slices_acc(input.data(), grad_output.data(), grad_weight, shape);
        for row in grad_output.rows_iter() {
            for (o, &x) in grad_bias.iter_mut().zip(row) {
                *o += x;
            }
        }
    }

    fn param_lens(&self) -> Vec<usize> {
        vec![self.in_dim * self.out_dim, self.out_dim]
    }

    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// Rectified linear unit.
#[derive(Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Create a ReLU activation.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::scratch_copy(input);
        out.map_inplace(|x| x.max(0.0));
        if train {
            map_into_slot(&mut self.mask, input, |x| if x > 0.0 { 1.0 } else { 0.0 });
        }
        out
    }

    fn backward(&mut self, _: &[f32], _: &mut [f32], grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        let mut out = Tensor::scratch_copy(grad_output);
        out.zip_mut_with(mask, |g, m| g * m)
            .expect("relu backward shape");
        out
    }
}

/// Hyperbolic tangent activation.
#[derive(Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Create a Tanh activation.
    pub fn new() -> Self {
        Tanh {
            cached_output: None,
        }
    }
}

impl Layer for Tanh {
    fn name(&self) -> &'static str {
        "tanh"
    }

    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::scratch_copy(input);
        out.map_inplace(|x| x.tanh());
        if train {
            out.clone_into_slot(&mut self.cached_output);
        }
        out
    }

    fn backward(&mut self, _: &[f32], _: &mut [f32], grad_output: &Tensor) -> Tensor {
        let out = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        let mut dx = Tensor::scratch_copy(grad_output);
        dx.zip_mut_with(out, |g, y| g * (1.0 - y * y))
            .expect("tanh backward shape");
        dx
    }
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

/// Inverted dropout: during training, zeroes activations with probability `p` and scales
/// the survivors by `1/(1-p)`; a no-op at evaluation time.
pub struct Dropout {
    p: f32,
    rng: rng::SelRng,
    mask: Option<Tensor>,
    /// Pending absolute stream position (in training forwards) set by
    /// [`Layer::seek_dropout`]; consumed by the next training forward.
    pending_seek: Option<u64>,
    /// Mask length of the first *seeked* training forward. The seek formula
    /// `j * input.len()` assumes every training forward draws the same number of
    /// keystream words; this records the length so a ragged batch panics in debug
    /// builds instead of silently desynchronising replica streams.
    seeked_len: Option<usize>,
}

impl Dropout {
    /// Create a dropout layer with drop probability `p` and its own deterministic RNG.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Dropout {
            p,
            rng: rng::seeded(seed),
            mask: None,
            pending_seek: None,
            seeked_len: None,
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return input.clone();
        }
        // A mask draws exactly `input.len()` keystream words, so the j-th training
        // forward of the canonical shared stream starts at word j * input.len(); the
        // O(1) ChaCha seek positions this replica's RNG there. This requires every
        // training forward to use the same mask length — assert it rather than let a
        // ragged batch silently desynchronise replica streams.
        if let Some(j) = self.pending_seek.take() {
            let len = self.seeked_len.get_or_insert(input.len());
            debug_assert_eq!(
                *len,
                input.len(),
                "seeked dropout requires a constant batch shape across training forwards"
            );
            self.rng.set_word_pos(j.wrapping_mul(input.len() as u64));
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        // Regenerate the mask into the cached buffer (same RNG stream as before).
        if !matches!(&self.mask, Some(m) if m.shape() == input.shape()) {
            self.mask = Some(Tensor::zeros(input.rows(), input.cols()));
        }
        let mask = self.mask.as_mut().expect("mask just ensured");
        {
            use rand::Rng;
            for m in mask.data_mut() {
                *m = if self.rng.gen::<f32>() < keep {
                    scale
                } else {
                    0.0
                };
            }
        }
        let mut out = Tensor::scratch_copy(input);
        out.zip_mut_with(mask, |x, m| x * m)
            .expect("dropout forward shape");
        out
    }

    fn backward(&mut self, _: &[f32], _: &mut [f32], grad_output: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => {
                let mut out = Tensor::scratch_copy(grad_output);
                out.zip_mut_with(mask, |g, m| g * m)
                    .expect("dropout backward shape");
                out
            }
            None => grad_output.clone(),
        }
    }

    fn seek_dropout(&mut self, forward_index: u64) {
        self.pending_seek = Some(forward_index);
    }
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Layer normalisation over the feature dimension of each row, with learnable scale
/// (`gamma`) and shift (`beta`); `p` is `gamma`, then `beta`.
pub struct LayerNorm {
    dim: usize,
    eps: f32,
    cached_normed: Option<Tensor>,
    cached_inv_std: Option<Vec<f32>>,
}

impl LayerNorm {
    /// Create a LayerNorm over `dim` features.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            dim,
            eps: 1e-5,
            cached_normed: None,
            cached_inv_std: None,
        }
    }
}

impl Layer for LayerNorm {
    fn name(&self) -> &'static str {
        "layernorm"
    }

    fn forward(&mut self, p: &[f32], input: &Tensor, train: bool) -> Tensor {
        let (gamma, beta) = p.split_at(self.dim);
        let (rows, cols) = input.shape();
        let mut normed = Tensor::scratch_zeros(rows, cols);
        // Only a training forward may consume the cached workspace: an eval-mode
        // forward must leave the caches of a preceding training forward intact (a
        // mid-step evaluation must not break the next backward).
        let mut inv_stds = if train {
            self.cached_inv_std.take().map_or_else(
                || Vec::with_capacity(rows),
                |mut v| {
                    v.clear();
                    v
                },
            )
        } else {
            let mut v = selsync_tensor::scratch::take_zeroed(rows);
            v.clear();
            v
        };
        for r in 0..rows {
            let row = input.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            for (c, &x) in row.iter().enumerate() {
                normed.set(r, c, (x - mean) * inv_std);
            }
        }
        let mut out = Tensor::scratch_zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                out.set(r, c, normed.get(r, c) * gamma[c] + beta[c]);
            }
        }
        if train {
            replace_recycling(&mut self.cached_normed, normed);
            self.cached_inv_std = Some(inv_stds);
        } else {
            normed.recycle();
            selsync_tensor::scratch::recycle(inv_stds);
        }
        out
    }

    fn backward(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) -> Tensor {
        let gamma = &p[..self.dim];
        let (grad_gamma, grad_beta) = g.split_at_mut(self.dim);
        let normed = self
            .cached_normed
            .as_ref()
            .expect("backward called before forward");
        let inv_stds = self
            .cached_inv_std
            .as_ref()
            .expect("backward called before forward");
        let (rows, cols) = grad_output.shape();
        let n = cols as f32;
        let mut grad_input = Tensor::scratch_zeros(rows, cols);

        for c in 0..cols {
            let mut gg = 0.0f32;
            let mut gb = 0.0f32;
            for r in 0..rows {
                gg += grad_output.get(r, c) * normed.get(r, c);
                gb += grad_output.get(r, c);
            }
            grad_gamma[c] += gg;
            grad_beta[c] += gb;
        }

        // Standard layer-norm backward: for each row,
        //   dx = inv_std/N * (N*dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
        // where dxhat = dy * gamma.
        for (r, &inv_std) in inv_stds.iter().enumerate().take(rows) {
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for (c, &gm) in gamma.iter().enumerate() {
                let dxhat = grad_output.get(r, c) * gm;
                sum_dxhat += dxhat;
                sum_dxhat_xhat += dxhat * normed.get(r, c);
            }
            for (c, &gm) in gamma.iter().enumerate() {
                let dxhat = grad_output.get(r, c) * gm;
                let dx =
                    (inv_std / n) * (n * dxhat - sum_dxhat - normed.get(r, c) * sum_dxhat_xhat);
                grad_input.set(r, c, dx);
            }
        }
        grad_input
    }

    fn param_lens(&self) -> Vec<usize> {
        vec![self.dim, self.dim]
    }

    fn take_init(&mut self) -> Vec<f32> {
        (0..2 * self.dim)
            .map(|i| if i < self.dim { 1.0 } else { 0.0 })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

/// Token-embedding lookup.
///
/// Input is a `(batch, tokens)` tensor whose entries are token ids stored as `f32`;
/// output is `(batch, tokens * dim)` with per-token embeddings concatenated along the
/// feature axis. The gradient is scatter-added into the embedding table, `p` row-major.
pub struct Embedding {
    vocab: usize,
    dim: usize,
    init: Vec<f32>,
    cached_ids: Option<Vec<Vec<usize>>>,
}

impl Embedding {
    /// Create an embedding table of shape `(vocab, dim)` with small normal init.
    pub fn new(rng_: &mut rng::SelRng, vocab: usize, dim: usize) -> Self {
        let table = selsync_tensor::init::normal(rng_, vocab, dim, 0.0, 0.1);
        Embedding {
            vocab,
            dim,
            init: table.data().to_vec(),
            cached_ids: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Layer for Embedding {
    fn name(&self) -> &'static str {
        "embedding"
    }

    fn forward(&mut self, p: &[f32], input: &Tensor, train: bool) -> Tensor {
        let (batch, tokens) = input.shape();
        let vocab = self.vocab;
        let mut out = Tensor::scratch_zeros(batch, tokens * self.dim);
        // Reuse the cached id rows (inner vectors keep their capacity) — but only in
        // training mode: an eval forward must leave a previous training forward's
        // cache intact for the next backward.
        let mut ids = if train {
            self.cached_ids.take().unwrap_or_default()
        } else {
            Vec::new()
        };
        ids.resize_with(batch, Vec::new);
        for (b, row_ids) in ids.iter_mut().enumerate() {
            row_ids.clear();
            for t in 0..tokens {
                let id = (input.get(b, t).round().max(0.0) as usize).min(vocab - 1);
                row_ids.push(id);
                let emb = &p[id * self.dim..(id + 1) * self.dim];
                out.row_mut(b)[t * self.dim..(t + 1) * self.dim].copy_from_slice(emb);
            }
        }
        if train {
            self.cached_ids = Some(ids);
        }
        out
    }

    fn backward(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) -> Tensor {
        self.backward_params(p, g, grad_output);
        let ids = self.cached_ids.as_deref().unwrap_or_default();
        // Token ids are not differentiable; return a zero gradient of the input shape.
        Tensor::scratch_zeros(ids.len(), ids.first().map_or(0, Vec::len))
    }

    fn backward_params(&mut self, _: &[f32], g: &mut [f32], grad_output: &Tensor) {
        let ids = self
            .cached_ids
            .as_ref()
            .expect("backward called before forward");
        for (b, row_ids) in ids.iter().enumerate() {
            for (t, &id) in row_ids.iter().enumerate() {
                let slice = &grad_output.row(b)[t * self.dim..(t + 1) * self.dim];
                let dst = &mut g[id * self.dim..(id + 1) * self.dim];
                for (d, &g) in dst.iter_mut().zip(slice.iter()) {
                    *d += g;
                }
            }
        }
    }

    fn param_lens(&self) -> Vec<usize> {
        vec![self.vocab * self.dim]
    }

    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
}

// ---------------------------------------------------------------------------
// Attention pooling
// ---------------------------------------------------------------------------

/// Single-head additive attention pooling over a token sequence.
///
/// Input is the `(batch, tokens * dim)` output of an [`Embedding`] layer. Each row is
/// interpreted as `tokens` vectors of size `dim`; a learned query vector `q` scores each
/// token (`s_t = q · e_t`), scores are soft-maxed into attention weights `α`, and the
/// output is the attention-weighted sum `Σ α_t e_t` of shape `(batch, dim)`. This is the
/// attention mechanism of the paper's Transformer encoder reduced to a pooling head —
/// small enough for hand-written gradients, but it preserves the softmax-attention
/// training dynamics (sharp early perplexity drop, §IV of the paper).
///
/// `p` is `q`, then a learnable per-position score bias (1 x tokens). Content scores
/// alone cannot distinguish *where* a token sits in the context, which makes next-token
/// prediction on Markov data impossible beyond the unigram floor; the bias is
/// initialised as a recency ramp (ALiBi-style) so the pool starts out focused on the
/// most recent tokens and can sharpen or flatten that focus during training.
pub struct AttentionPool {
    init: Vec<f32>,
    dim: usize,
    tokens: usize,
    cached_input: Option<Tensor>,
    cached_alpha: Option<Tensor>,
}

impl AttentionPool {
    /// Create an attention-pooling head over `tokens` vectors of size `dim`.
    pub fn new(rng_: &mut rng::SelRng, tokens: usize, dim: usize) -> Self {
        let query = selsync_tensor::init::normal(rng_, 1, dim, 0.0, 0.2);
        let pos_bias = (0..tokens).map(|t| (t as f32 - (tokens - 1) as f32) * 2.0);
        AttentionPool {
            init: query.data().iter().copied().chain(pos_bias).collect(),
            dim,
            tokens,
            cached_input: None,
            cached_alpha: None,
        }
    }
}

impl Layer for AttentionPool {
    fn name(&self) -> &'static str {
        "attention_pool"
    }

    fn forward(&mut self, p: &[f32], input: &Tensor, train: bool) -> Tensor {
        let batch = input.rows();
        assert_eq!(
            input.cols(),
            self.tokens * self.dim,
            "attention pool input width"
        );
        let (q, pos_bias) = p.split_at(self.dim);
        let mut alpha = Tensor::scratch_zeros(batch, self.tokens);
        let mut out = Tensor::scratch_zeros(batch, self.dim);
        // One scratch score buffer reused across the whole batch.
        let mut scores = selsync_tensor::scratch::take_zeroed(self.tokens);
        for b in 0..batch {
            let row = input.row(b);
            // scores
            scores.fill(0.0);
            for t in 0..self.tokens {
                let e = &row[t * self.dim..(t + 1) * self.dim];
                let content: f32 = e.iter().zip(q.iter()).map(|(x, y)| x * y).sum();
                scores[t] = content + pos_bias[t];
            }
            // softmax
            let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for s in scores.iter_mut() {
                *s = (*s - max).exp();
                denom += *s;
            }
            for (t, s) in scores.iter().enumerate() {
                alpha.set(b, t, s / denom);
            }
            // weighted sum
            for t in 0..self.tokens {
                let a = alpha.get(b, t);
                let e = &row[t * self.dim..(t + 1) * self.dim];
                for (o, &x) in out.row_mut(b).iter_mut().zip(e.iter()) {
                    *o += a * x;
                }
            }
        }
        selsync_tensor::scratch::recycle(scores);
        if train {
            input.clone_into_slot(&mut self.cached_input);
            replace_recycling(&mut self.cached_alpha, alpha);
        } else {
            alpha.recycle();
        }
        out
    }

    fn backward(&mut self, p: &[f32], g: &mut [f32], grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let alpha = self
            .cached_alpha
            .as_ref()
            .expect("backward called before forward");
        let batch = input.rows();
        let q = &p[..self.dim];
        let (grad_query, grad_pos_bias) = g.split_at_mut(self.dim);
        let mut grad_input = Tensor::scratch_zeros(batch, self.tokens * self.dim);
        // Scratch buffers reused across the batch.
        let mut dalpha = selsync_tensor::scratch::take_zeroed(self.tokens);
        let mut ds = selsync_tensor::scratch::take_zeroed(self.tokens);

        for b in 0..batch {
            let row = input.row(b);
            let dout = grad_output.row(b);
            // dα_t = dout · e_t
            for (t, d) in dalpha.iter_mut().enumerate() {
                let e = &row[t * self.dim..(t + 1) * self.dim];
                *d = e.iter().zip(dout.iter()).map(|(x, y)| x * y).sum();
            }
            // softmax backward: ds_t = α_t (dα_t - Σ_j α_j dα_j)
            let dot: f32 = (0..self.tokens).map(|t| alpha.get(b, t) * dalpha[t]).sum();
            for (t, s) in ds.iter_mut().enumerate() {
                *s = alpha.get(b, t) * (dalpha[t] - dot);
            }
            // dq += Σ_t ds_t e_t ; db_t += ds_t ; de_t = α_t dout + ds_t q
            for t in 0..self.tokens {
                let e = &row[t * self.dim..(t + 1) * self.dim];
                for (gq, &ed) in grad_query.iter_mut().zip(e) {
                    *gq += ds[t] * ed;
                }
                grad_pos_bias[t] += ds[t];
                let gi = &mut grad_input.row_mut(b)[t * self.dim..(t + 1) * self.dim];
                for (d, g) in gi.iter_mut().enumerate() {
                    *g = alpha.get(b, t) * dout[d] + ds[t] * q[d];
                }
            }
        }
        selsync_tensor::scratch::recycle(dalpha);
        selsync_tensor::scratch::recycle(ds);
        grad_input
    }

    fn param_lens(&self) -> Vec<usize> {
        vec![self.dim, self.tokens]
    }

    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_tensor::rng::seeded;

    /// A layer's parameters and a zeroed gradient, as its network would hold them.
    fn slots(layer: &mut dyn Layer) -> (Vec<f32>, Vec<f32>) {
        let p = layer.take_init();
        let g = vec![0.0; p.len()];
        (p, g)
    }

    #[test]
    fn linear_forward_shapes_and_bias() {
        let mut rng = seeded(1);
        let mut l = Linear::new(&mut rng, 4, 3);
        // Force known weights: W = 0, b = 1.5.
        let (mut p, _) = slots(&mut l);
        p[..12].fill(0.0);
        p[12..].fill(1.5);
        let x = Tensor::ones(2, 4);
        let y = l.forward(&p, &x, false);
        assert_eq!(y.shape(), (2, 3));
        assert!(y.data().iter().all(|&v| (v - 1.5).abs() < 1e-6));
    }

    #[test]
    fn linear_backward_accumulates() {
        let mut rng = seeded(2);
        let mut l = Linear::new(&mut rng, 3, 2);
        let (p, mut g) = slots(&mut l);
        let x = Tensor::ones(4, 3);
        let _ = l.forward(&p, &x, true);
        let dy = Tensor::ones(4, 2);
        let dx = l.backward(&p, &mut g, &dy);
        // dW = X^T dY = all 4s, db = 4
        assert!(g.iter().all(|&v| (v - 4.0).abs() < 1e-6));
        // Second backward accumulates, and without dX the same.
        let _ = l.forward(&p, &x, true);
        l.backward_params(&p, &mut g, &dy);
        assert!(g.iter().all(|&v| (v - 8.0).abs() < 1e-6));
        // dX = dY W^T: row sums of W.
        let w_row_sums: Vec<f32> = p[..6].chunks(2).map(|r| r[0] + r[1]).collect();
        assert_eq!(dx.row(0), &w_row_sums[..]);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = r.forward(&[], &x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Tensor::ones(1, 4);
        let dx = r.backward(&[], &mut [], &dy);
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_derivative_matches_identity() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(1, 2, vec![0.0, 0.5]).unwrap();
        let y = t.forward(&[], &x, true);
        assert!((y.get(0, 0)).abs() < 1e-6);
        let dx = t.backward(&[], &mut [], &Tensor::ones(1, 2));
        assert!((dx.get(0, 0) - 1.0).abs() < 1e-6); // tanh'(0) = 1
        assert!(dx.get(0, 1) < 1.0);
    }

    #[test]
    fn dropout_eval_is_identity_and_train_scales() {
        let mut d = Dropout::new(0.5, 99);
        let x = Tensor::ones(8, 16);
        let y_eval = d.forward(&[], &x, false);
        assert_eq!(y_eval, x);
        let y_train = d.forward(&[], &x, true);
        // Every surviving activation is scaled by 2.
        assert!(y_train
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        let kept = y_train.data().iter().filter(|&&v| v > 0.0).count();
        assert!(kept > 0 && kept < y_train.len());
    }

    #[test]
    fn seeked_replicas_reproduce_a_shared_dropout_stream() {
        // One stateful layer running 6 training forwards in sequence is the baseline.
        let x = Tensor::ones(4, 16);
        let mut shared = Dropout::new(0.4, 123);
        let baseline: Vec<Tensor> = (0..6).map(|_| shared.forward(&[], &x, true)).collect();
        // Two independent replicas split the same forwards (even/odd), each seeking to
        // the global forward index first — every mask must match the shared stream.
        let mut even = Dropout::new(0.4, 123);
        let mut odd = Dropout::new(0.4, 123);
        for (j, expect) in baseline.iter().enumerate() {
            let replica = if j % 2 == 0 { &mut even } else { &mut odd };
            replica.seek_dropout(j as u64);
            assert_eq!(&replica.forward(&[], &x, true), expect, "forward {j}");
        }
        // An eval forward between seeks neither draws nor consumes the pending seek.
        let mut r = Dropout::new(0.4, 123);
        r.seek_dropout(3);
        assert_eq!(r.forward(&[], &x, false), x);
        assert_eq!(r.forward(&[], &x, true), baseline[3]);
    }

    #[test]
    fn layernorm_rows_are_normalised() {
        let mut ln = LayerNorm::new(6);
        let (p, _) = slots(&mut ln);
        let x = Tensor::from_fn(3, 6, |r, c| (r * 6 + c) as f32);
        let y = ln.forward(&p, &x, true);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 6.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn embedding_lookup_and_scatter_grad() {
        let mut rng = seeded(3);
        let mut e = Embedding::new(&mut rng, 10, 4);
        let (p, mut g) = slots(&mut e);
        let ids = Tensor::from_vec(2, 3, vec![0.0, 1.0, 2.0, 2.0, 2.0, 9.0]).unwrap();
        let out = e.forward(&p, &ids, true);
        assert_eq!(out.shape(), (2, 12));
        // Row 0 token 1 equals table row 1.
        assert_eq!(&out.row(0)[4..8], &p[4..8]);
        let dy = Tensor::ones(2, 12);
        let dx = e.backward(&p, &mut g, &dy);
        assert_eq!(dx.shape(), (2, 3));
        // Token 2 appears three times, so its grad row sums to 3 per dim.
        assert!(g[8..12].iter().all(|&v| (v - 3.0).abs() < 1e-6));
        assert!(g[20..24].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn attention_pool_outputs_convex_combination() {
        let mut rng = seeded(4);
        let mut a = AttentionPool::new(&mut rng, 3, 2);
        let (p, mut g) = slots(&mut a);
        // Tokens: (1,0), (0,1), (1,1)
        let x = Tensor::from_vec(1, 6, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let y = a.forward(&p, &x, true);
        assert_eq!(y.shape(), (1, 2));
        // Output coordinates lie within the convex hull of token coordinates: [0, 1].
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let dx = a.backward(&p, &mut g, &Tensor::ones(1, 2));
        assert_eq!(dx.shape(), (1, 6));
        assert!(dx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn eval_forward_does_not_destroy_training_caches() {
        // A mid-step evaluation (train forward -> eval forward -> backward) must use
        // the *training* forward's caches; the eval pass must leave them intact.
        let mut rng = seeded(8);
        let mut ln = LayerNorm::new(4);
        let (p, mut g) = slots(&mut ln);
        let train_x = Tensor::from_fn(2, 4, |r, c| (r * 4 + c) as f32);
        let eval_x = Tensor::from_fn(3, 4, |r, c| -((r + c) as f32));
        let _ = ln.forward(&p, &train_x, true);
        let _ = ln.forward(&p, &eval_x, false);
        let dx = ln.backward(&p, &mut g, &Tensor::ones(2, 4));
        assert_eq!(dx.shape(), (2, 4));
        assert!(dx.data().iter().all(|v| v.is_finite()));

        let mut e = Embedding::new(&mut rng, 10, 4);
        let (p, mut g) = slots(&mut e);
        let train_ids = Tensor::from_vec(1, 2, vec![1.0, 2.0]).unwrap();
        let eval_ids = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let _ = e.forward(&p, &train_ids, true);
        let _ = e.forward(&p, &eval_ids, false);
        let dx = e.backward(&p, &mut g, &Tensor::ones(1, 8));
        assert_eq!(dx.shape(), (1, 2));
        // The gradient landed on the *training* batch's ids.
        assert!(g[4..8].iter().any(|&v| v != 0.0));
        assert!(g[12..16].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn param_counts() {
        let mut rng = seeded(5);
        let mut l = Linear::new(&mut rng, 10, 20);
        assert_eq!(l.param_count(), 10 * 20 + 20);
        assert_eq!(l.take_init().len(), l.param_count());
        let mut e = Embedding::new(&mut rng, 50, 8);
        assert_eq!(e.param_count(), 400);
        assert_eq!(e.take_init().len(), 400);
        assert_eq!(Relu::new().param_count(), 0);
    }
}
