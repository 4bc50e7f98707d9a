//! Optimizers operating on flattened parameter/gradient vectors.
//!
//! The distributed algorithms exchange *flat* `Vec<f32>` parameter and gradient vectors
//! (that is what the parameter server stores and what collectives reduce), so the
//! optimizers work directly on those vectors rather than on per-layer tensors. The
//! paper's configurations need SGD with momentum + weight decay (ResNet101, VGG11,
//! Transformer) and Adam (AlexNet).
//!
//! Updates are gated sweeps over fixed element chunks ([`selsync_tensor::par`]: on the
//! calling thread up to one `par::GRAIN` of elements, on the pool above it); the
//! per-element arithmetic is unchanged, so the update is bit-identical to the serial
//! loop for every thread count.
//!
//! A training step reads its gradient once: [`Optimizer::step_fused`] updates the
//! parameters, sums the squared gradient norm the `Δ(g_i)` tracker needs and resets the
//! gradient for the next backward in the same sweep; [`drain_grads`] is that sweep for
//! a gradient that leaves the worker before its update.

use selsync_tensor::par;
use serde::{Deserialize, Serialize};

/// The checkpointable portion of an optimizer: the step counter and each internal
/// per-parameter buffer (hyperparameters are rebuilt from configuration on restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct OptimizerState {
    /// Step counter (Adam's bias-correction `t`; 0 for SGD).
    pub t: u64,
    /// Internal buffers in a fixed per-optimizer order (SGD: `[velocity]`,
    /// Adam: `[m, v]`). Buffers may be empty before the first step.
    pub buffers: Vec<Vec<f32>>,
}

/// A first-order optimizer over flat parameter vectors.
pub trait Optimizer: Send {
    /// Apply one update step: `params` are modified in place using `grads` and the
    /// supplied learning rate.
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32);

    /// [`Self::step`] that also returns `Σ g²` over `grads` and leaves `grads` zeroed for
    /// the next backward: the whole local step in one sweep, on the calling thread. The
    /// sum runs in index order from `Sum`'s start value, bit-identical to
    /// `grads.iter().map(|g| g * g).sum()`.
    fn step_fused(&mut self, params: &mut [f32], grads: &mut [f32], lr: f32) -> f32;

    /// Reset internal state (momentum / moment estimates).
    fn reset(&mut self);

    /// Name for reporting.
    fn name(&self) -> &'static str;

    /// Capture internal state for a checkpoint.
    fn export_state(&self) -> OptimizerState;

    /// Restore state captured by [`Self::export_state`] onto a same-configured
    /// optimizer. Panics when the buffer count does not match the optimizer kind.
    fn load_state(&mut self, state: &OptimizerState);
}

/// Elements per block of a fused sweep. The sweep sums a block's `g²` serially, then
/// updates the block in a loop that vectorizes: the ordered sum is a latency chain,
/// and a block this short lets the core run each block's update under the chain.
const BLOCK: usize = 64;

/// The start of a fused sweep's `Σ g²`: `Sum`'s own, so that continuing it block by
/// block with [`sq_norm_from`] gives `grads.iter().map(|g| g * g).sum()` bit for bit.
fn sq_norm_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// `sq` continued over `block`'s squares in index order.
fn sq_norm_from(sq: f32, block: &[f32]) -> f32 {
    block.iter().fold(sq, |sq, g| sq + g * g)
}

/// The norm-only sweep of a step whose gradient leaves the worker before its update
/// (gradient aggregation): `grads` moves into `out` and is left zeroed for the next
/// backward. Returns `Σ g²`, summed as [`Optimizer::step_fused`] sums it.
pub fn drain_grads(grads: &mut [f32], out: &mut Vec<f32>) -> f32 {
    out.resize(grads.len(), 0.0);
    let mut sq = sq_norm_start();
    for (o, g) in out.chunks_mut(BLOCK).zip(grads.chunks_mut(BLOCK)) {
        sq = sq_norm_from(sq, g);
        for (o, g) in o.iter_mut().zip(g) {
            *o = std::mem::take(g);
        }
    }
    sq
}

/// Stochastic gradient descent with classical momentum and decoupled L2 weight decay.
///
/// Update: `v = momentum * v + (g + weight_decay * w)`, `w -= lr * v`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Create an SGD optimizer.
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Size the velocity for `params` and return the per-element update at `lr`.
    fn update(
        &mut self,
        params: &[f32],
        grads: &[f32],
        lr: f32,
    ) -> impl Fn(&mut f32, &mut f32, f32) + Sync {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.velocity.len() != params.len() {
            self.velocity = vec![0.0; params.len()];
        }
        let (momentum, weight_decay) = (self.momentum, self.weight_decay);
        move |p, v, g| {
            let g = g + weight_decay * *p;
            *v = momentum * *v + g;
            *p -= lr * *v;
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        let update = self.update(params, grads, lr);
        par::zip3_mut(params, &mut self.velocity, grads, update);
    }

    fn step_fused(&mut self, params: &mut [f32], grads: &mut [f32], lr: f32) -> f32 {
        let update = self.update(params, grads, lr);
        let state = self.velocity.chunks_mut(BLOCK);
        let mut sq = sq_norm_start();
        for ((p, v), g) in params
            .chunks_mut(BLOCK)
            .zip(state)
            .zip(grads.chunks_mut(BLOCK))
        {
            sq = sq_norm_from(sq, g);
            for ((p, v), g) in p.iter_mut().zip(v).zip(g) {
                update(p, v, std::mem::take(g));
            }
        }
        sq
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn name(&self) -> &'static str {
        "sgd"
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            t: 0,
            buffers: vec![self.velocity.clone()],
        }
    }

    fn load_state(&mut self, state: &OptimizerState) {
        assert_eq!(state.buffers.len(), 1, "SGD state holds one buffer");
        self.velocity = state.buffers[0].clone();
    }
}

/// Adam optimizer (Kingma & Ba, 2014), used by the paper for AlexNet on ImageNet-1K.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Exponential decay rate for the first moment.
    pub beta1: f32,
    /// Exponential decay rate for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Create an Adam optimizer with the conventional defaults (β1=0.9, β2=0.999).
    pub fn new(weight_decay: f32) -> Self {
        Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Size the moments for `params`, advance the step counter and return the
    /// per-element update of this step at `lr`.
    fn update(
        &mut self,
        params: &[f32],
        grads: &[f32],
        lr: f32,
    ) -> impl Fn(&mut f32, &mut f32, &mut f32, f32) + Sync {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2) = (self.beta1, self.beta2);
        let (eps, weight_decay) = (self.eps, self.weight_decay);
        move |p, m, v, g| {
            let g = g + weight_decay * *p;
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32], lr: f32) {
        let update = self.update(params, grads, lr);
        par::zip4_mut(params, &mut self.m, &mut self.v, grads, update);
    }

    fn step_fused(&mut self, params: &mut [f32], grads: &mut [f32], lr: f32) -> f32 {
        let update = self.update(params, grads, lr);
        let state = self.m.chunks_mut(BLOCK).zip(self.v.chunks_mut(BLOCK));
        let mut sq = sq_norm_start();
        for ((p, (m, v)), g) in params
            .chunks_mut(BLOCK)
            .zip(state)
            .zip(grads.chunks_mut(BLOCK))
        {
            sq = sq_norm_from(sq, g);
            for (((p, m), v), g) in p.iter_mut().zip(m).zip(v).zip(g) {
                update(p, m, v, std::mem::take(g));
            }
        }
        sq
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState {
            t: self.t,
            buffers: vec![self.m.clone(), self.v.clone()],
        }
    }

    fn load_state(&mut self, state: &OptimizerState) {
        assert_eq!(state.buffers.len(), 2, "Adam state holds two buffers");
        self.m = state.buffers[0].clone();
        self.v = state.buffers[1].clone();
        self.t = state.t;
    }
}

/// Construct the optimizer named by `spec` ("sgd" / "adam"), used by experiment configs.
pub fn by_name(spec: &str, momentum: f32, weight_decay: f32) -> Box<dyn Optimizer> {
    match spec {
        "adam" => Box::new(Adam::new(weight_decay)),
        _ => Box::new(Sgd::new(momentum, weight_decay)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_without_momentum_is_plain_descent() {
        let mut opt = Sgd::new(0.0, 0.0);
        let mut params = vec![1.0, 2.0];
        opt.step(&mut params, &[0.5, -0.5], 0.1);
        assert!((params[0] - 0.95).abs() < 1e-6);
        assert!((params[1] - 2.05).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accumulates_velocity() {
        let mut opt = Sgd::new(0.9, 0.0);
        let mut params = vec![0.0];
        opt.step(&mut params, &[1.0], 1.0);
        assert!((params[0] + 1.0).abs() < 1e-6); // v = 1
        opt.step(&mut params, &[1.0], 1.0);
        assert!((params[0] + 2.9).abs() < 1e-6); // v = 1.9
    }

    #[test]
    fn sgd_weight_decay_shrinks_params_with_zero_grad() {
        let mut opt = Sgd::new(0.0, 0.1);
        let mut params = vec![10.0];
        opt.step(&mut params, &[0.0], 0.5);
        assert!((params[0] - 9.5).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(w) = (w - 3)^2 with Adam.
        let mut opt = Adam::new(0.0);
        let mut w = vec![0.0f32];
        for _ in 0..2000 {
            let g = 2.0 * (w[0] - 3.0);
            opt.step(&mut w, &[g], 0.05);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "w = {}", w[0]);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.9, 0.0);
        let mut w = vec![-5.0f32];
        for _ in 0..500 {
            let g = 2.0 * (w[0] - 3.0);
            opt.step(&mut w, &[g], 0.01);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "w = {}", w[0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Sgd::new(0.9, 0.0);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0], 1.0);
        opt.reset();
        let mut p2 = vec![0.0];
        opt.step(&mut p2, &[1.0], 1.0);
        assert!((p2[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn by_name_selects_optimizer() {
        assert_eq!(by_name("adam", 0.0, 0.0).name(), "adam");
        assert_eq!(by_name("sgd", 0.9, 0.0).name(), "sgd");
        assert_eq!(by_name("anything-else", 0.9, 0.0).name(), "sgd");
    }

    #[test]
    fn export_load_continues_bit_identically() {
        for name in ["sgd", "adam"] {
            let mut a = by_name(name, 0.9, 0.01);
            let mut pa = vec![0.4f32, -1.2, 2.5, 0.0];
            for i in 0..5 {
                let g: Vec<f32> = pa.iter().map(|p| 0.3 * p + i as f32 * 0.01).collect();
                a.step(&mut pa, &g, 0.05);
            }
            let state = a.export_state();
            let mut b = by_name(name, 0.9, 0.01);
            let mut pb = pa.clone();
            b.load_state(&state);
            assert_eq!(b.export_state(), state);
            for _ in 0..4 {
                let g: Vec<f32> = pa.iter().map(|p| 0.3 * p - 0.02).collect();
                a.step(&mut pa, &g, 0.05);
                b.step(&mut pb, &g, 0.05);
            }
            for (x, y) in pa.iter().zip(&pb) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} diverged after restore");
            }
        }
    }

    #[test]
    fn fresh_optimizer_state_is_loadable_before_any_step() {
        let mut opt = Adam::new(0.0);
        let state = opt.export_state();
        assert_eq!(state.t, 0);
        opt.load_state(&state);
        let mut p = vec![1.0f32];
        opt.step(&mut p, &[0.5], 0.1); // lazy init still works
        assert!(p[0] < 1.0);
    }

    #[test]
    fn the_fused_step_is_norm_then_step_then_reset() {
        // Both sides of the gate, where `step` leaves the caller for the pool (the
        // fused sweep never does), and block remainders.
        for len in [1000, par::GRAIN + 3] {
            let ramp = |salt: usize| -> Vec<f32> {
                let f = |i: usize| ((i * 7 + salt * 13) % 29) as f32 * 0.037 - 0.51;
                (0..len).map(f).collect()
            };
            for name in ["sgd", "adam"] {
                let (mut a, mut b) = (by_name(name, 0.9, 0.01), by_name(name, 0.9, 0.01));
                let (mut pa, mut pb) = (ramp(1), ramp(1));
                for step in 0..3 {
                    let mut grads = ramp(step + 2);
                    let want: f32 = grads.iter().map(|g| g * g).sum();
                    b.step(&mut pb, &grads, 0.05);
                    let got = a.step_fused(&mut pa, &mut grads, 0.05);
                    assert_eq!(got.to_bits(), want.to_bits(), "{name} norm at {len}");
                    assert!(grads.iter().all(|&g| g == 0.0), "{name} reset at {len}");
                }
                assert!(pa == pb, "{name} params at {len}");
                assert_eq!(a.export_state(), b.export_state(), "{name} state at {len}");
            }
        }
    }

    #[test]
    fn drain_moves_the_gradient_out_and_sums_its_squares() {
        let mut grads = vec![3.0f32, -4.0, 0.5];
        let mut out = vec![9.0; 7];
        assert_eq!(drain_grads(&mut grads, &mut out), 25.25);
        assert_eq!(out, [3.0, -4.0, 0.5]);
        assert_eq!(grads, [0.0; 3]);
        // The empty sum keeps `Sum`'s start value.
        let empty: f32 = std::iter::empty::<f32>().sum();
        assert_eq!(drain_grads(&mut [], &mut out).to_bits(), empty.to_bits());
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(0.0, 0.0);
        let mut p = vec![0.0, 1.0];
        opt.step(&mut p, &[1.0], 0.1);
    }
}
