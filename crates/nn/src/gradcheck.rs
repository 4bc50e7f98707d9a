//! Finite-difference gradient verification.
//!
//! The layers in this crate have hand-written backward passes; this module certifies
//! them against central finite differences of the loss. It is used by this crate's test
//! suite, and is exposed publicly so downstream users can validate custom layer stacks.

use crate::loss::softmax_cross_entropy;
use crate::model::Sequential;
use selsync_tensor::Tensor;

/// Result of a gradient check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Maximum absolute difference between analytic and numerical gradients over the
    /// checked coordinates.
    pub max_abs_err: f32,
    /// Maximum relative difference (`|a - n| / max(1, |a|, |n|)`).
    pub max_rel_err: f32,
    /// Number of parameter coordinates checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether the check passed at tolerance `tol` (on the relative error).
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err <= tol
    }
}

/// Loss of `net` on `(inputs, targets)` without touching gradients.
fn loss_of(net: &mut Sequential, inputs: &Tensor, targets: &[usize]) -> f32 {
    let logits = net.forward(inputs, true);
    softmax_cross_entropy(&logits, targets).0
}

/// Compare the analytic gradient of the softmax cross-entropy loss with central finite
/// differences, for up to `max_coords` parameter coordinates spread evenly across the
/// parameter vector.
///
/// Dropout layers must be disabled (probability 0) for the check to be meaningful, since
/// the finite-difference evaluations would otherwise sample different masks.
pub fn check_gradients(
    net: &mut Sequential,
    inputs: &Tensor,
    targets: &[usize],
    eps: f32,
    max_coords: usize,
) -> GradCheckReport {
    // Analytic gradient.
    net.zero_grads();
    let logits = net.forward(inputs, true);
    let (_, dlogits) = softmax_cross_entropy(&logits, targets);
    let _ = net.backward(&dlogits);
    let analytic = net.grads_flat();
    let base_params = net.params_flat();
    let n = base_params.len();
    assert!(n > 0, "gradient check requires a parameterised network");

    let coords = max_coords.min(n).max(1);
    let stride = (n / coords).max(1);

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut checked = 0usize;

    for idx in (0..n).step_by(stride).take(coords) {
        let mut plus = base_params.clone();
        plus[idx] += eps;
        net.set_params_flat(&plus);
        let lp = loss_of(net, inputs, targets);

        let mut minus = base_params.clone();
        minus[idx] -= eps;
        net.set_params_flat(&minus);
        let lm = loss_of(net, inputs, targets);

        let numeric = (lp - lm) / (2.0 * eps);
        let a = analytic[idx];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
        checked += 1;
    }

    // Restore original parameters.
    net.set_params_flat(&base_params);
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{AttentionPool, Embedding, LayerNorm, Linear, Relu, Tanh};
    use selsync_tensor::rng::seeded;

    fn class_batch(dim: usize, classes: usize, batch: usize) -> (Tensor, Vec<usize>) {
        let x = Tensor::from_fn(batch, dim, |r, c| {
            (((r * 13 + c * 7) % 9) as f32 - 4.0) * 0.25
        });
        let y = (0..batch).map(|i| (i * 5 + 1) % classes).collect();
        (x, y)
    }

    #[test]
    fn linear_relu_stack_gradients_are_correct() {
        let mut r = seeded(21);
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(&mut r, 6, 10)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(&mut r, 10, 4)));
        let (x, y) = class_batch(6, 4, 5);
        let report = check_gradients(&mut net, &x, &y, 1e-2, 60);
        assert!(report.passes(2e-2), "{report:?}");
        assert!(report.checked >= 50);
    }

    #[test]
    fn tanh_and_layernorm_gradients_are_correct() {
        let mut r = seeded(22);
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(&mut r, 5, 8)))
            .with(Box::new(Tanh::new()))
            .with(Box::new(LayerNorm::new(8)))
            .with(Box::new(Linear::new(&mut r, 8, 3)));
        let (x, y) = class_batch(5, 3, 4);
        let report = check_gradients(&mut net, &x, &y, 1e-2, 60);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn residual_block_gradients_are_correct() {
        use crate::model::Residual;
        let mut r = seeded(23);
        let block = Sequential::new()
            .with(Box::new(Linear::new(&mut r, 6, 6)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(&mut r, 6, 6)));
        let mut net = Sequential::new()
            .with(Box::new(Linear::new(&mut r, 4, 6)))
            .with(Box::new(Residual::new(block)))
            .with(Box::new(Linear::new(&mut r, 6, 3)));
        let (x, y) = class_batch(4, 3, 5);
        let report = check_gradients(&mut net, &x, &y, 1e-2, 80);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn embedding_attention_lm_gradients_are_correct() {
        let mut r = seeded(24);
        let vocab = 12;
        let context = 4;
        let dim = 5;
        let mut net = Sequential::new()
            .with(Box::new(Embedding::new(&mut r, vocab, dim)))
            .with(Box::new(AttentionPool::new(&mut r, context, dim)))
            .with(Box::new(Linear::new(&mut r, dim, vocab)));
        let x = Tensor::from_fn(6, context, |r, c| ((r * 3 + c * 5) % vocab) as f32);
        let y: Vec<usize> = (0..6).map(|i| (i * 7 + 2) % vocab).collect();
        let report = check_gradients(&mut net, &x, &y, 1e-2, 80);
        assert!(report.passes(3e-2), "{report:?}");
    }
}
