//! The relative-gradient-change tracker (`RelativeGradChange` of Alg. 1).
//!
//! Each worker tracks a scalar statistic of its per-iteration gradient — the paper uses
//! the gradient's L2 norm / variance, both cheap by-products of backpropagation —
//! smooths it with an EWMA (window 25, factor `N/100` by default), and reports the
//! relative change between consecutive smoothed values:
//!
//! ```text
//! Δ(g_i) = | E[s_i] − E[s_{i−1}] | / E[s_{i−1}]          (Eqn. 2)
//! ```
//!
//! Large `Δ(g_i)` means the gradients are changing quickly (early training, learning-rate
//! decays, critical periods) and the step is worth synchronizing.

use selsync_metrics::Ewma;
use serde::{Deserialize, Serialize};

/// Which scalar statistic of the gradient to track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GradStatistic {
    /// Squared L2 norm of the gradient (`E[||∇F||²]` in Eqn. 2). Paper default.
    #[default]
    SqNorm,
    /// Population variance of the gradient coordinates.
    Variance,
    /// Plain L2 norm.
    Norm,
}

impl GradStatistic {
    /// Evaluate the statistic on a flat gradient.
    pub fn evaluate(&self, grad: &[f32]) -> f32 {
        match self {
            GradStatistic::SqNorm => grad.iter().map(|g| g * g).sum(),
            GradStatistic::Norm => grad.iter().map(|g| g * g).sum::<f32>().sqrt(),
            GradStatistic::Variance => {
                if grad.is_empty() {
                    return 0.0;
                }
                let n = grad.len() as f32;
                let mean = grad.iter().sum::<f32>() / n;
                grad.iter().map(|g| (g - mean).powi(2)).sum::<f32>() / n
            }
        }
    }
}

/// Per-worker tracker producing `Δ(g_i)` each iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientTracker {
    statistic: GradStatistic,
    ewma: Ewma,
    previous_smoothed: Option<f32>,
    last_delta: f32,
    max_delta: f32,
    steps: u64,
}

impl GradientTracker {
    /// Create a tracker with an explicit EWMA configuration.
    pub fn new(statistic: GradStatistic, ewma_factor: f32, window: usize) -> Self {
        GradientTracker {
            statistic,
            ewma: Ewma::new(ewma_factor, window),
            previous_smoothed: None,
            last_delta: 0.0,
            max_delta: 0.0,
            steps: 0,
        }
    }

    /// Ingest this iteration's gradient and return `Δ(g_i)`.
    ///
    /// The first iteration returns 0 (there is no previous smoothed value to compare
    /// against), matching the behaviour of starting in the "synchronize because δ=0 ≤ Δ"
    /// regime only when the caller chooses δ = 0.
    pub fn update(&mut self, grad: &[f32]) -> f32 {
        let raw = self.statistic.evaluate(grad);
        self.update_with_statistic(raw)
    }

    /// Ingest a pre-computed statistic value (used when the gradient statistic is
    /// produced elsewhere, e.g. fused into the backward pass).
    pub fn update_with_statistic(&mut self, raw: f32) -> f32 {
        self.steps += 1;
        let smoothed = self.ewma.update(raw);
        let delta = match self.previous_smoothed {
            None => 0.0,
            Some(prev) => {
                if prev.abs() < f32::EPSILON {
                    0.0
                } else {
                    ((smoothed - prev) / prev).abs()
                }
            }
        };
        self.previous_smoothed = Some(smoothed);
        self.last_delta = delta;
        self.max_delta = self.max_delta.max(delta);
        delta
    }

    /// The most recent `Δ(g_i)`.
    pub fn last_delta(&self) -> f32 {
        self.last_delta
    }

    /// The largest `Δ(g_i)` observed so far (the paper's `M`; setting `δ ≥ M` yields
    /// pure local-SGD training).
    pub fn max_delta(&self) -> f32 {
        self.max_delta
    }

    /// Number of iterations ingested.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The statistic being tracked.
    pub fn statistic(&self) -> GradStatistic {
        self.statistic
    }

    /// Reset all state (used when a model is re-initialised).
    pub fn reset(&mut self) {
        self.ewma.reset();
        self.previous_smoothed = None;
        self.last_delta = 0.0;
        self.max_delta = 0.0;
        self.steps = 0;
    }

    /// Capture the mutable state for a checkpoint. The statistic kind and EWMA
    /// configuration are rebuilt from `TrainConfig` on restore.
    pub fn export_state(&self) -> TrackerState {
        let (ewma_history, ewma_smoothed) = self.ewma.state();
        TrackerState {
            ewma_history,
            ewma_smoothed,
            previous_smoothed: self.previous_smoothed,
            last_delta: self.last_delta,
            max_delta: self.max_delta,
            steps: self.steps,
        }
    }

    /// Restore state captured by [`Self::export_state`] onto a same-configured tracker.
    pub fn restore_state(&mut self, state: &TrackerState) {
        self.ewma.restore(&state.ewma_history, state.ewma_smoothed);
        self.previous_smoothed = state.previous_smoothed;
        self.last_delta = state.last_delta;
        self.max_delta = state.max_delta;
        self.steps = state.steps;
    }
}

/// The checkpointable portion of a [`GradientTracker`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackerState {
    /// Retained EWMA window, oldest first.
    pub ewma_history: Vec<f32>,
    /// Current EWMA smoothed value.
    pub ewma_smoothed: Option<f32>,
    /// Smoothed value at the previous step (denominator of Eqn. 2).
    pub previous_smoothed: Option<f32>,
    /// Most recent `Δ(g_i)`.
    pub last_delta: f32,
    /// Largest `Δ(g_i)` observed so far.
    pub max_delta: f32,
    /// Iterations ingested.
    pub steps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_update_reports_zero_delta() {
        let mut t = GradientTracker::new(GradStatistic::SqNorm, 0.16, 25);
        assert_eq!(t.update(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(t.steps(), 1);
    }

    #[test]
    fn constant_gradients_give_zero_delta() {
        let mut t = GradientTracker::new(GradStatistic::SqNorm, 0.16, 25);
        for _ in 0..50 {
            t.update(&[0.5, -0.5, 1.0]);
        }
        assert!(t.last_delta() < 1e-6);
    }

    #[test]
    fn a_jump_in_gradient_norm_produces_a_large_delta() {
        let mut t = GradientTracker::new(GradStatistic::SqNorm, 0.5, 25);
        for _ in 0..20 {
            t.update(&[0.1; 10]);
        }
        let quiet = t.last_delta();
        let spike = t.update(&[10.0; 10]);
        assert!(
            spike > 10.0 * quiet.max(1e-6),
            "spike {spike} vs quiet {quiet}"
        );
        assert!(t.max_delta() >= spike);
    }

    #[test]
    fn smoothing_reduces_sensitivity_to_single_step_noise() {
        // With a small factor, a one-step blip is damped relative to an unsmoothed tracker.
        let mut damped = GradientTracker::new(GradStatistic::SqNorm, 0.05, 25);
        let mut sharp = GradientTracker::new(GradStatistic::SqNorm, 1.0, 25);
        for _ in 0..30 {
            damped.update(&[1.0; 4]);
            sharp.update(&[1.0; 4]);
        }
        let d = damped.update(&[2.0; 4]);
        let s = sharp.update(&[2.0; 4]);
        assert!(d < s, "damped {d} vs sharp {s}");
    }

    #[test]
    fn decaying_gradients_produce_decaying_deltas() {
        let mut t = GradientTracker::new(GradStatistic::SqNorm, 0.3, 25);
        let mut deltas = Vec::new();
        for i in 0..100 {
            let scale = 1.0 / (1.0 + i as f32 * 0.1);
            deltas.push(t.update(&[scale; 8]));
        }
        // Later deltas must be smaller than the early ones (gradients saturate, §II-E).
        let early: f32 = deltas[2..10].iter().sum();
        let late: f32 = deltas[90..98].iter().sum();
        assert!(late < early, "late {late} vs early {early}");
    }

    #[test]
    fn statistics_evaluate_correctly() {
        assert_eq!(GradStatistic::SqNorm.evaluate(&[3.0, 4.0]), 25.0);
        assert_eq!(GradStatistic::Norm.evaluate(&[3.0, 4.0]), 5.0);
        assert!((GradStatistic::Variance.evaluate(&[1.0, 3.0]) - 1.0).abs() < 1e-6);
        assert_eq!(GradStatistic::Variance.evaluate(&[]), 0.0);
    }

    #[test]
    fn zero_previous_statistic_is_not_a_division_by_zero() {
        let mut t = GradientTracker::new(GradStatistic::SqNorm, 1.0, 5);
        t.update(&[0.0; 4]);
        let d = t.update(&[1.0; 4]);
        assert_eq!(d, 0.0); // previous smoothed value was exactly zero
    }

    #[test]
    fn export_restore_round_trips_and_continues_bit_identically() {
        let mut a = GradientTracker::new(GradStatistic::SqNorm, 0.3, 4);
        for i in 0..9 {
            a.update(&[0.5 + i as f32 * 0.25; 6]);
        }
        let state = a.export_state();
        let mut b = GradientTracker::new(GradStatistic::SqNorm, 0.3, 4);
        b.restore_state(&state);
        assert_eq!(b.export_state(), state);
        assert_eq!(b.steps(), a.steps());
        for x in [0.7f32, 4.0, 0.1] {
            let da = a.update(&[x; 6]);
            let db = b.update(&[x; 6]);
            assert_eq!(da.to_bits(), db.to_bits());
        }
        assert_eq!(a.max_delta().to_bits(), b.max_delta().to_bits());
    }

    #[test]
    fn reset_clears_history() {
        let mut t = GradientTracker::new(GradStatistic::SqNorm, 0.04, 25);
        t.update(&[1.0]);
        t.update(&[5.0]);
        t.reset();
        assert_eq!(t.steps(), 0);
        assert_eq!(t.max_delta(), 0.0);
        assert_eq!(t.update(&[2.0]), 0.0);
    }
}
