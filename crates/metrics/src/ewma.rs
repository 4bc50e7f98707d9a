//! Exponentially weighted moving average (EWMA) smoothing.
//!
//! The paper smooths per-iteration gradient statistics with an EWMA over a window of
//! `w` iterations (window 25 by default, smoothing factor `N/100` for an `N`-worker
//! cluster — §III-A). Gradients from a single mini-batch are noisy; the smoothed series
//! is what the relative-gradient-change rule thresholds.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An EWMA smoother with a bounded history window.
///
/// The smoothed value is the classic recursive EWMA
/// `s_i = factor * x_i + (1 - factor) * s_{i-1}`, and the window bounds how much history
/// is retained for [`Ewma::window_mean`] / overhead accounting (larger windows cost more
/// to maintain, which is what Fig. 8a of the paper measures).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ewma {
    /// Smoothing factor in `(0, 1]`.
    pub factor: f32,
    /// Maximum number of raw observations retained.
    pub window: usize,
    history: VecDeque<f32>,
    smoothed: Option<f32>,
}

impl Ewma {
    /// Create an EWMA with the given smoothing `factor` and history `window`.
    pub fn new(factor: f32, window: usize) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "EWMA factor must be in (0, 1]"
        );
        assert!(window > 0, "EWMA window must be positive");
        Ewma {
            factor,
            window,
            history: VecDeque::with_capacity(window),
            smoothed: None,
        }
    }

    /// Add an observation and return the updated smoothed value.
    pub fn update(&mut self, x: f32) -> f32 {
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(x);
        let s = match self.smoothed {
            None => x,
            Some(prev) => self.factor * x + (1.0 - self.factor) * prev,
        };
        self.smoothed = Some(s);
        s
    }

    /// Current smoothed value (None before the first observation).
    pub fn value(&self) -> Option<f32> {
        self.smoothed
    }

    /// Plain mean of the retained window (used for diagnostics).
    pub fn window_mean(&self) -> Option<f32> {
        if self.history.is_empty() {
            None
        } else {
            Some(self.history.iter().sum::<f32>() / self.history.len() as f32)
        }
    }

    /// Number of retained observations.
    pub fn window_len(&self) -> usize {
        self.history.len()
    }

    /// Forget all history.
    pub fn reset(&mut self) {
        self.history.clear();
        self.smoothed = None;
    }

    /// The mutable state (retained history in order, current smoothed value) — what
    /// a checkpoint stores; `factor`/`window` are rebuilt from configuration.
    pub fn state(&self) -> (Vec<f32>, Option<f32>) {
        (self.history.iter().copied().collect(), self.smoothed)
    }

    /// Restore state captured by [`Self::state`] onto a same-configured smoother.
    pub fn restore(&mut self, history: &[f32], smoothed: Option<f32>) {
        assert!(
            history.len() <= self.window,
            "restored EWMA history exceeds the window"
        );
        self.history.clear();
        self.history.extend(history.iter().copied());
        self.smoothed = smoothed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_is_passthrough() {
        let mut e = Ewma::new(0.2, 25);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(5.0), 5.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    fn smoothing_follows_recursive_definition() {
        let mut e = Ewma::new(0.5, 10);
        e.update(0.0);
        assert_eq!(e.update(10.0), 5.0);
        assert_eq!(e.update(10.0), 7.5);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.16, 25);
        for _ in 0..200 {
            e.update(3.0);
        }
        assert!((e.value().unwrap() - 3.0).abs() < 1e-4);
    }

    #[test]
    fn smoothed_value_is_bounded_by_observations() {
        let mut e = Ewma::new(0.3, 25);
        for i in 0..100 {
            let x = if i % 2 == 0 { 1.0 } else { 2.0 };
            let s = e.update(x);
            assert!((1.0..=2.0).contains(&s));
        }
    }

    #[test]
    fn window_is_bounded() {
        let mut e = Ewma::new(0.1, 4);
        for i in 0..10 {
            e.update(i as f32);
        }
        assert_eq!(e.window_len(), 4);
        assert_eq!(e.window_mean(), Some((6.0 + 7.0 + 8.0 + 9.0) / 4.0));
    }

    #[test]
    fn reset_clears_state() {
        let mut e = Ewma::new(0.5, 5);
        e.update(1.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.window_len(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_factor_rejected() {
        let _ = Ewma::new(0.0, 5);
    }

    #[test]
    fn state_restore_round_trips_and_continues_identically() {
        let mut a = Ewma::new(0.3, 4);
        for i in 0..7 {
            a.update(i as f32 * 0.5);
        }
        let (history, smoothed) = a.state();
        let mut b = Ewma::new(0.3, 4);
        b.restore(&history, smoothed);
        assert_eq!(b.state(), a.state());
        for x in [1.25f32, -0.5, 3.0] {
            assert_eq!(a.update(x).to_bits(), b.update(x).to_bits());
        }
        assert_eq!(a.window_mean(), b.window_mean());
    }
}
