//! Gradient-variance tracking — the cheap first-order proxy for Hessian-based
//! critical-period detection (Fig. 4 of the paper).

/// Population variance of the gradient coordinates of a single step.
///
/// This is the quantity the paper's `RelativeGradChange` tracks per iteration (it is
/// computed "for free" from the gradient produced by backpropagation).
pub fn gradient_variance(grad: &[f32]) -> f32 {
    if grad.is_empty() {
        return 0.0;
    }
    let n = grad.len() as f32;
    let mean = grad.iter().sum::<f32>() / n;
    grad.iter().map(|g| (g - mean).powi(2)).sum::<f32>() / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_of_constant_gradient_is_zero() {
        assert_eq!(gradient_variance(&[0.5; 100]), 0.0);
        assert_eq!(gradient_variance(&[]), 0.0);
    }

    #[test]
    fn variance_matches_closed_form() {
        let v = gradient_variance(&[1.0, 2.0, 3.0, 4.0]);
        assert!((v - 1.25).abs() < 1e-6);
    }
}
