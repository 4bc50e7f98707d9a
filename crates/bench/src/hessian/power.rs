//! Power iteration for the largest Hessian eigenvalue.

use super::hvp::{hessian_vector_product, GradientOracle};
use rand::Rng;
use selsync_tensor::rng;

/// Result of a power-iteration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenEstimate {
    /// Estimated top eigenvalue (Rayleigh quotient at the final iterate).
    pub eigenvalue: f32,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Relative change of the estimate over the last iteration.
    pub final_delta: f32,
}

/// Estimate the largest-magnitude eigenvalue of the Hessian at `params` with power
/// iteration on finite-difference Hessian-vector products.
pub fn top_eigenvalue(
    oracle: &mut dyn GradientOracle,
    params: &[f32],
    max_iters: usize,
    tol: f32,
    seed: u64,
) -> EigenEstimate {
    let dim = params.len();
    let mut r = rng::seeded(seed);
    let mut v: Vec<f32> = (0..dim).map(|_| r.gen_range(-1.0f32..1.0)).collect();
    normalize(&mut v);

    let mut eigen = 0.0f32;
    let mut delta = f32::INFINITY;
    let mut iters = 0;
    for i in 0..max_iters {
        iters = i + 1;
        let hv = hessian_vector_product(oracle, params, &v, 1e-2);
        // Rayleigh quotient with the current unit vector.
        let new_eigen: f32 = v.iter().zip(hv.iter()).map(|(a, b)| a * b).sum();
        delta = if eigen.abs() > 1e-12 {
            ((new_eigen - eigen) / eigen).abs()
        } else {
            f32::INFINITY
        };
        eigen = new_eigen;
        let norm: f32 = hv.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm < 1e-12 {
            // Hessian is (numerically) zero along every probed direction.
            eigen = 0.0;
            delta = 0.0;
            break;
        }
        v = hv;
        normalize(&mut v);
        if delta < tol && i > 0 {
            break;
        }
    }
    EigenEstimate {
        eigenvalue: eigen,
        iterations: iters,
        final_delta: delta,
    }
}

fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct QuadraticOracle {
        diag: Vec<f32>,
    }

    impl GradientOracle for QuadraticOracle {
        fn gradient_at(&mut self, params: &[f32]) -> Vec<f32> {
            self.diag
                .iter()
                .zip(params.iter())
                .map(|(d, p)| d * p)
                .collect()
        }
        fn dim(&self) -> usize {
            self.diag.len()
        }
    }

    #[test]
    fn recovers_dominant_diagonal_entry() {
        let mut oracle = QuadraticOracle {
            diag: vec![1.0, 5.0, 2.0, 0.5],
        };
        let params = vec![0.0; 4];
        let est = top_eigenvalue(&mut oracle, &params, 100, 1e-4, 7);
        assert!((est.eigenvalue - 5.0).abs() < 0.1, "{est:?}");
        assert!(est.iterations <= 100);
    }

    #[test]
    fn zero_hessian_reports_zero() {
        let mut oracle = QuadraticOracle { diag: vec![0.0; 3] };
        let est = top_eigenvalue(&mut oracle, &[1.0, 2.0, 3.0], 20, 1e-4, 1);
        assert_eq!(est.eigenvalue, 0.0);
    }

    #[test]
    fn works_on_a_real_model() {
        use crate::hessian::hvp::ModelBatchOracle;
        use selsync_nn::model::{ModelKind, PaperModel};
        use selsync_tensor::Tensor;
        let mut model = PaperModel::build(ModelKind::ResNetLike, 5);
        let x = Tensor::from_fn(8, model.input_dim(), |r, c| {
            (((r * 5 + c) % 7) as f32 - 3.0) * 0.3
        });
        let y: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let params = model.params_flat();
        let mut oracle = ModelBatchOracle::new(&mut model, &x, &y);
        let est = top_eigenvalue(&mut oracle, &params, 8, 1e-2, 3);
        assert!(est.eigenvalue.is_finite());
        assert!(
            est.eigenvalue > 0.0,
            "cross-entropy Hessian should have a positive top eigenvalue"
        );
    }
}
