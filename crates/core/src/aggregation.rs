//! Parameter vs gradient aggregation (§III-C of the paper).
//!
//! In BSP the two are equivalent (identical initial parameters + identical averaged
//! updates keep every replica in lockstep), but under *semi-synchronous* training they
//! are not:
//!
//! * **Gradient aggregation (GA)** averages the workers' current gradients and lets each
//!   worker apply the averaged gradient to its *own* (possibly diverged) parameters, so
//!   replicas can keep drifting apart between synchronizations.
//! * **Parameter aggregation (PA)** averages the workers' parameters themselves, which
//!   collapses the replicas back onto a single consistent global state and bounds the
//!   divergence — the paper shows PA matches or beats GA (Fig. 10, 11).

use selsync_tensor::par;
use serde::{Deserialize, Serialize};

/// What gets averaged during a synchronization step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Average model parameters (the SelSync default).
    #[default]
    Parameter,
    /// Average gradients and apply the averaged gradient locally.
    Gradient,
}

impl AggregationMode {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationMode::Parameter => "parameter_aggregation",
            AggregationMode::Gradient => "gradient_aggregation",
        }
    }

    /// The short form run labels carry (`SelSync(…,PA)`).
    pub(crate) fn short_name(&self) -> &'static str {
        match self {
            AggregationMode::Parameter => "PA",
            AggregationMode::Gradient => "GA",
        }
    }
}

/// Element-wise mean of several equal-length vectors (the PS-side reduce).
///
/// Accepts anything slice-like (`Vec<f32>`, `&[f32]`), so callers can average borrowed
/// replica views without cloning each one first.
pub fn average<V: AsRef<[f32]> + Sync>(vectors: &[V]) -> Vec<f32> {
    let mut out = Vec::new();
    average_into(vectors, &mut out);
    out
}

/// Element-wise mean into a caller-owned buffer (resized as needed), a gated sweep over
/// fixed element chunks ([`par::for_each_chunk_mut`], work = output elements). Per
/// element the sum runs over vectors in order, exactly like the serial loop, so the
/// result is bit-identical for every thread count.
pub fn average_into<V: AsRef<[f32]> + Sync>(vectors: &[V], out: &mut Vec<f32>) {
    assert!(!vectors.is_empty(), "cannot average zero vectors");
    let dim = vectors[0].as_ref().len();
    for v in vectors {
        assert_eq!(
            v.as_ref().len(),
            dim,
            "all vectors must have the same length"
        );
    }
    out.clear();
    out.resize(dim, 0.0);
    let n = vectors.len() as f32;
    par::for_each_chunk_mut(dim, out, par::ELEM_CHUNK, |start, chunk| {
        for v in vectors {
            let src = &v.as_ref()[start..start + chunk.len()];
            for (o, &x) in chunk.iter_mut().zip(src.iter()) {
                *o += x;
            }
        }
        for o in chunk.iter_mut() {
            *o /= n;
        }
    });
}

/// Element-wise mean over the `present` subset of `vectors` (elastic membership: only
/// the workers alive at a synchronization step contribute to the PS-side reduce).
pub fn average_present<V: AsRef<[f32]> + Sync>(vectors: &[V], present: &[usize]) -> Vec<f32> {
    let mut out = Vec::new();
    average_present_into(vectors, present, &mut out);
    out
}

/// [`average_present`] into a caller-owned buffer — the zero-alloc broadcast path: the
/// averaged vector is written once and copied into reused per-replica buffers.
pub fn average_present_into<V: AsRef<[f32]> + Sync>(
    vectors: &[V],
    present: &[usize],
    out: &mut Vec<f32>,
) {
    assert!(!present.is_empty(), "cannot average zero present workers");
    let dim = vectors[present[0]].as_ref().len();
    for &m in present {
        assert_eq!(
            vectors[m].as_ref().len(),
            dim,
            "all vectors must have the same length"
        );
    }
    out.clear();
    out.resize(dim, 0.0);
    let n = present.len() as f32;
    par::for_each_chunk_mut(dim, out, par::ELEM_CHUNK, |start, chunk| {
        for &m in present {
            let src = &vectors[m].as_ref()[start..start + chunk.len()];
            for (o, &x) in chunk.iter_mut().zip(src.iter()) {
                *o += x;
            }
        }
        for o in chunk.iter_mut() {
            *o /= n;
        }
    });
}

/// Mean pairwise divergence (RMS distance) between worker replicas — the quantity PA
/// bounds and GA lets grow (used by tests and the Fig. 11 analysis).
pub fn replica_divergence<V: AsRef<[f32]> + Sync>(replicas: &[V]) -> f32 {
    if replicas.len() < 2 {
        return 0.0;
    }
    let mean = average(replicas);
    let dim = mean.len() as f32;
    let mut total = 0.0f32;
    for r in replicas {
        let sq: f32 = r
            .as_ref()
            .iter()
            .zip(mean.iter())
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        total += sq / dim;
    }
    (total / replicas.len() as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_identical_vectors_is_identity() {
        let v = vec![vec![1.0, 2.0, 3.0]; 4];
        assert_eq!(average(&v), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn average_is_elementwise_mean() {
        let v = vec![vec![0.0, 2.0], vec![4.0, 6.0]];
        assert_eq!(average(&v), vec![2.0, 4.0]);
    }

    #[test]
    fn divergence_of_identical_replicas_is_zero() {
        let v = vec![vec![0.5; 10]; 8];
        assert_eq!(replica_divergence(&v), 0.0);
        assert_eq!(replica_divergence(&v[..1]), 0.0);
    }

    #[test]
    fn divergence_grows_with_spread() {
        let tight = vec![vec![1.0, 1.0], vec![1.1, 0.9]];
        let loose = vec![vec![1.0, 1.0], vec![3.0, -1.0]];
        assert!(replica_divergence(&loose) > replica_divergence(&tight));
    }

    #[test]
    fn parameter_aggregation_collapses_divergence() {
        // After PA every replica equals the average, so divergence drops to zero.
        let replicas = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 0.0]];
        let avg = average(&replicas);
        let post: Vec<Vec<f32>> = replicas.iter().map(|_| avg.clone()).collect();
        assert!(replica_divergence(&replicas) > 0.0);
        assert_eq!(replica_divergence(&post), 0.0);
    }

    #[test]
    fn gradient_aggregation_preserves_existing_divergence() {
        // Applying the same averaged gradient to diverged replicas leaves their pairwise
        // distances unchanged — this is exactly why GA underperforms PA in the paper.
        let replicas = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let avg_grad = [0.5, -0.5];
        let post: Vec<Vec<f32>> = replicas
            .iter()
            .map(|r| {
                r.iter()
                    .zip(avg_grad.iter())
                    .map(|(p, g)| p - 0.1 * g)
                    .collect()
            })
            .collect();
        let before = replica_divergence(&replicas);
        let after = replica_divergence(&post);
        assert!((before - after).abs() < 1e-6);
    }

    #[test]
    fn average_present_ignores_crashed_workers() {
        let replicas = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![100.0, 100.0]];
        assert_eq!(average_present(&replicas, &[0, 1]), vec![2.0, 3.0]);
        assert_eq!(average_present(&replicas, &[2]), vec![100.0, 100.0]);
        // Full membership matches the plain average.
        assert_eq!(average_present(&replicas, &[0, 1, 2]), average(&replicas));
    }

    #[test]
    #[should_panic]
    fn average_present_of_nobody_panics() {
        let _ = average_present(&[vec![1.0]], &[]);
    }

    #[test]
    fn mode_names() {
        assert_eq!(AggregationMode::Parameter.name(), "parameter_aggregation");
        assert_eq!(AggregationMode::Gradient.name(), "gradient_aggregation");
    }

    #[test]
    #[should_panic]
    fn averaging_nothing_panics() {
        let _ = average::<Vec<f32>>(&[]);
    }
}
