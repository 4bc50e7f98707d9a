//! Deterministic synthetic dataset generators.
//!
//! These stand in for the paper's datasets (each spec's constructor names the dataset
//! it replaces, e.g. [`MixtureSpec::cifar10_like`]):
//!
//! * [`gaussian_mixture`] — a learnable classification task: each class has a random
//!   centroid on a hypersphere and samples are the centroid plus isotropic noise. Used
//!   as the CIFAR10 / CIFAR100 / ImageNet-1K analogue.
//! * [`markov_tokens`] — a next-token prediction task generated by a sparse Markov
//!   chain, so a language model can reduce perplexity well below the uniform baseline.
//!   Used as the WikiText-103 analogue.

use crate::dataset::Dataset;
use rand::Rng;
use selsync_tensor::{rng, Tensor};

/// Configuration for [`gaussian_mixture`].
#[derive(Debug, Clone, Copy)]
pub struct MixtureSpec {
    /// Number of samples to generate.
    pub samples: usize,
    /// Feature dimensionality.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Distance of class centroids from the origin (larger = easier task).
    pub class_separation: f32,
    /// Standard deviation of the within-class noise.
    pub noise: f32,
    /// Nominal serialized bytes per sample (for data-injection costing).
    pub sample_bytes: usize,
}

impl MixtureSpec {
    /// CIFAR10-like: 10 classes, 32 features, ~3 KB/sample.
    pub fn cifar10_like(samples: usize) -> Self {
        MixtureSpec {
            samples,
            features: 32,
            classes: 10,
            class_separation: 3.0,
            noise: 1.0,
            sample_bytes: 3 * 1024,
        }
    }

    /// CIFAR100-like: 100 classes, 32 features, ~3 KB/sample.
    pub fn cifar100_like(samples: usize) -> Self {
        MixtureSpec {
            samples,
            features: 32,
            classes: 100,
            class_separation: 3.5,
            noise: 1.0,
            sample_bytes: 3 * 1024,
        }
    }

    /// ImageNet-1K-like (scaled to 200 classes): 64 features, ~40 KB/sample.
    pub fn imagenet_like(samples: usize) -> Self {
        MixtureSpec {
            samples,
            features: 64,
            classes: 200,
            class_separation: 4.0,
            noise: 1.0,
            sample_bytes: 40 * 1024,
        }
    }
}

/// Generate a Gaussian-mixture classification dataset.
///
/// Labels are assigned round-robin so every class has (nearly) the same cardinality,
/// which keeps IID partitions balanced — the non-IID splits are produced separately by
/// [`crate::noniid`].
pub fn gaussian_mixture(spec: &MixtureSpec, seed: u64) -> Dataset {
    let mut r = rng::seeded(seed);
    // Random unit-ish centroid per class, scaled by the separation.
    let mut centroids = Tensor::zeros(spec.classes, spec.features);
    for c in 0..spec.classes {
        let row = centroids.row_mut(c);
        rng::fill_normal(&mut r, row, 0.0, 1.0);
        let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        for x in row.iter_mut() {
            *x = *x / norm * spec.class_separation;
        }
    }
    let mut inputs = Tensor::zeros(spec.samples, spec.features);
    let mut targets = Vec::with_capacity(spec.samples);
    for i in 0..spec.samples {
        let class = i % spec.classes;
        targets.push(class);
        let row = inputs.row_mut(i);
        rng::fill_normal(&mut r, row, 0.0, spec.noise);
        for (x, &c) in row.iter_mut().zip(centroids.row(class).iter()) {
            *x += c;
        }
    }
    Dataset::new(inputs, targets, spec.classes, spec.sample_bytes)
}

/// Configuration for [`markov_tokens`].
#[derive(Debug, Clone, Copy)]
pub struct TokenSpec {
    /// Number of (context, next-token) samples.
    pub samples: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Context length in tokens.
    pub context: usize,
    /// Branching factor of the Markov chain (successors per token). Smaller = more
    /// predictable = lower achievable perplexity.
    pub branching: usize,
}

impl TokenSpec {
    /// WikiText-103-like defaults matching the `TransformerLike` model (vocab 1000,
    /// context 16).
    pub fn wikitext_like(samples: usize) -> Self {
        TokenSpec {
            samples,
            vocab: 1000,
            context: 16,
            branching: 4,
        }
    }
}

/// Generate a next-token prediction dataset from a sparse random Markov chain.
pub fn markov_tokens(spec: &TokenSpec, seed: u64) -> Dataset {
    let mut r = rng::seeded(seed);
    // successors[t] = the `branching` tokens that may follow token t.
    let successors: Vec<Vec<usize>> = (0..spec.vocab)
        .map(|_| {
            (0..spec.branching)
                .map(|_| r.gen_range(0..spec.vocab))
                .collect()
        })
        .collect();

    let mut inputs = Tensor::zeros(spec.samples, spec.context);
    let mut targets = Vec::with_capacity(spec.samples);
    let mut current = r.gen_range(0..spec.vocab);
    for i in 0..spec.samples {
        for t in 0..spec.context {
            inputs.set(i, t, current as f32);
            let succ = &successors[current];
            current = succ[r.gen_range(0..succ.len())];
        }
        targets.push(current);
    }
    // One token is ~4 bytes on the wire; a sample is its context.
    Dataset::new(inputs, targets, spec.vocab, spec.context * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixture_has_balanced_labels_and_right_shape() {
        let d = gaussian_mixture(&MixtureSpec::cifar10_like(1000), 42);
        assert_eq!(d.len(), 1000);
        assert_eq!(d.input_dim(), 32);
        let hist = d.label_histogram();
        assert_eq!(hist.len(), 10);
        assert!(hist.iter().all(|&c| c == 100));
    }

    #[test]
    fn mixture_is_deterministic_per_seed() {
        let a = gaussian_mixture(&MixtureSpec::cifar10_like(100), 7);
        let b = gaussian_mixture(&MixtureSpec::cifar10_like(100), 7);
        assert_eq!(a.inputs(), b.inputs());
        let c = gaussian_mixture(&MixtureSpec::cifar10_like(100), 8);
        assert_ne!(a.inputs(), c.inputs());
    }

    #[test]
    fn mixture_classes_are_separable() {
        // Same-class samples should be closer to their own centroid than to others on
        // average: check that a nearest-centroid classifier beats chance comfortably.
        let spec = MixtureSpec {
            samples: 500,
            features: 16,
            classes: 5,
            class_separation: 4.0,
            noise: 1.0,
            sample_bytes: 10,
        };
        let d = gaussian_mixture(&spec, 3);
        // Estimate centroids from the data itself.
        let mut centroids = vec![vec![0.0f32; 16]; 5];
        let hist = d.label_histogram();
        for i in 0..d.len() {
            let t = d.targets()[i];
            for (c, &x) in centroids[t].iter_mut().zip(d.inputs().row(i)) {
                *c += x;
            }
        }
        for (c, &n) in centroids.iter_mut().zip(hist.iter()) {
            for x in c.iter_mut() {
                *x /= n as f32;
            }
        }
        let mut correct = 0;
        for i in 0..d.len() {
            let row = d.inputs().row(i);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, c) in centroids.iter().enumerate() {
                let dist: f32 = row.iter().zip(c.iter()).map(|(a, b)| (a - b).powi(2)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = k;
                }
            }
            if best == d.targets()[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / d.len() as f32;
        assert!(acc > 0.8, "nearest-centroid accuracy {acc}");
    }

    #[test]
    fn markov_tokens_shape_and_range() {
        let d = markov_tokens(
            &TokenSpec {
                samples: 200,
                vocab: 50,
                context: 8,
                branching: 3,
            },
            11,
        );
        assert_eq!(d.len(), 200);
        assert_eq!(d.input_dim(), 8);
        assert!(d.targets().iter().all(|&t| t < 50));
        assert!(d.inputs().data().iter().all(|&x| (0.0..50.0).contains(&x)));
    }

    #[test]
    fn markov_tokens_are_predictable() {
        // With branching 2, the conditional entropy of the next token given the last
        // context token is at most log(2), far below log(vocab): verify empirically that
        // each final-context token has few distinct successors.
        let d = markov_tokens(
            &TokenSpec {
                samples: 2000,
                vocab: 100,
                context: 4,
                branching: 2,
            },
            5,
        );
        use std::collections::{HashMap, HashSet};
        let mut succ: HashMap<usize, HashSet<usize>> = HashMap::new();
        for i in 0..d.len() {
            let last = d.inputs().get(i, 3) as usize;
            succ.entry(last).or_default().insert(d.targets()[i]);
        }
        let max_successors = succ.values().map(|s| s.len()).max().unwrap();
        assert!(max_successors <= 2, "max successors {max_successors}");
    }
}
