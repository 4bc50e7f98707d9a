//! Seedable random-number helpers.
//!
//! Every stochastic component in the reproduction (weight init, mini-batch sampling,
//! data-injection worker selection, synthetic datasets) draws from a
//! [`rand_chacha::ChaCha8Rng`] created through this module, so a fixed seed reproduces a
//! run bit-for-bit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The RNG type used throughout the workspace.
pub type SelRng = ChaCha8Rng;

/// Create a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> SelRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derive an independent child RNG from a base seed and a stream index.
///
/// Workers in the simulated cluster each get `derived(seed, worker_id)` so runs are
/// deterministic regardless of thread interleaving.
pub fn derived(seed: u64, stream: u64) -> SelRng {
    // Mix the stream index into the seed with a splitmix64-style finalizer so nearby
    // streams do not produce correlated ChaCha key schedules.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ChaCha8Rng::seed_from_u64(z)
}

/// Draw one sample from `N(mean, std^2)` using the Box–Muller transform.
pub fn normal(rng: &mut impl Rng, mean: f32, std: f32) -> f32 {
    // Box–Muller: avoid log(0) by clamping away from zero.
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let mag = (-2.0 * u1.ln()).sqrt();
    mean + std * mag * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fill a slice with `N(mean, std^2)` samples.
pub fn fill_normal(rng: &mut impl Rng, out: &mut [f32], mean: f32, std: f32) {
    for x in out.iter_mut() {
        *x = normal(rng, mean, std);
    }
}

/// Fill a slice with `U(lo, hi)` samples.
pub fn fill_uniform(rng: &mut impl Rng, out: &mut [f32], lo: f32, hi: f32) {
    for x in out.iter_mut() {
        *x = rng.gen_range(lo..hi);
    }
}

/// Produce a uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut impl Rng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Sample `k` distinct indices from `0..n` without replacement (partial Fisher–Yates).
///
/// Runs in `O(k)` memory: instead of materialising `0..n`, only the displaced
/// positions are tracked in a map. The RNG draw sequence and the returned sample are
/// identical to the classic array-based partial shuffle.
pub fn sample_without_replacement(rng: &mut impl Rng, n: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    sample_without_replacement_into(rng, n, k, &mut out);
    out
}

/// [`sample_without_replacement`] into a caller-owned buffer (cleared first).
pub fn sample_without_replacement_into(
    rng: &mut impl Rng,
    n: usize,
    k: usize,
    out: &mut Vec<usize>,
) {
    SparseSampler::new().sample_into(rng, n, k, out);
}

/// Reusable sparse Fisher–Yates sampler: `O(k)` memory instead of materialising
/// `0..n`, and the displacement map keeps its capacity across calls — a sampler kept
/// across calls draws without allocating.
#[derive(Debug, Clone, Default)]
pub struct SparseSampler {
    /// `swapped[p]` is the value currently sitting at position `p` (positions not
    /// present still hold their own index).
    swapped: std::collections::HashMap<usize, usize>,
}

impl SparseSampler {
    /// Create an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample `k` distinct indices from `0..n` into `out` (cleared first). The RNG
    /// draw sequence and the result are identical to the classic array-based partial
    /// Fisher–Yates shuffle.
    pub fn sample_into(&mut self, rng: &mut impl Rng, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "cannot sample {k} items from a population of {n}");
        out.clear();
        out.reserve(k);
        self.swapped.clear();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            let vj = self.swapped.get(&j).copied().unwrap_or(j);
            let vi = self.swapped.get(&i).copied().unwrap_or(i);
            out.push(vj);
            self.swapped.insert(j, vi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = derived(42, 0);
        let mut b = derived(42, 1);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn normal_has_roughly_correct_moments() {
        let mut rng = seeded(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| normal(&mut rng, 1.0, 2.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = seeded(3);
        let p = permutation(&mut rng, 100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement_is_distinct() {
        let mut rng = seeded(5);
        let s = sample_without_replacement(&mut rng, 50, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(s.iter().all(|&x| x < 50));
    }

    #[test]
    #[should_panic]
    fn sample_more_than_population_panics() {
        let mut rng = seeded(5);
        let _ = sample_without_replacement(&mut rng, 3, 4);
    }
}
