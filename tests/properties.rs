//! Property-based tests (proptest) over the core data structures and invariants that the
//! paper's mechanism depends on: partitioning, the δ policy, aggregation, EWMA
//! smoothing, the LSSR counter and the flat parameter round-trip.

use proptest::prelude::*;
use selsync_repro::core::aggregation::{average, average_present, replica_divergence};
use selsync_repro::core::policy::{SyncDecision, SyncPolicy};
use selsync_repro::core::tracker::{GradStatistic, GradientTracker};
use selsync_repro::data::injection::DataInjection;
use selsync_repro::data::partition::{build_all, chunk_boundaries, PartitionScheme};
use selsync_repro::metrics::{Ewma, LssrCounter};
use selsync_repro::nn::layer::Linear;
use selsync_repro::nn::model::Sequential;
use selsync_repro::tensor::rng::seeded;
use selsync_repro::tensor::{ops, par, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ----- partitioning -----------------------------------------------------------

    #[test]
    fn defdp_is_a_partition_of_all_samples(samples in 1usize..2000, workers in 1usize..20) {
        let parts = build_all(PartitionScheme::DefDp, samples, workers);
        let mut all: Vec<usize> = parts.iter().flat_map(|p| p.order().to_vec()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..samples).collect::<Vec<_>>());
    }

    #[test]
    fn seldp_gives_every_worker_a_permutation(samples in 1usize..2000, workers in 1usize..20) {
        let parts = build_all(PartitionScheme::SelDp, samples, workers);
        for p in &parts {
            let mut sorted = p.order().to_vec();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..samples).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_boundaries_are_contiguous_and_cover(samples in 0usize..5000, workers in 1usize..32) {
        let b = chunk_boundaries(samples, workers);
        prop_assert_eq!(b.len(), workers);
        prop_assert_eq!(b[0].0, 0);
        prop_assert_eq!(b[workers - 1].1, samples);
        for w in 1..workers {
            prop_assert_eq!(b[w].0, b[w - 1].1);
        }
        // Chunk sizes differ by at most one sample.
        let sizes: Vec<usize> = b.iter().map(|(s, e)| e - s).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    // ----- data-injection (Eqn. 3) ------------------------------------------------

    #[test]
    fn adjusted_batch_is_positive_and_never_larger_than_original(
        batch in 1usize..512,
        workers in 1usize..64,
        alpha in 0.0f32..1.0,
        beta in 0.0f32..1.0,
    ) {
        let inj = DataInjection::new(alpha, beta);
        let b = inj.adjusted_batch_size(batch, workers);
        prop_assert!(b >= 1);
        prop_assert!(b <= batch.max(1));
    }

    // ----- the δ policy -----------------------------------------------------------

    #[test]
    fn policy_is_monotone_in_delta(deltas in proptest::collection::vec(0.0f32..2.0, 1..16)) {
        // If a lower threshold says "Local", any higher threshold must also say "Local".
        let thresholds = [0.0f32, 0.1, 0.25, 0.5, 1.0, 2.5];
        let mut prev_sync = true;
        for &t in &thresholds {
            let sync = SyncPolicy::new(t).decide_from_deltas(&deltas) == SyncDecision::Synchronize;
            prop_assert!(!sync || prev_sync, "decision must be monotone in delta");
            prev_sync = sync;
        }
        // δ=0 always synchronizes (Δ(g_i) ≥ 0 by construction).
        prop_assert_eq!(SyncPolicy::new(0.0).decide_from_deltas(&deltas), SyncDecision::Synchronize);
    }

    #[test]
    fn tracker_deltas_are_finite_and_nonnegative(
        stats in proptest::collection::vec(0.0f32..1000.0, 2..200),
    ) {
        let mut tracker = GradientTracker::new(GradStatistic::SqNorm, 0.2, 25);
        for &s in &stats {
            let d = tracker.update_with_statistic(s);
            prop_assert!(d.is_finite());
            prop_assert!(d >= 0.0);
        }
        prop_assert!(tracker.max_delta() >= tracker.last_delta() || tracker.last_delta() == tracker.max_delta());
    }

    // ----- aggregation ------------------------------------------------------------

    #[test]
    fn average_is_permutation_invariant_and_bounded(
        vecs in proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 8), 1..8),
    ) {
        let avg = average(&vecs);
        let mut reversed = vecs.clone();
        reversed.reverse();
        let avg_rev = average(&reversed);
        for (a, b) in avg.iter().zip(avg_rev.iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        // Each coordinate of the mean lies within the coordinate-wise min/max.
        for i in 0..8 {
            let lo = vecs.iter().map(|v| v[i]).fold(f32::INFINITY, f32::min);
            let hi = vecs.iter().map(|v| v[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[i] >= lo - 1e-4 && avg[i] <= hi + 1e-4);
        }
    }

    #[test]
    fn parameter_aggregation_never_increases_divergence(
        vecs in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 6), 2..6),
    ) {
        let before = replica_divergence(&vecs);
        let avg = average(&vecs);
        let after: Vec<Vec<f32>> = vecs.iter().map(|_| avg.clone()).collect();
        prop_assert!(replica_divergence(&after) <= before + 1e-6);
    }

    #[test]
    fn average_present_is_the_average_of_the_present_replicas(
        vecs in proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 8), 1..8),
        alive in proptest::collection::vec(0u8..2, 8),
    ) {
        // Elastic membership: the reduce over the workers alive at a sync step equals a
        // plain average of exactly those replicas, bit for bit (same summation order).
        let mut present: Vec<usize> = (0..vecs.len()).filter(|&i| alive[i] == 1).collect();
        if present.is_empty() {
            present.push(vecs.len() - 1);
        }
        let subset: Vec<&[f32]> = present.iter().map(|&i| vecs[i].as_slice()).collect();
        prop_assert_eq!(average_present(&vecs, &present), average(&subset));
    }

    // ----- thread-count determinism of the compute backend --------------------------

    #[test]
    fn matmul_kernels_are_bit_identical_for_1_vs_4_threads(
        m in 32usize..96,
        k in 32usize..96,
        n in 32usize..96,
        seed in 0u64..10_000,
    ) {
        // m·k·n spans 32 768 to 857 375 multiply-adds around the dispatch gate
        // (`par::GRAIN` = 2¹⁸, crossed at 64³): about half of the cases run inline on
        // the caller, the other half on the pool.
        prop_assert_eq!(64 * 64 * 64, par::GRAIN, "the ranges no longer straddle the grain");
        let mut r = seeded(seed);
        let mut a = Tensor::zeros(m, k);
        let mut b = Tensor::zeros(k, n);
        selsync_repro::tensor::rng::fill_uniform(&mut r, a.data_mut(), -2.0, 2.0);
        selsync_repro::tensor::rng::fill_uniform(&mut r, b.data_mut(), -2.0, 2.0);
        let one = par::with_threads(1, || ops::matmul(&a, &b).unwrap());
        let four = par::with_threads(4, || ops::matmul(&a, &b).unwrap());
        prop_assert_eq!(one.data(), four.data());

        let mut bt = Tensor::zeros(n, k);
        selsync_repro::tensor::rng::fill_uniform(&mut r, bt.data_mut(), -2.0, 2.0);
        let one_bt = par::with_threads(1, || ops::matmul_bt(&a, &bt).unwrap());
        let four_bt = par::with_threads(4, || ops::matmul_bt(&a, &bt).unwrap());
        prop_assert_eq!(one_bt.data(), four_bt.data());

        let mut at = Tensor::zeros(m, n);
        selsync_repro::tensor::rng::fill_uniform(&mut r, at.data_mut(), -2.0, 2.0);
        let one_at = par::with_threads(1, || ops::matmul_at(&a, &at).unwrap());
        let four_at = par::with_threads(4, || ops::matmul_at(&a, &at).unwrap());
        prop_assert_eq!(one_at.data(), four_at.data());
    }

    #[test]
    fn aggregation_is_bit_identical_for_1_vs_4_threads(
        replicas in 2usize..6,
        dim in 1usize..3 * par::GRAIN,
        seed in 0u64..10_000,
    ) {
        // `dim` crosses the dispatch gate (`par::GRAIN` elements: inline on
        // the caller up to it, pooled in ELEM_CHUNK chunks above it), so about a third
        // of the cases are single-thread either way and two thirds really compare a
        // 1-thread with a 4-thread schedule.
        let mut r = seeded(seed ^ 0xA66);
        let vecs: Vec<Vec<f32>> = (0..replicas)
            .map(|_| {
                let mut v = vec![0.0f32; dim];
                selsync_repro::tensor::rng::fill_uniform(&mut r, &mut v, -5.0, 5.0);
                v
            })
            .collect();
        let one = par::with_threads(1, || average(&vecs));
        let four = par::with_threads(4, || average(&vecs));
        prop_assert_eq!(one, four);
    }

    // ----- EWMA ---------------------------------------------------------------------

    #[test]
    fn ewma_stays_within_observed_range(
        xs in proptest::collection::vec(0.0f32..100.0, 1..100),
        factor in 0.01f32..1.0,
    ) {
        let mut e = Ewma::new(factor, 25);
        let lo = xs.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for &x in &xs {
            let s = e.update(x);
            prop_assert!(s >= lo - 1e-4 && s <= hi + 1e-4);
        }
    }

    #[test]
    fn ewma_restored_from_its_state_continues_identically(
        xs in proptest::collection::vec(0.0f32..100.0, 2..100),
        split in 0usize..100,
        factor in 0.01f32..1.0,
        window in 1usize..40,
    ) {
        // A checkpoint keeps `state()`; the resumed run rebuilds the smoother from its
        // configuration, restores that state and must then smooth bit-identically.
        let split = split % xs.len();
        let mut whole = Ewma::new(factor, window);
        for &x in &xs[..split] {
            whole.update(x);
        }
        let (history, smoothed) = whole.state();
        let mut resumed = Ewma::new(factor, window);
        resumed.restore(&history, smoothed);
        for &x in &xs[split..] {
            prop_assert_eq!(resumed.update(x).to_bits(), whole.update(x).to_bits());
        }
        prop_assert_eq!(resumed.state(), whole.state());
    }

    // ----- LSSR (Eqn. 4) ------------------------------------------------------------

    #[test]
    fn lssr_is_the_local_share_and_fixes_the_communication_reduction(
        steps in proptest::collection::vec(0u8..2, 0..200),
    ) {
        // LSSR = local / (local + sync); over the same steps BSP synchronizes on all of
        // them and SelSync on `sync`, a reduction of total / sync = 1 / (1 - LSSR).
        let mut c = LssrCounter::new();
        for &s in &steps {
            if s == 1 {
                c.record_sync();
            } else {
                c.record_local();
            }
        }
        let total = steps.len() as u64;
        let sync = steps.iter().filter(|&&s| s == 1).count() as u64;
        prop_assert_eq!(c.total(), total);
        prop_assert_eq!(c.sync_steps, sync);
        let l = c.lssr();
        prop_assert!((0.0..=1.0).contains(&l));
        let reduction = c.communication_reduction();
        if total == 0 {
            prop_assert_eq!(l, 0.0);
            prop_assert_eq!(reduction, 1.0);
        } else if sync == 0 {
            prop_assert_eq!(l, 1.0);
            prop_assert!(reduction.is_infinite());
        } else {
            prop_assert!((l - (total - sync) as f64 / total as f64).abs() < 1e-12);
            let expected = total as f64 / sync as f64;
            prop_assert!((reduction - expected).abs() <= 1e-9 * expected, "{reduction} vs {expected}");
        }
    }

    // ----- flat parameter round-trip -------------------------------------------------

    #[test]
    fn params_flat_roundtrip_is_identity(seed in 0u64..1000, scale in 0.1f32..3.0) {
        let mut r = seeded(seed);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(&mut r, 6, 9)));
        net.push(Box::new(Linear::new(&mut r, 9, 4)));
        let original = net.params_flat();
        let scaled: Vec<f32> = original.iter().map(|x| x * scale).collect();
        net.set_params_flat(&scaled);
        prop_assert_eq!(net.params_flat(), scaled);
        net.set_params_flat(&original);
        prop_assert_eq!(net.params_flat(), original);
    }
}
