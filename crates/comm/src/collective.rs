//! Thread-rendezvous collectives.
//!
//! SelSync's decision step is an `all-gather` of one synchronization-status bit per
//! worker (Alg. 1, line 12); its aggregation step (and the decentralized variant the
//! paper mentions in §III-E) is an all-reduce. Both are implemented here as
//! generation-counted rendezvous among the worker threads, plus a plain barrier.

use crate::rounds::ElasticRounds;
use parking_lot::{Condvar, Mutex};

/// Reduction applied by [`Collective::allreduce_scalar_among`]. `Sum` and `Mean` fold
/// the contributions in **worker-id order** (one in-order f32 fold, then — for `Mean` —
/// one divide), so the result is bit-identical to the sequential fold the simulator
/// performs over the same per-worker values; `Max` is the plain maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarOp {
    /// Worker-order sum of the contributions.
    Sum,
    /// Worker-order sum divided by the participant count.
    Mean,
    /// Maximum contribution.
    Max,
}

/// A reusable set of collectives for a fixed group of `n` workers.
pub struct Collective {
    n: usize,
    flags: Rendezvous<Vec<bool>>,
    reduce: Rendezvous<Vec<f32>>,
    barrier: Rendezvous<()>,
    /// Round-keyed elastic status all-gather — the shared [`ElasticRounds`] skeleton
    /// with a gather combine (absent workers read as the fill value).
    elastic_flags: ElasticRounds<bool, Vec<bool>>,
    /// Round-keyed elastic scalar all-reduce, one independent rendezvous per
    /// [`ScalarOp`] so a single training round can carry one exchange of each op
    /// (e.g. the loss mean and the `Δ(g)` max) without the round ids colliding.
    elastic_scalars: [ElasticRounds<f32, f32>; 3],
    /// Round-keyed elastic fixed-size vector all-reduce: the per-worker signal feed
    /// (Δ moments for quantile/variance statistics) rides here, one vector exchange
    /// per round.
    elastic_vecs: ElasticRounds<Vec<f32>, Vec<f32>>,
}

/// Internal generation-counted rendezvous: workers deposit a contribution, the last one
/// combines them, and everyone receives the combined result for that generation.
struct Rendezvous<T: Clone> {
    state: Mutex<RendezvousState<T>>,
    cv: Condvar,
}

struct RendezvousState<T: Clone> {
    contributions: Vec<Option<T>>,
    arrived: usize,
    generation: u64,
    result: Option<(u64, T)>,
}

impl<T: Clone> Rendezvous<T> {
    fn new(n: usize) -> Self {
        Rendezvous {
            state: Mutex::new(RendezvousState {
                contributions: (0..n).map(|_| None).collect(),
                arrived: 0,
                generation: 0,
                result: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn run(&self, worker: usize, value: T, combine: impl FnOnce(&[Option<T>]) -> T) -> T {
        let mut s = self.state.lock();
        assert!(worker < s.contributions.len(), "worker id out of range");
        assert!(
            s.contributions[worker].is_none(),
            "worker {worker} contributed twice in one round"
        );
        s.contributions[worker] = Some(value);
        s.arrived += 1;
        let my_gen = s.generation;

        if s.arrived == s.contributions.len() {
            let combined = combine(&s.contributions);
            s.result = Some((my_gen, combined.clone()));
            s.generation += 1;
            s.arrived = 0;
            for c in s.contributions.iter_mut() {
                *c = None;
            }
            self.cv.notify_all();
            return combined;
        }
        loop {
            self.cv.wait(&mut s);
            if let Some((gen, result)) = &s.result {
                if *gen == my_gen {
                    return result.clone();
                }
            }
        }
    }
}

impl Collective {
    /// Create collectives for a group of `n` workers.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "collective group must be non-empty");
        Collective {
            n,
            flags: Rendezvous::new(n),
            reduce: Rendezvous::new(n),
            barrier: Rendezvous::new(n),
            elastic_flags: ElasticRounds::new(),
            elastic_scalars: [
                ElasticRounds::new(),
                ElasticRounds::new(),
                ElasticRounds::new(),
            ],
            elastic_vecs: ElasticRounds::new(),
        }
    }

    /// Group size.
    pub fn world_size(&self) -> usize {
        self.n
    }

    /// All-gather of one boolean per worker: every worker receives the full flags array
    /// indexed by worker id. This is the `allgather_status` of Alg. 1.
    pub fn allgather_flags(&self, worker: usize, flag: bool) -> Vec<bool> {
        self.flags.run(worker, vec![flag], |contrib| {
            contrib
                .iter()
                .map(|c| c.as_ref().map(|v| v[0]).unwrap_or(false))
                .collect()
        })
    }

    /// All-gather of one boolean per worker among an elastic subset of `expected` live
    /// workers at the explicitly identified `round` (fault injection: crashed workers
    /// skip rounds entirely, so rounds must be round-keyed rather than generation
    /// counted). Absent workers' flags read `false`; the returned array is still
    /// indexed by worker id over the full group.
    pub fn allgather_flags_among(
        &self,
        round: u64,
        worker: usize,
        flag: bool,
        expected: usize,
    ) -> Vec<bool> {
        assert!(worker < self.n, "worker id out of range");
        let n = self.n;
        self.elastic_flags
            .run(round, worker, expected, flag, |contribs| {
                let mut out = vec![false; n];
                for &(w, f) in contribs.iter() {
                    out[w] = f;
                }
                out
            })
    }

    /// All-reduce of one scalar per worker among an elastic subset of `expected` live
    /// workers at the explicitly identified `round`: every participant receives the
    /// [`ScalarOp`]-combined value of all contributions. This is the cluster-signal
    /// exchange that accompanies the 1-bit status all-gather — it lets an adaptive δ
    /// policy act on *cluster* aggregates (the round's loss mean, its `Δ(g)` max)
    /// instead of per-worker replicas of the signal.
    ///
    /// `Sum`/`Mean` fold the contributions in worker-id order (never arrival order),
    /// so the result is bit-identical to the simulator's sequential fold over the same
    /// per-worker values regardless of thread scheduling. Each op has its own
    /// round-keyed rendezvous: one round may carry at most one exchange *per op*, and
    /// all participants of one `(round, op)` exchange must pass the same `expected`
    /// count.
    pub fn allreduce_scalar_among(
        &self,
        round: u64,
        worker: usize,
        value: f32,
        expected: usize,
        op: ScalarOp,
    ) -> f32 {
        assert!(worker < self.n, "worker id out of range");
        let rounds = &self.elastic_scalars[match op {
            ScalarOp::Sum => 0,
            ScalarOp::Mean => 1,
            ScalarOp::Max => 2,
        }];
        rounds.run(round, worker, expected, value, |contribs| {
            // Contributions arrive sorted by worker id (the ElasticRounds contract).
            match op {
                ScalarOp::Sum => contribs.iter().fold(0.0f32, |acc, &(_, v)| acc + v),
                ScalarOp::Mean => {
                    let sum = contribs.iter().fold(0.0f32, |acc, &(_, v)| acc + v);
                    sum / contribs.len() as f32
                }
                ScalarOp::Max => contribs
                    .iter()
                    .map(|&(_, v)| v)
                    .fold(f32::NEG_INFINITY, f32::max),
            }
        })
    }

    /// All-reduce of one small fixed-size `f32` vector per worker among an elastic
    /// subset of `expected` live workers at the explicitly identified `round` — the
    /// per-worker *signal feed*: instead of collapsing the round's `Δ(g_i)` to a
    /// single max, workers exchange fixed-length statistic vectors (e.g. `[Δ, Δ²]`)
    /// whose elementwise aggregates give the cluster variance/quantile picture an
    /// adaptive policy can act on.
    ///
    /// The [`ScalarOp`] is applied elementwise with the same worker-id-order fold as
    /// [`Collective::allreduce_scalar_among`], so results are bit-identical to the
    /// simulator's sequential fold. All contributions of one round must have equal
    /// length; one round may carry at most one vector exchange.
    pub fn allreduce_vec_among(
        &self,
        round: u64,
        worker: usize,
        values: Vec<f32>,
        expected: usize,
        op: ScalarOp,
    ) -> Vec<f32> {
        assert!(worker < self.n, "worker id out of range");
        self.elastic_vecs
            .run(round, worker, expected, values, |contribs| {
                let dim = contribs.first().map(|(_, v)| v.len()).unwrap_or(0);
                let count = contribs.len();
                let mut out = vec![
                    match op {
                        ScalarOp::Sum | ScalarOp::Mean => 0.0f32,
                        ScalarOp::Max => f32::NEG_INFINITY,
                    };
                    dim
                ];
                // Contributions arrive sorted by worker id (the ElasticRounds
                // contract), so each element folds in worker order.
                for (w, v) in contribs {
                    assert_eq!(
                        v.len(),
                        dim,
                        "vector all-reduce contributions must have equal length (worker {w})"
                    );
                    for (o, &x) in out.iter_mut().zip(v.iter()) {
                        match op {
                            ScalarOp::Sum | ScalarOp::Mean => *o += x,
                            ScalarOp::Max => *o = o.max(x),
                        }
                    }
                }
                if op == ScalarOp::Mean {
                    for o in out.iter_mut() {
                        *o /= count as f32;
                    }
                }
                out
            })
    }

    /// All-reduce (mean) over equal-length `f32` vectors: every worker receives the
    /// element-wise average of all contributions.
    pub fn allreduce_mean(&self, worker: usize, value: Vec<f32>) -> Vec<f32> {
        let n = self.n as f32;
        self.reduce.run(worker, value, move |contrib| {
            let dim = contrib
                .iter()
                .flatten()
                .next()
                .map(|v| v.len())
                .unwrap_or(0);
            let mut out = vec![0.0f32; dim];
            for c in contrib.iter().flatten() {
                assert_eq!(
                    c.len(),
                    dim,
                    "allreduce contributions must have equal length"
                );
                for (o, &x) in out.iter_mut().zip(c.iter()) {
                    *o += x;
                }
            }
            for o in out.iter_mut() {
                *o /= n;
            }
            out
        })
    }

    /// Block until all workers reach the barrier.
    pub fn barrier(&self, worker: usize) {
        self.barrier.run(worker, (), |_| ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn spawn_workers<T: Send + 'static>(
        n: usize,
        f: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|w| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f(w))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn allgather_flags_returns_everyones_bit() {
        let coll = Arc::new(Collective::new(6));
        let c = Arc::clone(&coll);
        let results = spawn_workers(6, move |w| c.allgather_flags(w, w % 2 == 0));
        for flags in results {
            assert_eq!(flags, vec![true, false, true, false, true, false]);
        }
    }

    #[test]
    fn allreduce_mean_averages_vectors() {
        let coll = Arc::new(Collective::new(4));
        let c = Arc::clone(&coll);
        let results = spawn_workers(4, move |w| c.allreduce_mean(w, vec![w as f32, 10.0]));
        for avg in results {
            assert!((avg[0] - 1.5).abs() < 1e-6);
            assert!((avg[1] - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn collectives_are_reusable_across_rounds() {
        let coll = Arc::new(Collective::new(3));
        let c = Arc::clone(&coll);
        let results = spawn_workers(3, move |w| {
            let mut outputs = Vec::new();
            for round in 0..10 {
                let v = c.allreduce_mean(w, vec![(w + round) as f32]);
                outputs.push(v[0]);
                c.barrier(w);
            }
            outputs
        });
        for out in results {
            for (round, v) in out.iter().enumerate() {
                let expected = (0..3).map(|w| (w + round) as f32).sum::<f32>() / 3.0;
                assert!((v - expected).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn barrier_synchronises_all_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let coll = Arc::new(Collective::new(5));
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&coll);
        let cnt = Arc::clone(&counter);
        let results = spawn_workers(5, move |w| {
            cnt.fetch_add(1, Ordering::SeqCst);
            c.barrier(w);
            // After the barrier every worker must observe all 5 increments.
            cnt.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&seen| seen == 5));
    }

    #[test]
    fn world_size_reported() {
        assert_eq!(Collective::new(7).world_size(), 7);
    }

    #[test]
    fn scalar_allreduce_computes_sum_mean_and_max() {
        let coll = Arc::new(Collective::new(4));
        let c = Arc::clone(&coll);
        // One exchange of each op in the same round: the per-op rendezvous keep the
        // shared round id from colliding.
        let results = spawn_workers(4, move |w| {
            let v = (w + 1) as f32;
            (
                c.allreduce_scalar_among(3, w, v, 4, ScalarOp::Sum),
                c.allreduce_scalar_among(3, w, v, 4, ScalarOp::Mean),
                c.allreduce_scalar_among(3, w, v, 4, ScalarOp::Max),
            )
        });
        for (sum, mean, max) in results {
            assert_eq!(sum, 10.0);
            assert_eq!(mean, 2.5);
            assert_eq!(max, 4.0);
        }
    }

    #[test]
    fn scalar_allreduce_sums_in_worker_order_not_arrival_order() {
        // With f32, (1e8 + 1.0) - 1e8 == 0 but (1e8 - 1e8) + 1.0 == 1.0: the fold
        // must run in worker-id order no matter which thread closes the round.
        let expected = {
            let mut s = 0.0f32;
            for v in [1e8f32, 1.0, -1e8] {
                s += v;
            }
            s
        };
        for _ in 0..8 {
            let coll = Arc::new(Collective::new(3));
            let handles: Vec<_> = [(0usize, 1e8f32), (1, 1.0), (2, -1e8)]
                .into_iter()
                .map(|(w, v)| {
                    let c = Arc::clone(&coll);
                    std::thread::spawn(move || c.allreduce_scalar_among(0, w, v, 3, ScalarOp::Sum))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expected);
            }
        }
    }

    #[test]
    fn scalar_allreduce_tolerates_elastic_membership() {
        // Worker 2 skips round 1 entirely; the reductions run over the present pair.
        let coll = Arc::new(Collective::new(3));
        let c = Arc::clone(&coll);
        let results = spawn_workers(3, move |w| {
            let mut seen = Vec::new();
            for round in 0..3u64 {
                if w == 2 && round == 1 {
                    continue;
                }
                let expected = if round == 1 { 2 } else { 3 };
                let v = (w + 1) as f32 * 10.0;
                seen.push((
                    round,
                    c.allreduce_scalar_among(round, w, v, expected, ScalarOp::Mean),
                    c.allreduce_scalar_among(round, w, v, expected, ScalarOp::Max),
                ));
            }
            seen
        });
        for (w, seen) in results.into_iter().enumerate() {
            for (round, mean, max) in seen {
                let (em, ex) = if round == 1 {
                    ((10.0 + 20.0) / 2.0, 20.0)
                } else {
                    ((10.0 + 20.0 + 30.0) / 3.0, 30.0)
                };
                assert_eq!(mean, em, "worker {w} round {round}");
                assert_eq!(max, ex, "worker {w} round {round}");
            }
        }
    }

    /// Decode a membership mask for one round (bit `w` set ⇒ worker `w` present),
    /// forced non-empty so every round has a participant.
    fn members(mask: u8, group: usize) -> Vec<usize> {
        let mask = if mask as usize & ((1 << group) - 1) == 0 {
            1
        } else {
            mask as usize
        };
        (0..group).filter(|w| mask & (1 << w) != 0).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Random join/leave sequences, mirroring the ElasticRounds flags proptest:
        // every worker walks only the rounds it is a member of (crashed workers skip
        // rounds entirely). For each round, every present worker's Sum/Mean/Max result
        // must equal the worker-order fold over exactly the present workers'
        // contributions — independent of arrival order.
        #[test]
        fn scalar_allreduce_matches_the_worker_order_fold_over_random_membership(
            masks in proptest::collection::vec(0u8..255, 4..12),
            group in 2usize..6,
        ) {
            let masks: Vec<Vec<usize>> = masks.iter().map(|&m| members(m, group)).collect();
            let coll = Arc::new(Collective::new(group));
            let masks = Arc::new(masks);

            type Reduced = Vec<(u64, f32, f32, f32)>;
            let results: Vec<Reduced> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..group)
                    .map(|w| {
                        let coll = Arc::clone(&coll);
                        let masks = Arc::clone(&masks);
                        scope.spawn(move || {
                            let mut seen = Vec::new();
                            for (round, m) in masks.iter().enumerate() {
                                if !m.contains(&w) {
                                    continue;
                                }
                                let round = round as u64;
                                let value = (round as usize * 100 + w * 7) as f32;
                                let n = m.len();
                                seen.push((
                                    round,
                                    coll.allreduce_scalar_among(round, w, value, n, ScalarOp::Sum),
                                    coll.allreduce_scalar_among(round, w, value, n, ScalarOp::Mean),
                                    coll.allreduce_scalar_among(round, w, value, n, ScalarOp::Max),
                                ));
                            }
                            seen
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

            for (w, seen) in results.into_iter().enumerate() {
                let expected_rounds: Vec<u64> = masks
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.contains(&w))
                    .map(|(r, _)| r as u64)
                    .collect();
                prop_assert_eq!(
                    seen.iter().map(|&(r, ..)| r).collect::<Vec<_>>(),
                    expected_rounds
                );
                for (round, sum, mean, max) in seen {
                    let m = &masks[round as usize];
                    // The reference: a sequential fold in ascending worker-id order.
                    let vals: Vec<f32> = m
                        .iter()
                        .map(|&p| (round as usize * 100 + p * 7) as f32)
                        .collect();
                    let esum = vals.iter().fold(0.0f32, |a, &b| a + b);
                    let emean = esum / vals.len() as f32;
                    let emax = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    prop_assert_eq!(sum, esum, "round {} worker {}", round, w);
                    prop_assert_eq!(mean, emean, "round {} worker {}", round, w);
                    prop_assert_eq!(max, emax, "round {} worker {}", round, w);
                }
            }
        }
    }

    #[test]
    fn vec_allreduce_aggregates_elementwise() {
        let coll = Arc::new(Collective::new(4));
        let c = Arc::clone(&coll);
        let results = spawn_workers(4, move |w| {
            let d = (w + 1) as f32;
            // The Δ-moment feed: [Δ, Δ²] per worker, cluster mean.
            c.allreduce_vec_among(0, w, vec![d, d * d], 4, ScalarOp::Mean)
        });
        for out in results {
            assert_eq!(out, vec![(1.0 + 2.0 + 3.0 + 4.0) / 4.0, 30.0 / 4.0]);
        }
    }

    #[test]
    fn vec_allreduce_tolerates_elastic_membership() {
        // Worker 0 skips round 1; the moment feed runs over the survivors.
        let coll = Arc::new(Collective::new(3));
        let c = Arc::clone(&coll);
        let results = spawn_workers(3, move |w| {
            let mut seen = Vec::new();
            for round in 0..3u64 {
                if w == 0 && round == 1 {
                    continue;
                }
                let expected = if round == 1 { 2 } else { 3 };
                let d = (w + 1) as f32;
                seen.push((
                    round,
                    c.allreduce_vec_among(round, w, vec![d, d * d], expected, ScalarOp::Mean),
                ));
            }
            seen
        });
        for (w, seen) in results.into_iter().enumerate() {
            for (round, out) in seen {
                let expected = if round == 1 {
                    vec![(2.0 + 3.0) / 2.0, (4.0 + 9.0) / 2.0]
                } else {
                    vec![(1.0 + 2.0 + 3.0) / 3.0, (1.0 + 4.0 + 9.0) / 3.0]
                };
                assert_eq!(out, expected, "worker {w} round {round}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // The vector all-reduce must match the per-element worker-order fold for every
        // op, under any thread scheduling.
        #[test]
        fn vec_allreduce_matches_the_worker_order_fold(
            group in 2usize..6,
            dim in 1usize..5,
            op_tag in 0u8..3,
        ) {
            let op = match op_tag {
                0 => ScalarOp::Sum,
                1 => ScalarOp::Mean,
                _ => ScalarOp::Max,
            };
            let value = |w: usize, e: usize| ((w * 13 + e * 5) as f32) * 0.25 - 2.0;
            let coll = Arc::new(Collective::new(group));
            let results: Vec<Vec<f32>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..group)
                    .map(|w| {
                        let coll = Arc::clone(&coll);
                        scope.spawn(move || {
                            let v: Vec<f32> = (0..dim).map(|e| value(w, e)).collect();
                            coll.allreduce_vec_among(0, w, v, group, op)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let expected: Vec<f32> = (0..dim)
                .map(|e| {
                    let vals: Vec<f32> = (0..group).map(|w| value(w, e)).collect();
                    match op {
                        ScalarOp::Sum => vals.iter().fold(0.0f32, |a, &b| a + b),
                        ScalarOp::Mean => {
                            vals.iter().fold(0.0f32, |a, &b| a + b) / vals.len() as f32
                        }
                        ScalarOp::Max => vals.iter().copied().fold(f32::NEG_INFINITY, f32::max),
                    }
                })
                .collect();
            for out in results {
                prop_assert_eq!(&out, &expected);
            }
        }
    }

    #[test]
    fn elastic_flags_tolerate_a_worker_skipping_rounds() {
        // Worker 2 is "crashed" for rounds 1..3: it skips them entirely and races ahead
        // to round 3 — the round-keyed rendezvous must neither deadlock nor let the
        // skipped rounds be closed by the wrong membership.
        let coll = Arc::new(Collective::new(3));
        let c = Arc::clone(&coll);
        let results = spawn_workers(3, move |w| {
            let mut gathered = Vec::new();
            for round in 0..5u64 {
                let crashed = w == 2 && (1..3).contains(&round);
                if crashed {
                    continue;
                }
                let expected = if (1..3).contains(&round) { 2 } else { 3 };
                let flags = c.allgather_flags_among(round, w, w == 0, expected);
                gathered.push((round, flags));
            }
            gathered
        });
        for (w, gathered) in results.into_iter().enumerate() {
            let expected_rounds: Vec<u64> = if w == 2 {
                vec![0, 3, 4]
            } else {
                (0..5).collect()
            };
            assert_eq!(
                gathered.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
                expected_rounds
            );
            for (round, flags) in gathered {
                // Worker 0's flag is always set; worker 2's contribution is absent
                // (reads false) during its crash window.
                assert!(flags[0], "round {round}");
                assert!(!flags[1], "round {round}");
                assert!(!flags[2], "round {round}");
            }
        }
    }
}
