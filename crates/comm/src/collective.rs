//! Round-keyed collectives among the worker threads.
//!
//! SelSync's decision step is an `all-gather` of one synchronization-status bit per
//! worker (Alg. 1, line 12). It runs on the round-keyed [`ElasticRounds`]
//! rendezvous, like the parameter server's rounds, and so does the scalar
//! all-reduce beside it: both tolerate elastic membership and combine in worker
//! order.

use crate::rounds::ElasticRounds;

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
    /// Round-keyed elastic status all-gather — the shared [`ElasticRounds`] skeleton
    /// with a gather combine (absent workers read as the fill value).
    flags: ElasticRounds<bool, Vec<bool>>,
    /// Round-keyed elastic scalar all-reduce, one independent rendezvous per
    /// [`ScalarOp`] so a single round can carry one exchange of each op without the
    /// round ids colliding.
    scalars: [ElasticRounds<f32, f32>; 3],
}

impl Collective {
    /// Create collectives for a group of `n` workers.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "collective group must be non-empty");
        Collective {
            n,
            flags: ElasticRounds::new(),
            scalars: [
                ElasticRounds::new(),
                ElasticRounds::new(),
                ElasticRounds::new(),
            ],
        }
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
        self.flags.run(round, worker, expected, flag, |contribs| {
            let mut out = vec![false; n];
            for &(w, f) in contribs.iter() {
                out[w] = f;
            }
            out
        })
    }

    /// All-reduce of one scalar per worker among an elastic subset of `expected` live
    /// workers at the explicitly identified `round`: every participant receives the
    /// [`ScalarOp`]-combined value of all contributions.
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
        let rounds = &self.scalars[match op {
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
        let results = spawn_workers(6, move |w| c.allgather_flags_among(0, w, w % 2 == 0, 6));
        for flags in results {
            assert_eq!(flags, vec![true, false, true, false, true, false]);
        }
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
