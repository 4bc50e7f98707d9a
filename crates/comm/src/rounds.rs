//! Round-keyed rendezvous with elastic membership — the one meeting point of the
//! cluster's round: [`crate::ps::ParameterServer::sync_round_elastic`] (sum/average
//! combine), the [`crate::collective::Collective`] all-gather and all-reduce, and the
//! `selsync` driver's signal and checkpoint rounds.
//!
//! Each round is identified by an explicit round id (the training iteration), so a
//! worker that skipped earlier rounds (it was crashed) can never close or corrupt a
//! round it was not part of, and a slow waiter can never miss its result to a later
//! round overwriting it. Rounds are removed once every participant has consumed the
//! result, so memory stays bounded by the number of concurrently open rounds.
//!
//! Contributions are keyed by worker id and handed to the combine step **sorted by
//! worker id**, never in arrival order — so a deterministic combine function (e.g. an
//! in-order floating-point sum) produces bit-identical results regardless of thread
//! scheduling. This is what lets the threaded SelSync driver reproduce the simulator's
//! synchronization schedule exactly.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;

/// One open round: contributions keyed by worker id, plus the combined result once the
/// expected number of participants has arrived.
struct Slot<T, R> {
    contributions: Vec<(usize, T)>,
    expected: usize,
    result: Option<R>,
    consumed: usize,
}

/// A reusable set of round-keyed elastic rendezvous, generic over the contribution
/// type `T` and the combined result type `R`.
pub struct ElasticRounds<T, R: Clone> {
    state: Mutex<HashMap<u64, Slot<T, R>>>,
    cv: Condvar,
}

impl<T, R: Clone> Default for ElasticRounds<T, R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, R: Clone> ElasticRounds<T, R> {
    /// Empty rendezvous (no open rounds).
    pub fn new() -> Self {
        ElasticRounds {
            state: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }

    /// Contribute `value` for `worker` to `round` and block until the round's
    /// `expected` participants have all contributed. The last arrival closes the round
    /// by calling `combine` on the contributions **sorted by worker id** (never arrival
    /// order — deterministic combines stay deterministic under any scheduling); every
    /// participant receives a clone of the combined result. The contributions are
    /// dropped with the round, so a combine that recycles them takes them out.
    ///
    /// All participants of one round must pass the same `expected` count, and a worker
    /// must contribute at most once per round. `combine` runs under the rendezvous
    /// lock, exactly once per round.
    pub fn run(
        &self,
        round: u64,
        worker: usize,
        expected: usize,
        value: T,
        combine: impl FnOnce(&mut [(usize, T)]) -> R,
    ) -> R {
        assert!(
            expected > 0,
            "an elastic round needs at least one participant"
        );
        let mut s = self.state.lock();
        let slot = s.entry(round).or_insert_with(|| Slot {
            contributions: Vec::with_capacity(expected),
            expected,
            result: None,
            consumed: 0,
        });
        assert_eq!(
            slot.expected, expected,
            "mismatched membership in elastic round {round}"
        );
        assert!(
            slot.contributions.iter().all(|&(w, _)| w != worker),
            "worker {worker} contributed twice to elastic round {round}"
        );
        slot.contributions.push((worker, value));
        if slot.contributions.len() == slot.expected {
            // Last arrival closes the round: combine in worker-id order, publish, wake.
            slot.contributions.sort_by_key(|&(w, _)| w);
            slot.result = Some(combine(&mut slot.contributions));
            self.cv.notify_all();
        }
        loop {
            if let Some(slot) = s.get_mut(&round) {
                if let Some(result) = &slot.result {
                    let out = result.clone();
                    slot.consumed += 1;
                    if slot.consumed == slot.expected {
                        s.remove(&round);
                    }
                    return out;
                }
            }
            self.cv.wait(&mut s);
        }
    }

    /// Number of currently open rounds (diagnostics/tests).
    pub fn open_rounds(&self) -> usize {
        self.state.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_round_combines_immediately() {
        let rounds: ElasticRounds<f32, f32> = ElasticRounds::new();
        let r = rounds.run(0, 3, 1, 2.5, |c| {
            assert_eq!(c.len(), 1);
            assert_eq!(c[0], (3, 2.5));
            c[0].1 * 2.0
        });
        assert_eq!(r, 5.0);
        assert_eq!(rounds.open_rounds(), 0);
    }

    #[test]
    fn combine_sees_contributions_in_worker_order() {
        // Workers arrive in reverse order; combine must still see ascending ids.
        let rounds: Arc<ElasticRounds<usize, Vec<usize>>> = Arc::new(ElasticRounds::new());
        let handles: Vec<_> = [3usize, 1, 2, 0]
            .into_iter()
            .enumerate()
            .map(|(delay, w)| {
                let rounds = Arc::clone(&rounds);
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay as u64 * 5));
                    rounds.run(7, w, 4, w * 10, |c| {
                        c.iter().map(|&(worker, _)| worker).collect()
                    })
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    #[should_panic]
    fn double_contribution_panics() {
        // Expect 2 so the first call parks the contribution without closing the round;
        // contributing again from the same worker must assert. The first contributor
        // runs detached (its round never completes; the thread is reclaimed when the
        // test process exits) — a scoped thread would deadlock the unwinding test.
        let rounds: Arc<ElasticRounds<(), ()>> = Arc::new(ElasticRounds::new());
        let first = Arc::clone(&rounds);
        std::thread::spawn(move || first.run(0, 0, 2, (), |_| ()));
        std::thread::sleep(std::time::Duration::from_millis(50));
        rounds.run(0, 0, 2, (), |_| ());
    }

    /// Decode a membership mask for one round: bit `w` set means worker `w` is present.
    /// Forced non-empty so every round has a participant.
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

        // Random join/leave sequences: every worker walks only the rounds it is a
        // member of (crashed workers skip rounds entirely, exactly like the threaded
        // driver under a fault schedule). For each round the gather result must list
        // precisely the members, and the in-order sum must equal the sum computed
        // from the membership — independent of arrival order.
        #[test]
        fn random_join_leave_sequences_combine_deterministically(
            masks in proptest::collection::vec(0u8..255, 4..12),
            group in 2usize..6,
        ) {
            type Gathered = Vec<(u64, Vec<(usize, f32)>)>;
            let masks: Vec<Vec<usize>> =
                masks.iter().map(|&m| members(m, group)).collect();
            let gather: Arc<ElasticRounds<f32, Vec<(usize, f32)>>> =
                Arc::new(ElasticRounds::new());
            let masks = Arc::new(masks);

            let results: Vec<Gathered> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..group)
                    .map(|w| {
                        let gather = Arc::clone(&gather);
                        let masks = Arc::clone(&masks);
                        scope.spawn(move || {
                            let mut seen = Vec::new();
                            for (round, m) in masks.iter().enumerate() {
                                if !m.contains(&w) {
                                    continue;
                                }
                                let value = (round * 100 + w) as f32;
                                let combined = gather.run(
                                    round as u64,
                                    w,
                                    m.len(),
                                    value,
                                    |c| c.to_vec(),
                                );
                                seen.push((round as u64, combined));
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
                    seen.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
                    expected_rounds
                );
                for (round, combined) in seen {
                    let m = &masks[round as usize];
                    let expected: Vec<(usize, f32)> = m
                        .iter()
                        .map(|&p| (p, (round as usize * 100 + p) as f32))
                        .collect();
                    prop_assert_eq!(combined, expected);
                }
            }
            prop_assert_eq!(gather.open_rounds(), 0);
        }
    }
}
