//! Offline stand-in for `rayon`, now backed by a real worker pool.
//!
//! Unlike the original sequential shim, this crate runs work on long-lived OS
//! threads while keeping every result **bit-identical across thread counts**:
//!
//! * [`pool::parallel_for`] executes independent tasks (each writing disjoint
//!   output) across the pool; which thread runs which task is irrelevant to the
//!   result, so an atomic task counter is safe.
//! * Reductions must not be expressed as racing accumulations. Callers either
//!   keep them serial or combine fixed-size per-task partials in task order
//!   (see `selsync_tensor::par`), which makes the floating-point summation
//!   order a pure function of the input size — never of the thread count.
//!
//! The pool is configured once from `SELSYNC_THREADS` (default:
//! `available_parallelism`). Tests can widen or narrow the *effective* thread
//! count at runtime with [`pool::with_threads`]; the pool lazily grows its
//! worker set, so a 1-CPU machine can still genuinely exercise a 4-thread
//! schedule.
//!
//! The pool is the crate's whole surface, and it is not a drop-in for registry
//! rayon: work stealing would give up the determinism guarantee above. The
//! workspace's kernels call [`pool::parallel_for`] through `selsync_tensor::par`.

pub mod pool;

/// Number of threads the pool will use for the current call context
/// (rayon-compatible name).
pub fn current_num_threads() -> usize {
    pool::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_runs_every_task_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool::with_threads(4, || {
            pool::parallel_for(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_parallel_for_degrades_gracefully() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        pool::with_threads(4, || {
            pool::parallel_for(8, |_| {
                pool::parallel_for(8, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn with_threads_restores_the_previous_setting() {
        let before = current_num_threads();
        let inside = pool::with_threads(3, current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), before);
    }
}
