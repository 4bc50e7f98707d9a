//! Deterministic parallel helpers over the shared worker pool.
//!
//! Everything here follows one contract: work is split into **fixed-size,
//! index-disjoint chunks**, each chunk is processed with the same per-element
//! operation order a serial loop would use, and no cross-chunk reduction ever
//! races. Results are therefore bit-identical for every thread count — the
//! property the scenario subsystem's byte-identical reports depend on.
//!
//! Every kernel reaches the pool through one gate, [`for_each_range`]: the caller
//! states how much work the whole call is (multiply-adds for the matmuls, elements
//! for the elementwise sweeps), and a call of at most one [`GRAIN`] is not split at
//! all — the kernel runs once, over the whole range, on the calling thread. The
//! gate only picks between two schedules the contract above already makes
//! bit-identical. [`parallel_for`] is the raw primitive underneath: it always
//! dispatches, and is what coarse-grained callers (whole training steps per task)
//! use directly.
//!
//! Thread count comes from `SELSYNC_THREADS` (default `available_parallelism`);
//! see [`with_threads`] for scoped overrides in tests and benchmarks.

pub use rayon::pool::{configured_threads, current_num_threads, parallel_for, with_threads};

/// Chunk length (elements) for parallel elementwise sweeps. Fixed — never a
/// function of the thread count — so the work decomposition is reproducible.
pub const ELEM_CHUNK: usize = 16 * 1024;

/// The largest call, in work units, that runs on the calling thread alone: one
/// unit is one multiply-add of a matmul or one element of an elementwise sweep.
///
/// 2¹⁸ is the largest batch-16 VggLike kernel, 16·128·128 multiply-adds, so every
/// VggLike and ResNetLike matmul and every sweep over either model's parameter vector
/// runs on the caller. A pool dispatch costs a queue lock, a channel send, a latch
/// allocation, a futex wake and a condvar wait, and threads that submit at the same
/// time queue for the same helpers; a serial 16·128·128 matmul takes a few µs, and
/// the same kernel sent to the pool takes longer, not shorter. The measurements
/// (`bench_kernels`' `model_shapes` rows) and the end-to-end A/B are in
/// `docs/PERFORMANCE.md`, "The dispatch gate".
pub const GRAIN: usize = 1 << 18;

#[cfg(test)]
thread_local! {
    /// Calls this thread sent past the gate to the pool: lets the unit tests
    /// see what a kernel that takes no closure (a matmul) decided.
    static DISPATCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Raw-pointer wrapper for index-disjoint cross-thread writes.
///
/// Closures must capture the wrapper (via [`SendPtr::get`]), never the bare
/// pointer, to inherit the `Send`/`Sync` guarantees. Constructing one is safe;
/// every dereference of the wrapped pointer is `unsafe` and carries the usual
/// obligations (in-bounds, disjoint across tasks, borrow outlives all uses —
/// which [`parallel_for`] guarantees by blocking until every task finishes).
pub struct SendPtr<T>(pub *mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// The dispatch gate: apply `f(start, end)` over `0..len`, every index exactly once.
/// When the whole call's `work` exceeds one [`GRAIN`], `0..len` is cut into fixed
/// `chunk`-sized ranges that run on the pool; otherwise `f(0, len)` runs once on the
/// calling thread, with no synchronisation at all. `f` must only touch state
/// belonging to its range.
pub fn for_each_range(work: usize, len: usize, chunk: usize, f: impl Fn(usize, usize) + Sync) {
    if len == 0 {
        return;
    }
    if work <= GRAIN {
        return f(0, len);
    }
    #[cfg(test)]
    DISPATCHES.with(|d| d.set(d.get() + 1));
    let chunk = chunk.max(1);
    parallel_for(len.div_ceil(chunk), |t| {
        let start = t * chunk;
        f(start, (start + chunk).min(len));
    });
}

/// [`for_each_range`] over disjoint mutable chunks of `data`; `f` receives the
/// chunk's start index and the chunk itself (all of `data` when the call stays on
/// the caller). `work` is the whole call's estimate: the element count for an
/// elementwise sweep, the multiply-adds for a matmul whose chunks are output row
/// blocks.
pub fn for_each_chunk_mut(
    work: usize,
    data: &mut [f32],
    chunk: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    for_each_range(work, len, chunk, |start, end| {
        // SAFETY: ranges are disjoint and within bounds; the borrow of `data`
        // outlives the call, which returns only after every task has run.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(start, slice);
    });
}

/// Gated `y[i] = f(y[i], x[i])`. Panics on length mismatch.
pub fn zip2_mut(y: &mut [f32], x: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    assert_eq!(y.len(), x.len(), "zip2_mut length mismatch");
    for_each_chunk_mut(y.len(), y, ELEM_CHUNK, |start, ys| {
        let len = ys.len();
        for (yy, &xx) in ys.iter_mut().zip(&x[start..start + len]) {
            *yy = f(*yy, xx);
        }
    });
}

/// Gated elementwise update over two mutable vectors and one input:
/// `f(&mut a[i], &mut b[i], x[i])` (the SGD momentum shape).
pub fn zip3_mut(
    a: &mut [f32],
    b: &mut [f32],
    x: &[f32],
    f: impl Fn(&mut f32, &mut f32, f32) + Sync,
) {
    assert_eq!(a.len(), b.len(), "zip3_mut length mismatch");
    assert_eq!(a.len(), x.len(), "zip3_mut length mismatch");
    let len = a.len();
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    for_each_range(len, len, ELEM_CHUNK, |start, end| {
        // SAFETY: disjoint ranges over both mutable slices.
        let sa = unsafe { std::slice::from_raw_parts_mut(pa.get().add(start), end - start) };
        let sb = unsafe { std::slice::from_raw_parts_mut(pb.get().add(start), end - start) };
        for ((ai, bi), &xi) in sa.iter_mut().zip(sb.iter_mut()).zip(&x[start..end]) {
            f(ai, bi, xi);
        }
    });
}

/// Gated elementwise update over three mutable vectors and one input:
/// `f(&mut a[i], &mut b[i], &mut c[i], x[i])` (the Adam moment shape).
pub fn zip4_mut(
    a: &mut [f32],
    b: &mut [f32],
    c: &mut [f32],
    x: &[f32],
    f: impl Fn(&mut f32, &mut f32, &mut f32, f32) + Sync,
) {
    assert_eq!(a.len(), b.len(), "zip4_mut length mismatch");
    assert_eq!(a.len(), c.len(), "zip4_mut length mismatch");
    assert_eq!(a.len(), x.len(), "zip4_mut length mismatch");
    let len = a.len();
    let pa = SendPtr(a.as_mut_ptr());
    let pb = SendPtr(b.as_mut_ptr());
    let pc = SendPtr(c.as_mut_ptr());
    for_each_range(len, len, ELEM_CHUNK, |start, end| {
        // SAFETY: disjoint ranges over all three mutable slices.
        let sa = unsafe { std::slice::from_raw_parts_mut(pa.get().add(start), end - start) };
        let sb = unsafe { std::slice::from_raw_parts_mut(pb.get().add(start), end - start) };
        let sc = unsafe { std::slice::from_raw_parts_mut(pc.get().add(start), end - start) };
        for (((ai, bi), ci), &xi) in sa
            .iter_mut()
            .zip(sb.iter_mut())
            .zip(sc.iter_mut())
            .zip(&x[start..end])
        {
            f(ai, bi, ci, xi);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, Tensor};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::thread;

    /// Deterministic, sign-varying test data.
    fn ramp(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + salt * 13) % 29) as f32 * 0.37 - 5.1)
            .collect()
    }

    /// Run `f` under `with_threads(4)` and return how many of its calls this thread
    /// sent past the gate.
    fn dispatches_during(f: impl FnOnce()) -> usize {
        let before = DISPATCHES.with(|d| d.get());
        with_threads(4, f);
        DISPATCHES.with(|d| d.get()) - before
    }

    #[test]
    fn below_grain_work_never_leaves_the_caller() {
        let caller = thread::current().id();
        let strayed = AtomicBool::new(false);
        let note = || {
            if thread::current().id() != caller {
                strayed.store(true, Ordering::Relaxed);
            }
        };

        // One full grain of elements, asked for in small chunks: the caller gets the
        // whole range as a single chunk.
        let hits: Vec<AtomicU32> = (0..GRAIN).map(|_| AtomicU32::new(0)).collect();
        let chunks = AtomicU32::new(0);
        let sent = dispatches_during(|| {
            for_each_range(GRAIN, GRAIN, 1024, |s, e| {
                note();
                chunks.fetch_add(1, Ordering::Relaxed);
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(sent, 0, "for_each_range of one grain dispatched");
        assert_eq!(chunks.load(Ordering::Relaxed), 1);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        // The ResNetLike and VggLike parameter vectors through the SGD-shaped sweep.
        for len in [27_722, 99_684] {
            let (mut a, mut b, x) = (ramp(len, 1), ramp(len, 2), ramp(len, 3));
            let sent = dispatches_during(|| {
                zip3_mut(&mut a, &mut b, &x, |ai, bi, xi| {
                    note();
                    *bi += xi;
                    *ai -= *bi;
                });
            });
            assert_eq!(sent, 0, "zip3_mut over {len} elements dispatched");
        }
        assert!(
            !strayed.load(Ordering::Relaxed),
            "a chunk ran off the caller"
        );

        // The ResNetLike hidden layer and the VggLike hidden layer (exactly one grain of
        // multiply-adds) at batch 16 through all three matmul kernels; they take no
        // closure, so count dispatches.
        assert_eq!(16 * 128 * 128, GRAIN, "the VggLike layer left the grain");
        for width in [64, 128] {
            let sent = dispatches_during(|| square_layer_matmuls(width, 4));
            assert_eq!(sent, 0, "a 16x{width}x{width} matmul dispatched");
        }
    }

    /// All three matmul kernels of a batch-16 `width x width` linear layer: forward,
    /// `dX` and `dW`.
    fn square_layer_matmuls(width: usize, salt: usize) {
        let act = Tensor::from_vec(16, width, ramp(16 * width, salt)).unwrap();
        let weight = Tensor::from_vec(width, width, ramp(width * width, salt + 1)).unwrap();
        let mut out = Tensor::zeros(16, width);
        let mut dw = Tensor::zeros(width, width);
        ops::matmul_into(&act, &weight, &mut out).unwrap();
        ops::matmul_bt_into(&act, &weight, &mut out).unwrap();
        ops::matmul_at_into(&act, &act, &mut dw).unwrap();
    }

    #[test]
    fn above_grain_work_dispatches_and_covers_everything_once() {
        let hits: Vec<AtomicU32> = (0..GRAIN + 1).map(|_| AtomicU32::new(0)).collect();
        let sent = dispatches_during(|| {
            for_each_range(hits.len(), hits.len(), 128, |s, e| {
                for h in &hits[s..e] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(sent, 1, "one element past the grain must reach the pool");
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));

        // The AlexLike hidden layer at batch 16 is four grains of multiply-adds.
        let sent = dispatches_during(|| square_layer_matmuls(256, 6));
        assert_eq!(sent, 3, "the 16x256x256 matmuls must dispatch");
    }

    #[test]
    fn sweeps_are_bit_identical_for_1_vs_4_threads_around_the_grain() {
        // Both sides of the gate, its two edges, and a multi-chunk pooled sweep.
        for len in [GRAIN - 1, GRAIN, GRAIN + 1, 3 * GRAIN] {
            let x = ramp(len, 1);
            let run = |threads: usize| {
                let (mut a, mut b, mut c) = (ramp(len, 2), ramp(len, 3), ramp(len, 4));
                with_threads(threads, || {
                    zip2_mut(&mut a, &x, |y, xx| y * 0.9 + xx);
                    zip3_mut(&mut a, &mut b, &x, |ai, bi, xi| {
                        *bi = 0.9 * *bi + xi;
                        *ai -= 0.1 * *bi;
                    });
                    zip4_mut(&mut a, &mut b, &mut c, &x, |ai, bi, ci, xi| {
                        *bi = 0.9 * *bi + 0.1 * xi;
                        *ci = 0.99 * *ci + 0.01 * xi * xi;
                        *ai -= *bi / (ci.abs().sqrt() + 1e-3);
                    });
                });
                (a, b, c)
            };
            let serial = run(1);
            assert!(
                serial == run(4),
                "sweeps differ across thread counts at {len}"
            );
            // And against a loop that never heard of chunks.
            let mut plain = ramp(len, 2);
            for (y, &xx) in plain.iter_mut().zip(&x) {
                *y = *y * 0.9 + xx;
            }
            let mut gated = ramp(len, 2);
            with_threads(4, || zip2_mut(&mut gated, &x, |y, xx| y * 0.9 + xx));
            assert!(
                plain == gated,
                "zip2_mut differs from the plain loop at {len}"
            );
        }
    }

    #[test]
    fn zip3_applies_in_place() {
        let mut a = vec![1.0f32; 100];
        let mut b = vec![2.0f32; 100];
        let x = vec![3.0f32; 100];
        zip3_mut(&mut a, &mut b, &x, |ai, bi, xi| {
            *bi += xi;
            *ai -= *bi;
        });
        assert!(a.iter().all(|&v| v == -4.0));
        assert!(b.iter().all(|&v| v == 5.0));
    }

    #[test]
    #[should_panic]
    fn zip2_length_mismatch_panics() {
        zip2_mut(&mut [0.0], &[0.0, 1.0], |y, _| y);
    }
}
