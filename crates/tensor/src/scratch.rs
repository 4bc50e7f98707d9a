//! Thread-local scratch-buffer arena.
//!
//! The training hot path (forward/backward every iteration, for every worker)
//! used to allocate a fresh `Vec<f32>` for every layer output, gradient and
//! temporary. This module recycles those buffers instead: [`take_zeroed`]
//! hands out a pooled buffer, [`recycle`] returns it. The arena is
//! thread-local, so the threaded cluster driver and the worker pool need no
//! locking, and buffers stay NUMA/cache-local to the thread that uses them.
//!
//! Steady-state training allocates nothing per step once every shape has been
//! seen once per thread.

use std::cell::{Cell, RefCell};

/// Maximum number of buffers retained per thread.
const MAX_POOLED: usize = 64;

/// Buffers larger than this many elements are never retained (don't hoard).
const MAX_POOLED_LEN: usize = 1 << 24;

thread_local! {
    static ARENA: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Times [`take_zeroed`] had to go to the allocator on this thread.
    static MISSES: Cell<usize> = const { Cell::new(0) };
}

/// Take a zero-filled buffer of exactly `len` elements from the arena
/// (allocating only when no pooled buffer has enough capacity).
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = ARENA
        .with(|arena| {
            let mut arena = arena.borrow_mut();
            let pos = arena.iter().position(|b| b.capacity() >= len);
            pos.map(|p| arena.swap_remove(p)).or_else(|| arena.pop())
        })
        .unwrap_or_default();
    buf.clear();
    if buf.capacity() < len {
        MISSES.with(|m| m.set(m.get() + 1));
    }
    buf.resize(len, 0.0);
    buf
}

/// Return a buffer to the arena for reuse by this thread.
pub fn recycle(mut buf: Vec<f32>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_LEN {
        return;
    }
    buf.clear();
    ARENA.with(|arena| {
        let mut arena = arena.borrow_mut();
        if arena.len() < MAX_POOLED {
            arena.push(buf);
        }
    });
}

/// How many [`take_zeroed`] calls on this thread found no pooled buffer large enough
/// and allocated (or grew one). Constant in steady state: tests difference it around a
/// step to pin "allocates nothing".
pub fn misses() -> usize {
    MISSES.with(|m| m.get())
}

/// Number of buffers currently pooled on this thread (diagnostics/tests).
pub fn pooled_buffers() -> usize {
    ARENA.with(|arena| arena.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused() {
        let mut a = take_zeroed(100);
        a[0] = 5.0;
        let ptr = a.as_ptr();
        recycle(a);
        let b = take_zeroed(50);
        assert_eq!(b.as_ptr(), ptr, "same allocation comes back");
        assert!(b.iter().all(|&x| x == 0.0), "and it is zeroed");
        assert_eq!(b.len(), 50);
        recycle(b);
    }

    #[test]
    fn only_a_take_that_allocates_counts_as_a_miss() {
        let before = misses();
        let big = take_zeroed(1 << 12);
        assert_eq!(misses(), before + 1, "nothing this large was pooled");
        recycle(big);
        recycle(take_zeroed(1 << 12));
        recycle(take_zeroed(7));
        assert_eq!(misses(), before + 1, "both fit the recycled buffer");
        recycle(take_zeroed(1 << 13));
        assert_eq!(misses(), before + 2, "growing a pooled buffer allocates");
    }

    #[test]
    fn take_is_zeroed_even_from_fresh_allocation() {
        let v = take_zeroed(17);
        assert_eq!(v.len(), 17);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let before = pooled_buffers();
        recycle(Vec::new());
        assert_eq!(pooled_buffers(), before);
    }
}
