//! Linear-algebra and elementwise operations on [`Tensor`].
//!
//! Matrix products are the compute hot path of the neural-network substrate. All three
//! matmul variants are cache-blocked (row blocks × k/n tiles) and go through the dispatch
//! gate ([`crate::par::for_each_range`]) with their multiply-add count, so they reach the
//! shared worker pool only when the arithmetic can amortise the dispatch. Two invariants
//! hold for every kernel here:
//!
//! 1. **Order preservation**: each output element accumulates its `k` products in
//!    ascending-`p` order, exactly like the straightforward triple loop, regardless of
//!    tiling or thread count — results are bit-identical to the serial kernels.
//! 2. **Disjoint writes**: parallel tasks own disjoint row blocks (or column stripes for
//!    [`matmul_at_acc`]); no reduction races, so thread count never changes the bytes.
//!
//! The `_into`/`_acc` variants write into caller-owned buffers so steady-state training
//! allocates nothing per step (see [`crate::scratch`]). Full-precision reductions
//! (`sum`, `dot`, …) stay serial on purpose: parallel partial sums would change the
//! floating-point reduction order.

use crate::{par, Result, Tensor, TensorError};

/// Output rows per task (and per cache block) in `matmul`/`matmul_bt`.
const ROW_BLOCK: usize = 4;

/// Columns of `B`/`out` processed per tile (keeps a row block of `out` in L1).
const N_TILE: usize = 256;

/// Rows of `B` (the `k` dimension) streamed per tile.
const K_TILE: usize = 256;

/// Output columns per task (stripe) in `matmul_at_acc`.
const COL_BLOCK: usize = 64;

/// Independent accumulator lanes (output columns held in registers) per `matmul_bt`
/// inner pass. Each lane is a separate dependency chain summing in ascending-p order,
/// so the blocking changes throughput, never bytes.
const BT_LANES: usize = 4;

#[inline]
fn shape_err(op: &'static str, a: &Tensor, b: &Tensor) -> TensorError {
    TensorError::ShapeMismatch {
        op,
        lhs: a.shape(),
        rhs: b.shape(),
    }
}

#[inline]
fn out_shape_err(op: &'static str, out: &Tensor, expected: (usize, usize)) -> TensorError {
    TensorError::ShapeMismatch {
        op,
        lhs: out.shape(),
        rhs: expected,
    }
}

/// Dense matrix product `A (m x k) * B (k x n) -> (m x n)`.
///
/// The returned tensor is backed by the thread-local scratch arena; call
/// [`Tensor::recycle`] when done to make the hot path allocation-free.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::scratch_zeros(a.rows(), b.cols());
    matmul_acc(a, b, &mut out).map_err(|e| match e {
        TensorError::ShapeMismatch { .. } => shape_err("matmul", a, b),
        other => other,
    })?;
    Ok(out)
}

/// `out = A * B` into a caller-owned tensor of shape `(a.rows, b.cols)`.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    out.fill(0.0);
    matmul_acc(a, b, out)
}

/// `out += A * B` (accumulating): the zero-alloc building block behind
/// [`matmul`]/[`matmul_into`].
pub fn matmul_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(shape_err("matmul", a, b));
    }
    let (m, k) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(out_shape_err("matmul_into", out, (m, n)));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    let a_data = a.data();
    let b_data = b.data();
    // One task per row block of `out` (disjoint chunks); within a block the classic
    // k-outer/axpy-inner loop streams B row-by-row, tiled so a ROW_BLOCK x N_TILE
    // panel of `out` stays cache-resident while a K_TILE x N_TILE panel of B is swept.
    par::for_each_chunk_mut(m * k * n, out.data_mut(), ROW_BLOCK * n, |start, oc| {
        let r0 = start / n;
        let rows = oc.len() / n;
        let mut jc = 0;
        while jc < n {
            let je = (jc + N_TILE).min(n);
            let mut pc = 0;
            while pc < k {
                let pe = (pc + K_TILE).min(k);
                for p in pc..pe {
                    let b_row = &b_data[p * n + jc..p * n + je];
                    for r in 0..rows {
                        let a_val = a_data[(r0 + r) * k + p];
                        if a_val == 0.0 {
                            continue;
                        }
                        let o = &mut oc[r * n + jc..r * n + je];
                        for (oo, &bb) in o.iter_mut().zip(b_row.iter()) {
                            *oo += a_val * bb;
                        }
                    }
                }
                pc = pe;
            }
            jc = je;
        }
    });
    Ok(())
}

/// Product with the second operand transposed: `A (m x k) * B^T` where `B` is `(n x k)`.
///
/// This is the shape needed for the backward pass of a linear layer
/// (`dX = dY * W^T`) without materialising the transpose.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::scratch_zeros(a.rows(), b.rows());
    matmul_bt_acc(a, b, &mut out).map_err(|e| match e {
        TensorError::ShapeMismatch { .. } => shape_err("matmul_bt", a, b),
        other => other,
    })?;
    Ok(out)
}

/// `out = A * B^T` into a caller-owned tensor of shape `(a.rows, b.rows)`.
pub fn matmul_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    out.fill(0.0);
    matmul_bt_acc(a, b, out)
}

/// `out += A * B^T` (accumulating).
pub fn matmul_bt_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    if a.cols() != b.cols() {
        return Err(shape_err("matmul_bt", a, b));
    }
    let (m, k) = a.shape();
    let n = b.rows();
    if out.shape() != (m, n) {
        return Err(out_shape_err("matmul_bt_into", out, (m, n)));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    // One task per row block; within a block, columns are walked in register-blocked
    // groups of BT_LANES with the rows inner, so a group of B rows is reused across the
    // whole block while hot. The lanes are *independent output accumulators* (one per
    // column), each summing its k products in ascending-p order — exactly the scalar
    // dot's operation order per element, so results are bit-identical to the scalar
    // kernel while the BT_LANES separate dependency chains hide FMA latency.
    par::for_each_chunk_mut(m * k * n, out.data_mut(), ROW_BLOCK * n, |start, oc| {
        let r0 = start / n;
        let rows = oc.len() / n;
        let mut c0 = 0;
        while c0 < n {
            let ce = (c0 + BT_LANES).min(n);
            if ce - c0 == BT_LANES {
                let b0 = &b.row(c0)[..k];
                let b1 = &b.row(c0 + 1)[..k];
                let b2 = &b.row(c0 + 2)[..k];
                let b3 = &b.row(c0 + 3)[..k];
                for r in 0..rows {
                    let a_row = &a.row(r0 + r)[..k];
                    let mut acc = [0.0f32; BT_LANES];
                    for p in 0..k {
                        let av = a_row[p];
                        acc[0] += av * b0[p];
                        acc[1] += av * b1[p];
                        acc[2] += av * b2[p];
                        acc[3] += av * b3[p];
                    }
                    let o = &mut oc[r * n + c0..r * n + ce];
                    for (oo, &l) in o.iter_mut().zip(acc.iter()) {
                        *oo += l;
                    }
                }
            } else {
                // Ragged tail: plain scalar dots (same per-element order).
                for r in 0..rows {
                    let a_row = &a.row(r0 + r)[..k];
                    for c in c0..ce {
                        let b_row = &b.row(c)[..k];
                        let mut acc = 0.0f32;
                        for p in 0..k {
                            acc += a_row[p] * b_row[p];
                        }
                        oc[r * n + c] += acc;
                    }
                }
            }
            c0 = ce;
        }
    });
    Ok(())
}

/// Product with the first operand transposed: `A^T * B` where `A` is `(k x m)`, `B` is `(k x n)`.
///
/// This is the shape needed for the weight gradient of a linear layer (`dW = X^T * dY`).
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::scratch_zeros(a.cols(), b.cols());
    matmul_at_acc(a, b, &mut out).map_err(|e| match e {
        TensorError::ShapeMismatch { .. } => shape_err("matmul_at", a, b),
        other => other,
    })?;
    Ok(out)
}

/// `out = A^T * B` into a caller-owned tensor of shape `(a.cols, b.cols)`.
pub fn matmul_at_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    out.fill(0.0);
    matmul_at_acc(a, b, out)
}

/// `out += A^T * B` (accumulating) — used to add `dW = X^T * dY` directly into a layer's
/// gradient tensor without a temporary.
pub fn matmul_at_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    if a.rows() != b.rows() {
        return Err(shape_err("matmul_at", a, b));
    }
    let (k, m) = a.shape();
    let n = b.cols();
    if out.shape() != (m, n) {
        return Err(out_shape_err("matmul_at_into", out, (m, n)));
    }
    if m == 0 || n == 0 {
        return Ok(());
    }
    // The k dimension is the outer loop (each step scatters a rank-1 update into the
    // whole output), so tasks own disjoint *column stripes* of `out` instead of row
    // blocks — equal-width stripes of at most COL_BLOCK columns; each stripe sweeps p
    // in ascending order.
    let width = n.div_ceil(n.div_ceil(COL_BLOCK));
    let out_ptr = par::SendPtr(out.data_mut().as_mut_ptr());
    par::for_each_range(m * k * n, n, width, |jc, je| {
        for p in 0..k {
            let a_row = a.row(p);
            let b_row = &b.row(p)[jc..je];
            for (i, &a_val) in a_row.iter().enumerate() {
                if a_val == 0.0 {
                    continue;
                }
                // SAFETY: stripes own disjoint column ranges of every output row, and
                // `for_each_range` returns only after all stripes complete.
                let o = unsafe {
                    std::slice::from_raw_parts_mut(out_ptr.get().add(i * n + jc), je - jc)
                };
                for (oo, &bb) in o.iter_mut().zip(b_row.iter()) {
                    *oo += a_val * bb;
                }
            }
        }
    });
    Ok(())
}

/// Materialised transpose.
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = a.shape();
    Tensor::from_fn(n, m, |r, c| a.get(c, r))
}

/// Elementwise sum `a + b`.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = a.clone();
    out.zip_mut_with(b, |x, y| x + y)?;
    Ok(out)
}

/// Elementwise difference `a - b`.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = a.clone();
    out.zip_mut_with(b, |x, y| x - y)?;
    Ok(out)
}

/// Elementwise (Hadamard) product `a ⊙ b`.
pub fn hadamard(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = a.clone();
    out.zip_mut_with(b, |x, y| x * y)?;
    Ok(out)
}

/// Scale every element by `s`.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// In-place AXPY: `y += alpha * x`, a gated sweep over fixed element chunks
/// ([`par::zip2_mut`]; per-element arithmetic is unchanged, so results are bit-identical
/// to the serial loop).
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<()> {
    if y.shape() != x.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "axpy",
            lhs: y.shape(),
            rhs: x.shape(),
        });
    }
    par::zip2_mut(y.data_mut(), x.data(), |yi, xi| yi + alpha * xi);
    Ok(())
}

/// Slice AXPY for the flat parameter/gradient vectors the distributed algorithms
/// exchange: `y += alpha * x`, a gated sweep over fixed chunks ([`par::zip2_mut`]).
pub fn axpy_slice(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy_slice length mismatch");
    par::zip2_mut(y, x, |yi, xi| yi + alpha * xi);
}

/// Broadcast-add a `1 x n` row vector to every row of an `m x n` tensor.
pub fn add_row_broadcast(a: &Tensor, row: &Tensor) -> Result<Tensor> {
    if row.rows() != 1 || row.cols() != a.cols() {
        return Err(shape_err("add_row_broadcast", a, row));
    }
    let mut out = a.clone();
    let r = row.data();
    for i in 0..out.rows() {
        for (o, &b) in out.row_mut(i).iter_mut().zip(r.iter()) {
            *o += b;
        }
    }
    Ok(out)
}

/// Sum over rows, producing a `1 x n` row vector (used for bias gradients).
pub fn sum_rows(a: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(1, a.cols());
    sum_rows_acc(a, &mut out).expect("freshly sized output");
    out
}

/// Accumulate the row sums of `a` into an existing `1 x a.cols()` tensor (adds the bias
/// gradient directly into a layer's gradient accumulator, no temporary).
pub fn sum_rows_acc(a: &Tensor, out: &mut Tensor) -> Result<()> {
    if out.rows() != 1 || out.cols() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "sum_rows_acc",
            lhs: out.shape(),
            rhs: (1, a.cols()),
        });
    }
    for r in 0..a.rows() {
        for (o, &x) in out.row_mut(0).iter_mut().zip(a.row(r).iter()) {
            *o += x;
        }
    }
    Ok(())
}

/// Sum of all elements.
pub fn sum(a: &Tensor) -> f32 {
    a.data().iter().sum()
}

/// Mean of all elements.
pub fn mean(a: &Tensor) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    sum(a) / a.len() as f32
}

/// Population variance of all elements.
pub fn variance(a: &Tensor) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.data().iter().map(|x| (x - m).powi(2)).sum::<f32>() / a.len() as f32
}

/// Squared L2 norm of all elements.
pub fn sq_norm(a: &Tensor) -> f32 {
    a.data().iter().map(|x| x * x).sum()
}

/// L2 norm of all elements.
pub fn norm_l2(a: &Tensor) -> f32 {
    sq_norm(a).sqrt()
}

/// Dot product of two tensors viewed as flat vectors.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32> {
    if a.len() != b.len() {
        return Err(shape_err("dot", a, b));
    }
    Ok(a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(x, y)| x * y)
        .sum())
}

/// Row-wise softmax (numerically stabilised with the row max). The result is backed by
/// the thread-local scratch arena.
pub fn softmax_rows(a: &Tensor) -> Tensor {
    let mut out = Tensor::scratch_copy(a);
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            denom += *x;
        }
        let inv = 1.0 / denom;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
    out
}

/// Index of the maximum element in each row.
pub fn argmax_rows(a: &Tensor) -> Vec<usize> {
    a.rows_iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Clip every element to `[-limit, limit]` (gradient clipping).
pub fn clip(a: &mut Tensor, limit: f32) {
    a.map_inplace(|x| x.clamp(-limit, limit));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = t(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_parallel_matches_serial_shape() {
        // Several grains of multiply-adds: goes through the pool.
        let a = Tensor::from_fn(80, 70, |r, c| ((r * 7 + c) % 5) as f32 - 2.0);
        let b = Tensor::from_fn(70, 90, |r, c| ((r + 3 * c) % 7) as f32 - 3.0);
        let c = matmul(&a, &b).unwrap();
        // Spot-check a few entries against a straightforward triple loop.
        for &(i, j) in &[(0usize, 0usize), (13, 57), (79, 89), (40, 1)] {
            let mut acc = 0.0f32;
            for p in 0..70 {
                acc += a.get(i, p) * b.get(p, j);
            }
            assert!((c.get(i, j) - acc).abs() < 1e-3, "({i},{j})");
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a = Tensor::from_fn(4, 6, |r, c| (r as f32) - (c as f32) * 0.5);
        let b = Tensor::from_fn(5, 6, |r, c| (r * c) as f32 * 0.1);
        let direct = matmul_bt(&a, &b).unwrap();
        let via_t = matmul(&a, &transpose(&b)).unwrap();
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let a = Tensor::from_fn(6, 4, |r, c| (r + c) as f32 * 0.3);
        let b = Tensor::from_fn(6, 5, |r, c| (r as f32) - (c as f32));
        let direct = matmul_at(&a, &b).unwrap();
        let via_t = matmul(&transpose(&a), &b).unwrap();
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn add_sub_hadamard_scale() {
        let a = t(1, 3, &[1., 2., 3.]);
        let b = t(1, 3, &[4., 5., 6.]);
        assert_eq!(add(&a, &b).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(sub(&b, &a).unwrap().data(), &[3., 3., 3.]);
        assert_eq!(hadamard(&a, &b).unwrap().data(), &[4., 10., 18.]);
        assert_eq!(scale(&a, 2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = t(1, 3, &[1., 1., 1.]);
        let mut y = t(1, 3, &[1., 2., 3.]);
        axpy(0.5, &x, &mut y).unwrap();
        assert_eq!(y.data(), &[1.5, 2.5, 3.5]);
    }

    #[test]
    fn broadcast_and_sum_rows() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let bias = t(1, 3, &[10., 20., 30.]);
        let c = add_row_broadcast(&a, &bias).unwrap();
        assert_eq!(c.data(), &[11., 22., 33., 14., 25., 36.]);
        assert_eq!(sum_rows(&a).data(), &[5., 7., 9.]);
    }

    #[test]
    fn reductions() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(sum(&a), 10.0);
        assert_eq!(mean(&a), 2.5);
        assert!((variance(&a) - 1.25).abs() < 1e-6);
        assert_eq!(sq_norm(&a), 30.0);
        assert!((norm_l2(&a) - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(dot(&a, &a).unwrap(), 30.0);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = t(2, 3, &[1., 2., 3., -1., 0., 1.]);
        let s = softmax_rows(&a);
        for r in 0..2 {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&x| x > 0.0));
        }
        // Larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = t(1, 3, &[1000., 1001., 1002.]);
        let s = softmax_rows(&a);
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_and_clip() {
        let a = t(2, 3, &[1., 5., 2., -3., -1., -2.]);
        assert_eq!(argmax_rows(&a), vec![1, 1]);
        let mut b = t(1, 3, &[-10., 0.5, 10.]);
        clip(&mut b, 1.0);
        assert_eq!(b.data(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let a = Tensor::from_fn(9, 11, |r, c| ((r * 5 + c) % 7) as f32 - 3.0);
        let b = Tensor::from_fn(11, 6, |r, c| ((r + 2 * c) % 5) as f32 * 0.5 - 1.0);
        let mut out = Tensor::zeros(9, 6);
        matmul_into(&a, &b, &mut out).unwrap();
        assert_eq!(out.data(), matmul(&a, &b).unwrap().data());

        let bt = Tensor::from_fn(6, 11, |r, c| (r as f32 - c as f32) * 0.3);
        let mut out_bt = Tensor::zeros(9, 6);
        matmul_bt_into(&a, &bt, &mut out_bt).unwrap();
        assert_eq!(out_bt.data(), matmul_bt(&a, &bt).unwrap().data());

        let at = Tensor::from_fn(9, 6, |r, c| ((r * 3 + c) % 4) as f32 - 1.5);
        let mut out_at = Tensor::zeros(11, 6);
        matmul_at_into(&a, &at, &mut out_at).unwrap();
        assert_eq!(out_at.data(), matmul_at(&a, &at).unwrap().data());
    }

    #[test]
    fn acc_variants_accumulate_instead_of_overwriting() {
        let a = t(2, 2, &[1., 2., 3., 4.]);
        let b = t(2, 2, &[1., 0., 0., 1.]);
        let mut out = Tensor::full(2, 2, 10.0);
        matmul_acc(&a, &b, &mut out).unwrap();
        assert_eq!(out.data(), &[11., 12., 13., 14.]);
    }

    #[test]
    fn into_variants_check_output_shape() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(3, 4);
        let mut wrong = Tensor::zeros(2, 5);
        assert!(matmul_into(&a, &b, &mut wrong).is_err());
        assert!(matmul_bt_into(&a, &Tensor::zeros(4, 3), &mut wrong).is_err());
        assert!(matmul_at_into(&Tensor::zeros(2, 3), &Tensor::zeros(2, 4), &mut wrong).is_err());
    }

    #[test]
    fn matmul_is_bit_identical_across_thread_counts() {
        // The determinism contract of the compute backend: same bytes out for 1 and 4
        // threads, for shapes on both sides of the dispatch gate (`par::GRAIN`
        // multiply-adds) and on its two edges.
        for &(m, k, n) in &[
            (3usize, 5usize, 4usize),
            (16, 64, 64), // exactly one grain: the largest inline shape
            (16, 65, 64), // one row of B past it: the smallest pooled one here
            (64, 96, 80),
            (130, 70, 33),
        ] {
            let a = Tensor::from_fn(m, k, |r, c| ((r * 31 + c * 17) % 23) as f32 * 0.17 - 1.9);
            let b = Tensor::from_fn(k, n, |r, c| ((r * 13 + c * 7) % 19) as f32 * 0.11 - 1.0);
            let one = crate::par::with_threads(1, || matmul(&a, &b).unwrap());
            let four = crate::par::with_threads(4, || matmul(&a, &b).unwrap());
            assert_eq!(one.data(), four.data(), "matmul {m}x{k}x{n}");
            let bt_b = Tensor::from_fn(n, k, |r, c| ((r + c * 3) % 11) as f32 * 0.2 - 1.1);
            let one_bt = crate::par::with_threads(1, || matmul_bt(&a, &bt_b).unwrap());
            let four_bt = crate::par::with_threads(4, || matmul_bt(&a, &bt_b).unwrap());
            assert_eq!(one_bt.data(), four_bt.data(), "matmul_bt {m}x{k}x{n}");
            let at_b = Tensor::from_fn(m, n, |r, c| ((r * 7 + c) % 13) as f32 * 0.15 - 0.9);
            let one_at = crate::par::with_threads(1, || matmul_at(&a, &at_b).unwrap());
            let four_at = crate::par::with_threads(4, || matmul_at(&a, &at_b).unwrap());
            assert_eq!(one_at.data(), four_at.data(), "matmul_at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_bt_register_blocking_is_bit_identical_to_scalar_dots() {
        // The BT_LANES register blocking must not change a single bit relative to the
        // straightforward one-dot-per-output scalar kernel, for shapes exercising full
        // lane groups, ragged tails, and both the inline and the pooled row-block paths.
        for &(m, k, n) in &[
            (1usize, 3usize, 1usize),
            (5, 17, 6),
            (8, 33, 7),   // ragged tail (7 % 4 != 0)
            (64, 96, 80), // above one grain: pooled
            (130, 70, 33),
        ] {
            let a = Tensor::from_fn(m, k, |r, c| ((r * 29 + c * 13) % 31) as f32 * 0.23 - 2.1);
            let b = Tensor::from_fn(n, k, |r, c| ((r * 11 + c * 19) % 27) as f32 * 0.19 - 1.7);
            let fast = matmul_bt(&a, &b).unwrap();
            let mut reference = Tensor::zeros(m, n);
            for r in 0..m {
                for c in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a.get(r, p) * b.get(c, p);
                    }
                    reference.set(r, c, acc);
                }
            }
            assert_eq!(fast.data(), reference.data(), "matmul_bt {m}x{k}x{n}");
        }
    }

    #[test]
    fn axpy_slice_matches_axpy() {
        let x: Vec<f32> = (0..1000).map(|i| (i % 9) as f32 * 0.3).collect();
        let mut y: Vec<f32> = (0..1000).map(|i| (i % 4) as f32).collect();
        let mut yt = Tensor::from_vec(1, 1000, y.clone()).unwrap();
        let xt = Tensor::from_vec(1, 1000, x.clone()).unwrap();
        axpy(0.25, &xt, &mut yt).unwrap();
        axpy_slice(0.25, &x, &mut y);
        assert_eq!(yt.data(), y.as_slice());
    }

    #[test]
    fn axpy_slice_is_bit_identical_for_1_vs_4_threads_around_the_grain() {
        for len in [par::GRAIN - 1, par::GRAIN, par::GRAIN + 1, 200_000] {
            let x: Vec<f32> = (0..len).map(|i| (i % 9) as f32 * 0.3 - 1.1).collect();
            let y: Vec<f32> = (0..len).map(|i| (i % 4) as f32 - 1.5).collect();
            let (mut one, mut four) = (y.clone(), y.clone());
            par::with_threads(1, || axpy_slice(0.25, &x, &mut one));
            par::with_threads(4, || axpy_slice(0.25, &x, &mut four));
            assert!(
                one == four,
                "axpy_slice differs across thread counts at {len}"
            );
            let plain: Vec<f32> = y.iter().zip(&x).map(|(yi, xi)| yi + 0.25 * xi).collect();
            assert!(
                plain == one,
                "axpy_slice differs from the plain loop at {len}"
            );
        }
    }

    #[test]
    fn sum_rows_acc_adds_to_existing() {
        let a = t(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let mut acc = Tensor::full(1, 3, 1.0);
        sum_rows_acc(&a, &mut acc).unwrap();
        assert_eq!(acc.data(), &[6., 8., 10.]);
        assert!(sum_rows_acc(&a, &mut Tensor::zeros(1, 2)).is_err());
    }
}
