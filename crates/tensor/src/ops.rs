//! Linear-algebra and elementwise operations on [`Tensor`].
//!
//! Matrix products are the compute hot path of the neural-network substrate. All three
//! matmul variants run one register-tiled micro-kernel ([`tile`]) and go through the
//! dispatch gate ([`crate::par::for_each_range`]) with their multiply-add count, so they
//! reach the shared worker pool only when the arithmetic can amortise the dispatch. Two
//! invariants hold for every kernel here:
//!
//! 1. **Order preservation**: each output element accumulates its `k` products in
//!    ascending-`p` order, one multiply and one add per product (never fused), exactly
//!    like the straightforward triple loop, regardless of tiling, vector width or thread
//!    count — results are bit-identical to that loop.
//! 2. **Disjoint writes**: parallel tasks own disjoint row blocks of the output; no
//!    reduction races, so thread count never changes the bytes.
//!
//! The `_into`/`_acc` variants write into caller-owned buffers so steady-state training
//! allocates nothing per step (see [`crate::scratch`]). Full-precision reductions
//! (`sum`, `dot`, …) stay serial on purpose: parallel partial sums would change the
//! floating-point reduction order.

use crate::{par, scratch, Result, Tensor, TensorError};

/// Rows of the micro-kernel's register tile, and of `out` per pool task.
const MR: usize = 4;

/// One product `out (m x n) += a (m x k) * b (k x n)`, with `b` and `out` row-major and
/// the left operand a view with leading dimension `lda`: `a(r, p) = a[r * lda + p]`, or,
/// when `T`, a matrix read as its own transpose, `a(r, p) = a[p * lda + r]` — a tile's
/// rows are then contiguous, so [`matmul_at_acc`] needs no packing.
#[derive(Clone, Copy)]
struct Gemm<'a, const T: bool> {
    a: &'a [f32],
    lda: usize,
    b: &'a [f32],
    k: usize,
    n: usize,
}

/// The micro-kernel, the only accumulation loop nest behind the three matmuls:
/// `out[r][c] += sum_p a(r, p) * b(p, c)` over the `H x W` tile at row `r`, column `c`.
///
/// The tile is loaded from `out` once, sweeps `p` upwards with a separate multiply and add
/// per element, and is stored once, so every element sees the operations of
/// `for p { out[r][c] += a(r, p) * b(p, c) }` in that order. The lanes of a tile are
/// independent output elements: how many of them one instruction covers (the `W` the
/// caller picks, and whatever vector width the compiler maps it to) cannot change a bit.
/// There is no data-dependent branch, so non-finite operands propagate as in that loop.
///
/// Bytes differ from the three loop nests this kernel replaced on two inputs only, which
/// no finite training run contains: those loops skipped a left operand of exactly `0.0`
/// in `matmul` and `matmul_at`, which dropped `0 x inf` and `0 x NaN` (now `NaN`, as in
/// `matmul_bt` all along), and left an accumulator holding `-0.0` untouched where
/// `-0.0 + 0.0` is `+0.0` — a state a sum started from `+0.0` never reaches.
#[inline(always)]
fn tile<const H: usize, const W: usize, const T: bool>(
    g: &Gemm<T>,
    out: &mut [f32],
    r: usize,
    c: usize,
) {
    let (k, n) = (g.k, g.n);
    let mut acc = [[0.0f32; W]; H];
    for (i, row) in acc.iter_mut().enumerate() {
        *row = *out[(r + i) * n + c..]
            .first_chunk()
            .expect("tile lies inside out");
    }
    // Sliced once per tile so the sweep below checks one length per operand row, and
    // indexed rather than iterated: the accumulators stay in registers that way.
    let b_cols = &g.b[c..];
    let a_cols = if T { &g.a[r..] } else { &[][..] };
    let a_rows: [&[f32]; H] = std::array::from_fn(|i| {
        if T {
            &[][..]
        } else {
            &g.a[(r + i) * g.lda..][..k]
        }
    });
    for p in 0..k {
        let b_row: &[f32; W] = b_cols[p * n..].first_chunk().expect("tile lies inside b");
        let a_col: [f32; H] = if T {
            *a_cols[p * g.lda..]
                .first_chunk()
                .expect("tile lies inside a")
        } else {
            std::array::from_fn(|i| a_rows[i][p])
        };
        for (i, row) in acc.iter_mut().enumerate() {
            let a_val = a_col[i];
            for (o, &b_val) in row.iter_mut().zip(b_row) {
                *o += a_val * b_val;
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        out[(r + i) * n + c..][..W].copy_from_slice(row);
    }
}

/// All row tiles of one `W`-wide column panel of `out` (`rows` rows): the panel of `b`
/// stays hot while the rows of `a` stream past it. Row remainder at halving heights.
#[inline(always)]
fn panel<const W: usize, const T: bool>(g: &Gemm<T>, out: &mut [f32], rows: usize, c: usize) {
    let mut r = 0;
    while r + MR <= rows {
        tile::<MR, W, T>(g, out, r, c);
        r += MR;
    }
    if rows - r >= 2 {
        tile::<2, W, T>(g, out, r, c);
        r += 2;
    }
    if rows - r >= 1 {
        tile::<1, W, T>(g, out, r, c);
    }
}

/// The product into `out` (as many rows as `out` holds), tile by tile: `NR`-wide column
/// panels, then the column remainder at halving widths. `NR` is what an instantiation
/// chooses.
#[inline(always)]
fn row_block<const NR: usize, const T: bool>(g: &Gemm<T>, out: &mut [f32]) {
    let n = g.n;
    let rows = out.len() / n;
    let mut c = 0;
    while c + NR <= n {
        panel::<NR, T>(g, out, rows, c);
        c += NR;
    }
    if NR > 16 && n - c >= 16 {
        panel::<16, T>(g, out, rows, c);
        c += 16;
    }
    if NR > 8 && n - c >= 8 {
        panel::<8, T>(g, out, rows, c);
        c += 8;
    }
    if n - c >= 4 {
        panel::<4, T>(g, out, rows, c);
        c += 4;
    }
    if n - c >= 2 {
        panel::<2, T>(g, out, rows, c);
        c += 2;
    }
    if n - c >= 1 {
        panel::<1, T>(g, out, rows, c);
    }
}

/// Tile width of the baseline instantiation: two 128-bit vectors per accumulator row,
/// the only instantiation off x86 and on x86 without AVX2.
const NR_BASELINE: usize = 8;

/// The same [`row_block`] body at twice the baseline width, compiled for 256-bit lanes.
/// It enables `avx2` and nothing else: a product is one multiply and one add, never fused.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn row_block_avx2<const T: bool>(g: &Gemm<T>, out: &mut [f32]) {
    row_block::<16, T>(g, out)
}

/// The same [`row_block`] body at four times the baseline width, compiled for 512-bit
/// lanes: 4 x 32 tiles, then a 16-wide column remainder. LLVM's `avx512f` implies its
/// `fma` feature, but rustc never contracts `a * b + c` into a fused multiply-add, so a
/// product is still one multiply and one add.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn row_block_avx512<const T: bool>(g: &Gemm<T>, out: &mut [f32]) {
    row_block::<32, T>(g, out)
}

/// Whether [`row_block_avx2`] may run on this host (the standard library caches the
/// answer; this is one relaxed load).
fn has_avx2() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
}

/// Whether [`row_block_avx512`] may run on this host (cached like [`has_avx2`]).
fn has_avx512() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    false
}

/// Which instantiation of the micro-kernel the matmuls run on this host: `"avx512"`,
/// `"avx2"` or `"baseline"`, the widest the host supports. Speed only — the bytes are
/// the same.
pub fn kernel_isa() -> &'static str {
    if has_avx512() {
        "avx512"
    } else if has_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

impl<const T: bool> Gemm<'_, T> {
    /// The same product from output row `r0` on.
    fn rows_from(self, r0: usize) -> Self {
        let first = if T { r0 } else { r0 * self.lda };
        Gemm {
            a: &self.a[first..],
            ..self
        }
    }
}

/// `out += a * b` through the dispatch gate: tasks own disjoint `MR`-row blocks of `out`.
fn gemm_acc<const T: bool>(g: Gemm<T>, out: &mut [f32]) {
    let n = g.n;
    par::for_each_chunk_mut(out.len() * g.k, out, MR * n, |start, rows| {
        let g = g.rows_from(start / n);
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if has_avx512() {
                // SAFETY: AVX-512F was just detected on this host.
                return unsafe { row_block_avx512(&g, rows) };
            }
            if has_avx2() {
                // SAFETY: AVX2 was just detected on this host.
                return unsafe { row_block_avx2(&g, rows) };
            }
        }
        row_block::<NR_BASELINE, T>(&g, rows)
    });
}

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
    matmul_slices_acc(a.data(), b.data(), out.data_mut(), (m, k, n));
    Ok(())
}

/// [`matmul_acc`] over row-major slices of `(m, k, n)`: `out (m x n) += a (m x k) *
/// b (k x n)`, for operands that live inside a larger buffer (a layer's weights in its
/// network's flat parameter vector). Panics when a length does not match its shape.
pub fn matmul_slices_acc(a: &[f32], b: &[f32], out: &mut [f32], (m, k, n): (usize, usize, usize)) {
    assert!(
        a.len() == m * k && b.len() == k * n && out.len() == m * n,
        "matmul slices"
    );
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    gemm_acc(Gemm::<false> { a, lda: k, b, k, n }, out);
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
    matmul_bt_slices_acc(a.data(), b.data(), out.data_mut(), (m, k, n));
    Ok(())
}

/// [`matmul_bt_acc`] over row-major slices of `(m, k, n)`: `out (m x n) += a (m x k) *
/// b^T` where `b` is `(n x k)`. Panics when a length does not match its shape.
pub fn matmul_bt_slices_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    assert!(
        a.len() == m * k && b.len() == n * k && out.len() == m * n,
        "matmul_bt slices"
    );
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // As `out^T = B * A^T`: the kernel wants its right operand row-major, and `A^T` is the
    // smaller pack (`m * k` elements against `B^T`'s `n * k`). Accumulated from zero into
    // `out_t` and added to `out` afterwards, so each element is `out + (sum from 0.0)`:
    // what this kernel has always computed. Both buffers are arena-recycled.
    let mut a_t = scratch::take_zeroed(m * k);
    for (r, a_row) in a.chunks_exact(k).enumerate() {
        for (p, &v) in a_row.iter().enumerate() {
            a_t[p * m + r] = v;
        }
    }
    let mut out_t = scratch::take_zeroed(n * m);
    let g = Gemm::<false> {
        a: b,
        lda: k,
        b: &a_t,
        k,
        n: m,
    };
    gemm_acc(g, &mut out_t);
    for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
        for (c, o) in out_row.iter_mut().enumerate() {
            *o += out_t[c * m + r];
        }
    }
    scratch::recycle(a_t);
    scratch::recycle(out_t);
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
    matmul_at_slices_acc(a.data(), b.data(), out.data_mut(), (m, k, n));
    Ok(())
}

/// [`matmul_at_acc`] over row-major slices of `(m, k, n)`: `out (m x n) += a^T * b`
/// where `a` is `(k x m)` and `b` is `(k x n)`. Panics when a length does not match
/// its shape.
pub fn matmul_at_slices_acc(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    assert!(
        a.len() == k * m && b.len() == k * n && out.len() == m * n,
        "matmul_at slices"
    );
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    // `a(r, p) = A[p][r]`: the tile's rows are contiguous in `A`'s row `p`.
    gemm_acc(Gemm::<true> { a, lda: m, b, k, n }, out);
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
        assert_eq!(
            16 * 128 * 128,
            par::GRAIN,
            "the edge shapes below left the grain"
        );
        for &(m, k, n) in &[
            (3usize, 5usize, 4usize),
            (16, 128, 128), // exactly one grain: the largest inline shape
            (16, 129, 128), // one row of B past it: the smallest pooled one here
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

    /// Integer-derived operand whose products and partial sums all round, so a changed
    /// summation order or a fused multiply-add changes bytes; about 30 % exact zeros
    /// when `zeros`.
    fn lattice(rows: usize, cols: usize, salt: usize, zeros: bool) -> Tensor {
        Tensor::from_fn(rows, cols, |r, c| {
            let h = (r * 131 + c * 71 + salt * 29) % 97;
            if zeros && h % 10 < 3 {
                0.0
            } else {
                (h % 65) as f32 * 0.173 - 5.3
            }
        })
    }

    /// FNV-1a over the little-endian bit patterns: a digest of bytes, not of values.
    fn digest(h: u64, data: &[f32]) -> u64 {
        data.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3))
    }

    /// Digest of one kernel's `_into` output followed by its `_acc` output onto a
    /// non-zero `out`.
    fn into_then_acc_digest(
        into: impl Fn(&mut Tensor),
        acc: impl Fn(&mut Tensor),
        rows: usize,
        cols: usize,
    ) -> u64 {
        let mut out = Tensor::full(rows, cols, f32::NAN);
        into(&mut out);
        let h = digest(0xCBF2_9CE4_8422_2325, out.data());
        let mut out = lattice(rows, cols, 9, false);
        acc(&mut out);
        digest(h, out.data())
    }

    /// The reference loops the module doc names: `out[r][c] += a(r, p) * b(p, c)` in
    /// ascending `p`, onto `out` itself — or, `from_zero`, onto `0.0` with the sum added to
    /// `out` afterwards, which is `matmul_bt`'s form.
    fn reference_acc(
        out: &mut Tensor,
        k: usize,
        from_zero: bool,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) {
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let mut acc = if from_zero { 0.0 } else { out.get(r, c) };
                for p in 0..k {
                    acc += a(r, p) * b(p, c);
                }
                let sum = if from_zero { out.get(r, c) + acc } else { acc };
                out.set(r, c, sum);
            }
        }
    }

    /// All three `_acc` kernels onto a non-zero `out` for a linear layer of shape
    /// `(batch m, in k, out n)`, each next to its reference loop:
    /// `[(kernel, reference); 3]` for `X·W`, `dY·Wᵀ`, `Xᵀ·dY`.
    fn kernels_and_references(x: &Tensor, w: &Tensor, dy: &Tensor) -> [(Tensor, Tensor); 3] {
        let (m, k) = x.shape();
        let n = w.cols();
        let start = |rows, cols| lattice(rows, cols, 9, false);

        let (mut y, mut y_ref) = (start(m, n), start(m, n));
        matmul_acc(x, w, &mut y).unwrap();
        reference_acc(&mut y_ref, k, false, |r, p| x.get(r, p), |p, c| w.get(p, c));

        let (mut dx, mut dx_ref) = (start(m, k), start(m, k));
        matmul_bt_acc(dy, w, &mut dx).unwrap();
        reference_acc(
            &mut dx_ref,
            n,
            true,
            |r, p| dy.get(r, p),
            |p, c| w.get(c, p),
        );

        let (mut dw, mut dw_ref) = (start(k, n), start(k, n));
        matmul_at_acc(x, dy, &mut dw).unwrap();
        reference_acc(
            &mut dw_ref,
            m,
            false,
            |r, p| x.get(p, r),
            |p, c| dy.get(p, c),
        );

        [(y, y_ref), (dx, dx_ref), (dw, dw_ref)]
    }

    #[test]
    fn every_tile_edge_of_every_instantiation_matches_the_reference_loops() {
        if !has_avx512() {
            println!("AVX-512F not detected: the avx512 instantiation is not compared");
        }
        if !has_avx2() {
            println!("AVX2 not detected: the avx2 instantiation is not compared");
        }
        // Every row and column remainder of the three tile shapes (4 x 8, 4 x 16 and
        // 4 x 32): n runs past two full 32-wide panels, through every 16/8/4/2/1 tail.
        for m in 1..=2 * MR + 1 {
            for k in [1, 2, 7, 33] {
                for n in 1..=2 * 32 + 1 {
                    let x = lattice(m, k, 1, true);
                    let w = lattice(k, n, 2, false);
                    let dy = lattice(m, n, 3, true);
                    let run = || kernels_and_references(&x, &w, &dy);
                    let serial = par::with_threads(1, run);
                    let pooled = par::with_threads(4, run);
                    for (kernel, ((one, want), (four, _))) in ["matmul", "matmul_bt", "matmul_at"]
                        .iter()
                        .zip(serial.iter().zip(&pooled))
                    {
                        assert!(one.data() == want.data(), "{kernel} {m}x{k}x{n}, 1 thread");
                        assert!(
                            four.data() == want.data(),
                            "{kernel} {m}x{k}x{n}, 4 threads"
                        );
                    }
                    // Each instantiation the host can run, called directly, in both
                    // operand layouts (`X·W` reads its left operand row-major, `Xᵀ·dY`
                    // transposed).
                    let [(_, y_ref), _, (_, dw_ref)] = serial;
                    let row_major = Gemm::<false> {
                        a: x.data(),
                        lda: k,
                        b: w.data(),
                        k,
                        n,
                    };
                    let transposed = Gemm::<true> {
                        a: x.data(),
                        lda: k,
                        b: dy.data(),
                        k: m,
                        n,
                    };
                    let check =
                        |isa: &str, by_rows: &dyn Fn(&mut [f32]), by_cols: &dyn Fn(&mut [f32])| {
                            let mut y = lattice(m, n, 9, false);
                            by_rows(y.data_mut());
                            assert!(y.data() == y_ref.data(), "{isa} {m}x{k}x{n}");
                            let mut dw = lattice(k, n, 9, false);
                            by_cols(dw.data_mut());
                            assert!(dw.data() == dw_ref.data(), "{isa}, transposed {m}x{k}x{n}");
                        };
                    check(
                        "baseline",
                        &|y| row_block::<NR_BASELINE, false>(&row_major, y),
                        &|dw| row_block::<NR_BASELINE, true>(&transposed, dw),
                    );
                    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                    {
                        if has_avx2() {
                            check(
                                "avx2",
                                // SAFETY: AVX2 was just detected on this host.
                                &|y| unsafe { row_block_avx2(&row_major, y) },
                                // SAFETY: as above.
                                &|dw| unsafe { row_block_avx2(&transposed, dw) },
                            );
                        }
                        if has_avx512() {
                            check(
                                "avx512",
                                // SAFETY: AVX-512F was just detected on this host.
                                &|y| unsafe { row_block_avx512(&row_major, y) },
                                // SAFETY: as above.
                                &|dw| unsafe { row_block_avx512(&transposed, dw) },
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_activation_does_not_hide_a_non_finite_weight() {
        // Half the left operand is exactly 0.0 (a post-ReLU input); the right operand
        // holds +inf, -inf and NaN. `0 x inf` is NaN in the reference loop, so it must be
        // NaN in all three kernels: a diverged replica may not report finite numbers.
        let poison = |t: &mut Tensor, salt: usize| {
            let cols = t.cols();
            for (i, v) in t.data_mut().iter_mut().enumerate() {
                match (i / cols * 7 + i % cols * 3 + salt) % 11 {
                    0 => *v = f32::INFINITY,
                    1 => *v = f32::NEG_INFINITY,
                    2 => *v = f32::NAN,
                    _ => {}
                }
            }
        };
        let relu = |t: &Tensor| t.map(|v| v.max(0.0));
        for (m, k, n) in [(16, 64, 64), (5, 17, 6), (9, 33, 33)] {
            let x = relu(&lattice(m, k, 1, false));
            let mut w = lattice(k, n, 2, false);
            poison(&mut w, 0);
            let mut dy = lattice(m, n, 3, false);
            poison(&mut dy, 5);
            // `dX = dY·Wᵀ` takes the zeros on its left too.
            let dy_left = relu(&lattice(m, n, 4, false));
            let [y, _, dw] = kernels_and_references(&x, &w, &dy);
            let [_, dx, _] = kernels_and_references(&x, &w, &dy_left);
            for (kernel, (got, want)) in
                ["matmul", "matmul_bt", "matmul_at"].iter().zip([y, dx, dw])
            {
                assert!(
                    want.data().iter().any(|v| v.is_nan()),
                    "{kernel} {m}x{k}x{n}: the reference saw no NaN"
                );
                // Which NaN comes out of `NaN + NaN` is the one thing IEEE 754 leaves
                // open, so NaNs compare as a class and everything else by its bits.
                let same =
                    |(g, w): (&f32, &f32)| (g.is_nan() && w.is_nan()) || g.to_bits() == w.to_bits();
                assert!(
                    got.data().iter().zip(want.data()).all(same),
                    "{kernel} {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn kernel_bytes_are_pinned_across_commits() {
        // (batch, in, out) of a linear layer: forward `X·W`, `dX = dY·Wᵀ`, `dW = Xᵀ·dY`.
        // Pure IEEE multiply and add, so the digests hold on every platform; they were
        // recorded at the commit before the register-tiled micro-kernel replaced the
        // three hand-written loop nests.
        const GOLDEN: [(usize, usize, usize, [u64; 3]); 10] = [
            (
                16,
                32,
                64,
                [
                    0x97BF_2718_BBC4_DF6A,
                    0xD324_D69E_B136_7603,
                    0xC70B_93C3_BD8B_A4FF,
                ],
            ),
            (
                16,
                64,
                64,
                [
                    0xE101_B66C_B349_2237,
                    0x37F4_BE15_F781_844C,
                    0x4CF1_1122_4E0D_9154,
                ],
            ),
            (
                16,
                64,
                10,
                [
                    0xCDB3_E08F_D236_20C3,
                    0x41EA_F3A7_21B9_151E,
                    0x7619_78FB_EEA4_3659,
                ],
            ),
            (
                16,
                128,
                128,
                [
                    0xFC61_D614_D8BB_9BD5,
                    0xABFA_45EA_24EE_8566,
                    0x3008_677B_C8BC_FCC1,
                ],
            ),
            (
                16,
                128,
                100,
                [
                    0xD37C_4305_4E31_0AF3,
                    0x68CA_5765_FD2E_615C,
                    0xAE40_E9EE_F80E_B027,
                ],
            ),
            (
                256,
                64,
                64,
                [
                    0x8795_FFE1_41B9_AA33,
                    0x7C86_8C4C_5F75_AD96,
                    0xDED1_610B_2160_E141,
                ],
            ),
            (
                5,
                17,
                6,
                [
                    0xEA6F_EE4C_4049_0A23,
                    0xAE79_5A7C_C7D2_D042,
                    0xFFBD_ED48_A858_733B,
                ],
            ),
            (
                8,
                33,
                7,
                [
                    0x6CAC_2324_5C36_05D3,
                    0xB328_BA4D_5104_85B4,
                    0x775A_7DDC_C607_249C,
                ],
            ),
            (
                130,
                70,
                33,
                [
                    0x05B2_0E5F_45BA_9449,
                    0x947F_A0E4_BC5E_F3F3,
                    0xBC2F_8809_3786_1A07,
                ],
            ),
            (
                1,
                3,
                1,
                [
                    0xF1A0_C8D1_D6F3_F746,
                    0x5F90_7B1D_3813_35A3,
                    0xD7B3_CAB2_CDA7_9557,
                ],
            ),
        ];
        for (m, k, n, want) in GOLDEN {
            let x = lattice(m, k, 1, true);
            let w = lattice(k, n, 2, false);
            let dy = lattice(m, n, 3, true);
            let got = [
                into_then_acc_digest(
                    |o| matmul_into(&x, &w, o).unwrap(),
                    |o| matmul_acc(&x, &w, o).unwrap(),
                    m,
                    n,
                ),
                into_then_acc_digest(
                    |o| matmul_bt_into(&dy, &w, o).unwrap(),
                    |o| matmul_bt_acc(&dy, &w, o).unwrap(),
                    m,
                    k,
                ),
                into_then_acc_digest(
                    |o| matmul_at_into(&x, &dy, o).unwrap(),
                    |o| matmul_at_acc(&x, &dy, o).unwrap(),
                    k,
                    n,
                ),
            ];
            assert_eq!(
                got, want,
                "{m}x{k}x{n} [matmul, matmul_bt, matmul_at]: {got:#018x?}"
            );
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
        for len in [par::GRAIN - 1, par::GRAIN, par::GRAIN + 1, 3 * par::GRAIN] {
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
