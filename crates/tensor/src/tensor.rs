//! The core row-major 2-D [`Tensor`] type.

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major, 2-D matrix of `f32` values.
///
/// Vectors are represented as `1 x n` (row vector) or `n x 1` (column vector) tensors.
/// The type is intentionally small: all data lives in one contiguous `Vec<f32>` so the
/// communication substrate can treat parameters and gradients as flat byte buffers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor::full(rows, cols, 1.0)
    }

    /// Create a tensor filled with a constant `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a tensor from an existing buffer in row-major order.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Create a tensor by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`; panics if out of bounds (debug-friendly hot path).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Checked element access.
    pub fn try_get(&self, r: usize, c: usize) -> Result<f32> {
        if r >= self.rows || c >= self.cols {
            return Err(TensorError::IndexOutOfBounds {
                index: (r, c),
                shape: self.shape(),
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = value;
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copy the rows indexed by `indices` into a new tensor (gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        // Start from an empty tensor: gather_rows_into sizes and fills it, so
        // pre-zeroing a full buffer here would be a wasted memset.
        let mut out = Tensor::zeros(0, 0);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// Gather rows into a caller-owned tensor, reshaping it to `(indices.len(), cols)`
    /// and reusing its buffer — the zero-alloc per-step batch-assembly path.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &idx in indices {
            out.data.extend_from_slice(self.row(idx));
        }
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combine with another tensor of identical shape: `self[i] = f(self[i], other[i])`.
    pub fn zip_mut_with(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "zip_mut_with",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, *b);
        }
        Ok(())
    }

    /// Reshape without copying. Errors if the element count changes.
    pub fn reshape(self, rows: usize, cols: usize) -> Result<Tensor> {
        if rows * cols != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            rows,
            cols,
            data: self.data,
        })
    }

    /// Number of bytes occupied by the element buffer (used by the network cost model).
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    // --- scratch-arena integration (zero-alloc hot paths) --------------------------

    /// Create a zero-filled tensor backed by this thread's scratch arena
    /// ([`crate::scratch`]). Identical to [`Tensor::zeros`] except the buffer
    /// is recycled rather than freshly allocated when possible.
    pub fn scratch_zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: crate::scratch::take_zeroed(rows * cols),
        }
    }

    /// Arena-backed copy of `src` (a `clone` whose buffer comes from the
    /// scratch arena).
    pub fn scratch_copy(src: &Tensor) -> Self {
        let mut t = Tensor::scratch_zeros(src.rows, src.cols);
        t.data.copy_from_slice(&src.data);
        t
    }

    /// Return this tensor's buffer to the scratch arena.
    pub fn recycle(self) {
        crate::scratch::recycle(self.data);
    }

    /// Cache a copy of `self` in `slot`, reusing the slot's existing buffer
    /// when the shape matches (the per-step layer-cache path allocates nothing
    /// in steady state).
    pub fn clone_into_slot(&self, slot: &mut Option<Tensor>) {
        match slot {
            Some(t) if t.shape() == self.shape() => t.data.copy_from_slice(&self.data),
            _ => *slot = Some(self.clone()),
        }
    }

    /// Set every element to `value` (memset-style, faster than `map_inplace`).
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(2, 3);
        t.set(1, 2, 7.5);
        assert_eq!(t.get(1, 2), 7.5);
        assert_eq!(t.try_get(1, 2), Ok(7.5));
        assert!(t.try_get(2, 0).is_err());
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(t.row(1), &[2.0, 3.0]);
        assert_eq!(t.rows_iter().count(), 3);
    }

    #[test]
    fn gather_rows_copies_selected() {
        let t = Tensor::from_fn(4, 2, |r, _| r as f32);
        let g = t.gather_rows(&[3, 1]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::full(2, 2, 2.0);
        let b = a.map(|x| x * x);
        assert!(b.data().iter().all(|&x| x == 4.0));
        let mut c = a.clone();
        c.zip_mut_with(&b, |x, y| x + y).unwrap();
        assert!(c.data().iter().all(|&x| x == 6.0));
        assert!(c.zip_mut_with(&Tensor::zeros(3, 3), |x, _| x).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let r = t.clone().reshape(3, 2).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(4, 2).is_err());
    }

    #[test]
    fn nbytes_counts_f32() {
        assert_eq!(Tensor::zeros(2, 5).nbytes(), 40);
    }
}
