//! Row-major dense matrix type.

use crate::epilogue::Epilogue;
use crate::gemm;
use crate::kstats;
use crate::pool;
use crate::simd;
use crate::workspace;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Elementwise ops on fewer elements than this stay serial (memory-bound
/// work only benefits from the pool on large buffers).
const ELEMWISE_PAR_THRESHOLD: usize = 1 << 17;
/// Elements per parallel chunk for elementwise traversals. A fixed chunk
/// size (rather than one derived from the thread count) keeps chunk
/// boundaries — and therefore any per-chunk accumulation order — identical
/// for every `SKIPNODE_THREADS` value.
const ELEMWISE_CHUNK: usize = 1 << 15;

/// A dense, row-major `f32` matrix.
///
/// Rows correspond to graph nodes throughout this workspace. The type is
/// deliberately simple — a `Vec<f32>` plus a shape — so it is cheap to move
/// through the autodiff tape and easy to reason about.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from an owned buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Build from row slices (test/demo helper).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Column vector from a slice.
    pub fn column(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dense matrix product `self * rhs`, threaded for large shapes.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = workspace::take_scratch(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// `self * rhs` written into a caller-provided (possibly recycled)
    /// buffer; prior contents of `out` are ignored.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_into out shape");
        gemm::gemm(self, rhs, out);
    }

    /// `ep(self * rhs)` into a caller-provided buffer: the product with the
    /// bias and ReLU of `ep` applied to each tile as it is stored, bit for
    /// bit [`Matrix::matmul_into`] followed by
    /// [`crate::add_bias_in_place`] and [`crate::relu_in_place`]. Prior
    /// contents of `out` are ignored.
    ///
    /// # Panics
    /// Panics on an inner-dimension or output-shape mismatch, or a bias
    /// shorter than `rhs.cols()`.
    pub fn matmul_with_into(&self, rhs: &Matrix, ep: Epilogue<'_>, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_into out shape");
        gemm::gemm_with(self, rhs, ep, out);
    }

    /// `selfᵀ * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = workspace::take_scratch(self.cols, rhs.cols);
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// `selfᵀ * rhs` into a caller-provided buffer; prior contents ignored.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, rhs.cols),
            "t_matmul_into out shape"
        );
        gemm::gemm_at_b(self, rhs, out);
    }

    /// `self * rhsᵀ` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = workspace::take_scratch(self.rows, rhs.rows);
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// `self * rhsᵀ` into a caller-provided buffer; prior contents ignored.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.rows),
            "matmul_t_into out shape"
        );
        gemm::gemm_a_bt(self, rhs, out);
    }

    /// Materialized transpose (cache-blocked).
    pub fn transpose(&self) -> Matrix {
        const BLK: usize = 32;
        let mut out = workspace::take_scratch(self.cols, self.rows);
        for rb in (0..self.rows).step_by(BLK) {
            for cb in (0..self.cols).step_by(BLK) {
                let ce = (cb + BLK).min(self.cols);
                for r in rb..(rb + BLK).min(self.rows) {
                    let src = &self.row(r)[cb..ce];
                    for (c, &v) in src.iter().enumerate() {
                        out.data[(cb + c) * self.rows + r] = v;
                    }
                }
            }
        }
        out
    }

    /// Elementwise map into a fresh (possibly recycled) matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = workspace::take_copy(self);
        out.map_in_place(f);
        out
    }

    /// Elementwise map in place, pooled for large buffers.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        if self.data.len() < ELEMWISE_PAR_THRESHOLD {
            for x in &mut self.data {
                *x = f(*x);
            }
        } else {
            pool::par_chunks_mut(&mut self.data, ELEMWISE_CHUNK, |_, chunk| {
                for x in chunk {
                    *x = f(*x);
                }
            });
        }
    }

    /// Elementwise combine with another matrix of the same shape.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        let mut out = workspace::take_copy(self);
        let rhs = other.as_slice();
        if out.data.len() < ELEMWISE_PAR_THRESHOLD {
            for (a, &b) in out.data.iter_mut().zip(rhs) {
                *a = f(*a, b);
            }
        } else {
            pool::par_chunks_mut(&mut out.data, ELEMWISE_CHUNK, |idx, chunk| {
                let off = idx * ELEMWISE_CHUNK;
                let len = chunk.len();
                for (a, &b) in chunk.iter_mut().zip(&rhs[off..off + len]) {
                    *a = f(*a, b);
                }
            });
        }
        out
    }

    /// `self += alpha * other`, pooled for large buffers. The SIMD lanes
    /// use separate mul/add, so every ISA produces the scalar loop's bits.
    pub fn add_scaled(&mut self, other: &Matrix, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        kstats::record(kstats::Kernel::Elemwise, self.data.len());
        let isa = simd::active();
        let rhs = other.as_slice();
        if self.data.len() < ELEMWISE_PAR_THRESHOLD {
            simd::add_scaled(isa, &mut self.data, rhs, alpha);
        } else {
            pool::par_chunks_mut(&mut self.data, ELEMWISE_CHUNK, |idx, chunk| {
                let off = idx * ELEMWISE_CHUNK;
                let len = chunk.len();
                simd::add_scaled(isa, chunk, &rhs[off..off + len], alpha);
            });
        }
    }

    /// Multiply all elements by a scalar, in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        self.map_in_place(|x| x * alpha);
    }

    /// ReLU into a fresh matrix.
    pub fn relu(&self) -> Matrix {
        let mut out = workspace::take_copy(self);
        out.relu_in_place();
        out
    }

    /// In-place ReLU with a dedicated SIMD path, bit-identical to
    /// [`crate::relu_in_place`] (see [`crate::simd::relu`]).
    pub fn relu_in_place(&mut self) {
        kstats::record(kstats::Kernel::Elemwise, self.data.len());
        let isa = simd::active();
        if self.data.len() < ELEMWISE_PAR_THRESHOLD {
            simd::relu(isa, &mut self.data);
        } else {
            pool::par_chunks_mut(&mut self.data, ELEMWISE_CHUNK, |_, chunk| {
                simd::relu(isa, chunk);
            });
        }
    }

    /// Sum of all elements (f64 accumulation).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Per-column mean as a `1 x cols` matrix.
    pub fn col_mean(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        let mut acc = vec![0.0f64; self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                acc[c] += v as f64;
            }
        }
        for (c, a) in acc.iter().enumerate() {
            out.set(0, c, (*a / self.rows as f64) as f32);
        }
        out
    }

    /// Extract the listed rows into a fresh matrix (order preserved).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Horizontal concatenation of matrices with `out`'s row count into
    /// `out`, overwriting every element (so `out` may hold stale contents,
    /// e.g. a `workspace::take_scratch` buffer).
    pub fn hcat_into(parts: &[&Matrix], out: &mut Matrix) {
        let rows = out.rows;
        for p in parts {
            assert_eq!(p.rows, rows, "hcat row mismatch");
        }
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        assert_eq!(cols, out.cols, "hcat column mismatch");
        for r in 0..rows {
            let mut off = 0;
            let dst = out.row_mut(r);
            for p in parts {
                dst[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f32) -> Matrix {
        self.map(|x| x * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[0.5], &[-1.0]]);
        let direct = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(direct, explicit);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 1.0]]);
        let direct = a.matmul_t(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(direct, explicit);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.5]]);
        assert_eq!(a.relu(), Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn select_rows_preserves_order() {
        let a = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s, Matrix::from_rows(&[&[3.0], &[1.0]]));
    }

    #[test]
    fn hcat_concatenates_columns() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let mut c = Matrix::zeros(2, 3);
        Matrix::hcat_into(&[&a, &b], &mut c);
        assert_eq!(c, Matrix::from_rows(&[&[1.0, 3.0, 4.0], &[2.0, 5.0, 6.0]]));
    }

    #[test]
    fn col_mean_averages_rows() {
        let a = Matrix::from_rows(&[&[1.0, 4.0], &[3.0, 0.0]]);
        let m = a.col_mean();
        assert_eq!(m, Matrix::from_rows(&[&[2.0, 2.0]]));
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, -2.0]]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 0.0]]));
    }

    #[test]
    fn sum_and_mean() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn operators_work() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }
}
