//! Reductions and normalizations used by losses, metrics, and PairNorm.

use crate::kstats;
use crate::matrix::Matrix;
use crate::pool;
use crate::simd;

/// Elements below which reductions stay serial.
const REDUCE_PAR_THRESHOLD: usize = 1 << 17;
/// Fixed per-chunk element count: chunk boundaries (and thus the partial-sum
/// association order) do not depend on the thread count, keeping reductions
/// bit-stable under any `SKIPNODE_THREADS`.
const REDUCE_CHUNK: usize = 1 << 15;

/// Squared Frobenius norm with f64 accumulation, pooled for large matrices.
/// Chunk boundaries are fixed, so the result is thread-count invariant; the
/// SIMD chunk kernel folds f64 lanes in a fixed order (deterministic per
/// ISA, tolerance-class versus scalar).
pub fn l2_norm_sq(m: &Matrix) -> f64 {
    let data = m.as_slice();
    kstats::record(kstats::Kernel::Reduce, data.len());
    let isa = simd::active();
    let chunk_sum = move |c: &[f32]| -> f64 { simd::sum_sq_f64(isa, c) };
    if data.len() < REDUCE_PAR_THRESHOLD {
        return chunk_sum(data);
    }
    let chunks = data.len().div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f64; chunks];
    pool::par_chunks_mut(&mut partials, 1, |idx, slot| {
        let start = idx * REDUCE_CHUNK;
        let end = (start + REDUCE_CHUNK).min(data.len());
        slot[0] = chunk_sum(&data[start..end]);
    });
    partials.iter().sum()
}

/// Frobenius norm.
pub fn frobenius_norm(m: &Matrix) -> f64 {
    l2_norm_sq(m).sqrt()
}

/// In-place, numerically stable softmax of one row: the per-row code of
/// [`row_softmax_in_place`].
pub fn softmax_row_in_place(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0f64;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v as f64;
    }
    let inv = (1.0 / sum) as f32;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

/// In-place, numerically stable row-wise softmax, pooled over row blocks
/// for large matrices.
pub fn row_softmax_in_place(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    let softmax_rows = |rows: &mut [f32]| rows.chunks_mut(cols).for_each(softmax_row_in_place);
    if m.len() < REDUCE_PAR_THRESHOLD {
        softmax_rows(m.as_mut_slice());
        return;
    }
    let rows_per_chunk = REDUCE_CHUNK.div_ceil(cols);
    pool::par_chunks_mut(m.as_mut_slice(), rows_per_chunk * cols, |_, block| {
        softmax_rows(block);
    });
}

/// Cosine distance `1 - cos(a, b)` between two rows of (possibly different)
/// matrices. Zero vectors are defined to have distance 0 from anything —
/// this matches the MAD metric's treatment of fully-smoothed (all-zero)
/// features as "indistinguishable".
pub fn cosine_distance_rows(a: &Matrix, ra: usize, b: &Matrix, rb: usize) -> f64 {
    let x = a.row(ra);
    let y = b.row(rb);
    debug_assert_eq!(x.len(), y.len());
    let mut dot = 0.0f64;
    let mut nx = 0.0f64;
    let mut ny = 0.0f64;
    for (&xi, &yi) in x.iter().zip(y) {
        dot += xi as f64 * yi as f64;
        nx += (xi as f64).powi(2);
        ny += (yi as f64).powi(2);
    }
    if nx == 0.0 || ny == 0.0 {
        return 0.0;
    }
    let c = (dot / (nx.sqrt() * ny.sqrt())).clamp(-1.0, 1.0);
    1.0 - c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frobenius_of_unit_rows() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(frobenius_norm(&m), 5.0);
        assert_eq!(l2_norm_sq(&m), 25.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        row_softmax_in_place(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(m.row(r).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = Matrix::from_rows(&[&[1000.0, 1001.0]]);
        row_softmax_in_place(&mut a);
        assert!(a.all_finite());
        let mut b = Matrix::from_rows(&[&[0.0, 1.0]]);
        row_softmax_in_place(&mut b);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn cosine_distance_of_identical_rows_is_zero() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0]]);
        assert!(cosine_distance_rows(&m, 0, &m, 1).abs() < 1e-7);
    }

    #[test]
    fn cosine_distance_of_orthogonal_rows_is_one() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert!((cosine_distance_rows(&m, 0, &m, 1) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn cosine_distance_with_zero_vector_is_zero() {
        let m = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
        assert_eq!(cosine_distance_rows(&m, 0, &m, 1), 0.0);
    }
}
