//! Blocked dense GEMM kernels on the persistent pool.
//!
//! Three layout-specialized kernels (`A·B`, `Aᵀ·B`, `A·Bᵀ`) share a design:
//!
//! - **Register tiling.** The scalar `A·B` kernel computes 4×8 output
//!   tiles with accumulators held in locals and fixed-size (`[f32; 8]`) row
//!   windows, so the autovectorizer lifts the inner loop to SIMD FMAs; the
//!   vector kernel ([`crate::simd::gemm_rows`]) uses 4×16 tiles. `Aᵀ·B`
//!   streams row-axpy updates into a cache-resident output slab; `A·Bᵀ`
//!   runs four independent dot-product chains per output row.
//! - **Zero skipping.** Tiles whose `A` window is entirely zero are
//!   skipped. Adding `0·x` for finite `x` is exact, so results are
//!   unchanged. Sparse input features no longer reach these kernels on
//!   `f32` tapes — the input layer runs over their stored entries
//!   (`skipnode_autograd`'s sparse input op) — so the skip now pays only on
//!   the int8 and dense-feature paths.
//! - **Pooled dispatch.** Large products are split over disjoint output
//!   row-blocks and dispatched on [`crate::pool`] — no per-call thread
//!   spawn/join. Every output element is computed by exactly one chunk with
//!   a fixed accumulation order, so results are bit-identical for every
//!   `SKIPNODE_THREADS` value (and match the serial reference kernels).
//!
//! All kernels **overwrite** `out`; callers may pass recycled, non-zeroed
//! buffers from [`crate::workspace`].

use crate::kstats;
use crate::matrix::Matrix;
use crate::pool;
use crate::simd::{self, Isa};

/// Below this many multiply-adds, pool dispatch overhead dominates.
const PARALLEL_THRESHOLD: usize = 64 * 64 * 64;

/// Register-tile height (output rows per microkernel step).
const MR: usize = 4;
/// Register-tile width (output columns per microkernel step).
const NR: usize = 8;

/// Rows per parallel chunk for an `m`-row output.
fn rows_per_chunk(m: usize) -> usize {
    m.div_ceil(pool::chunk_count(m))
}

/// `out = a * b`. `out` must be pre-shaped `a.rows x b.cols`; prior
/// contents are ignored.
pub fn gemm(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    debug_assert_eq!(out.shape(), (m, n));
    if n == 0 {
        return;
    }
    kstats::record(kstats::Kernel::Gemm, m);
    let isa = simd::active();
    if m * n * k < PARALLEL_THRESHOLD || m == 1 {
        gemm_rows_dispatch(isa, a, b, out.as_mut_slice(), 0, m);
        return;
    }
    let rows = rows_per_chunk(m);
    pool::par_chunks_mut(out.as_mut_slice(), rows * n, |idx, block| {
        let begin = idx * rows;
        gemm_rows_dispatch(isa, a, b, block, begin, (begin + rows).min(m));
    });
}

/// Route one output row block to the scalar reference or the SIMD
/// microkernel.
fn gemm_rows_dispatch(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    match isa {
        Isa::Scalar => gemm_rows(a, b, out, row_begin, row_end),
        isa => simd::gemm_rows(isa, a, b, out, row_begin, row_end),
    }
}

/// Serial reference/microkernel for rows `[row_begin, row_end)` of `a`,
/// writing the corresponding row block `out`.
pub(crate) fn gemm_rows(a: &Matrix, b: &Matrix, out: &mut [f32], row_begin: usize, row_end: usize) {
    let k = a.cols();
    let n = b.cols();
    let bd = b.as_slice();
    let rows = row_end - row_begin;
    let mut i = 0;
    while i < rows {
        let mr = MR.min(rows - i);
        let r0 = row_begin + i;
        let mut jt = 0;
        while jt < n {
            let nr = NR.min(n - jt);
            if mr == MR && nr == NR {
                // Fast path: full 4×8 register tile.
                let a_rows: [&[f32]; MR] = [a.row(r0), a.row(r0 + 1), a.row(r0 + 2), a.row(r0 + 3)];
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let av = [a_rows[0][p], a_rows[1][p], a_rows[2][p], a_rows[3][p]];
                    if av == [0.0; MR] {
                        continue; // sparse binary features make this pay off
                    }
                    let bp: &[f32; NR] = bd[p * n + jt..p * n + jt + NR]
                        .try_into()
                        .expect("NR window");
                    for (accr, &ar) in acc.iter_mut().zip(&av) {
                        for (o, &bv) in accr.iter_mut().zip(bp) {
                            *o += ar * bv;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    out[(i + r) * n + jt..(i + r) * n + jt + NR].copy_from_slice(accr);
                }
            } else {
                // Tail tile: same accumulation order, variable extent.
                for r in 0..mr {
                    let a_row = a.row(r0 + r);
                    let mut acc = [0.0f32; NR];
                    for (p, &ap) in a_row.iter().enumerate() {
                        if ap == 0.0 {
                            continue;
                        }
                        let bp = &bd[p * n + jt..p * n + jt + nr];
                        for (o, &bv) in acc[..nr].iter_mut().zip(bp) {
                            *o += ap * bv;
                        }
                    }
                    out[(i + r) * n + jt..(i + r) * n + jt + nr].copy_from_slice(&acc[..nr]);
                }
            }
            jt += nr;
        }
        i += mr;
    }
}

/// `out = aᵀ * b` without materializing `aᵀ`. `out` is `a.cols x b.cols`;
/// prior contents are ignored.
///
/// Parallelized over disjoint **output** row ranges (the `k` dimension of
/// `a`), so no cross-worker reduction or private accumulators are needed
/// and results are bit-stable across thread counts.
pub fn gemm_at_b(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    debug_assert_eq!(out.shape(), (k, n));
    if n == 0 || k == 0 {
        return;
    }
    kstats::record(kstats::Kernel::GemmAtB, k);
    let isa = simd::active();
    if m * n * k < PARALLEL_THRESHOLD || k == 1 {
        at_b_rows_dispatch(isa, a, b, out.as_mut_slice(), 0, k);
        return;
    }
    let rows = rows_per_chunk(k);
    pool::par_chunks_mut(out.as_mut_slice(), rows * n, |idx, block| {
        let begin = idx * rows;
        at_b_rows_dispatch(isa, a, b, block, begin, (begin + rows).min(k));
    });
}

fn at_b_rows_dispatch(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    out: &mut [f32],
    p_begin: usize,
    p_end: usize,
) {
    match isa {
        Isa::Scalar => at_b_rows(a, b, out, p_begin, p_end),
        isa => at_b_rows_simd(isa, a, b, out, p_begin, p_end),
    }
}

/// SIMD `Aᵀ·B` rows: the same streaming row-axpy as the scalar reference
/// with the inner loop vectorized over output columns — per-element
/// accumulation order over `r` is unchanged, so the result is invariant to
/// the parallel row split and differs from scalar only by FMA contraction.
fn at_b_rows_simd(isa: Isa, a: &Matrix, b: &Matrix, out: &mut [f32], p_begin: usize, p_end: usize) {
    let m = a.rows();
    let n = b.cols();
    out.fill(0.0);
    for r in 0..m {
        let a_slab = &a.row(r)[p_begin..p_end];
        let b_row = b.row(r);
        for (local_p, &ap) in a_slab.iter().enumerate() {
            if ap == 0.0 {
                continue;
            }
            simd::axpy(isa, ap, b_row, &mut out[local_p * n..(local_p + 1) * n]);
        }
    }
}

/// Serial reference kernel for output rows `[p_begin, p_end)` of `aᵀ b`:
/// a streaming row-axpy accumulation (`out[p] += a[r,p] * b[r]`) with the
/// output slab staying cache-resident.
pub(crate) fn at_b_rows(a: &Matrix, b: &Matrix, out: &mut [f32], p_begin: usize, p_end: usize) {
    let m = a.rows();
    let n = b.cols();
    out.fill(0.0);
    for r in 0..m {
        let a_slab = &a.row(r)[p_begin..p_end];
        let b_row = b.row(r);
        for (local_p, &ap) in a_slab.iter().enumerate() {
            if ap == 0.0 {
                continue; // gradient w.r.t. sparse features skips most rows
            }
            let out_row = &mut out[local_p * n..(local_p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += ap * bv;
            }
        }
    }
}

/// `out = a * bᵀ` without materializing `bᵀ`. `out` is `a.rows x b.rows`;
/// prior contents are ignored.
pub fn gemm_a_bt(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.rows();
    debug_assert_eq!(out.shape(), (m, n));
    if n == 0 {
        return;
    }
    kstats::record(kstats::Kernel::GemmABt, m);
    let isa = simd::active();
    if m * n * k < PARALLEL_THRESHOLD || m == 1 {
        a_bt_rows_dispatch(isa, a, b, out.as_mut_slice(), 0, m);
        return;
    }
    let rows = rows_per_chunk(m);
    pool::par_chunks_mut(out.as_mut_slice(), rows * n, |idx, block| {
        let begin = idx * rows;
        a_bt_rows_dispatch(isa, a, b, block, begin, (begin + rows).min(m));
    });
}

fn a_bt_rows_dispatch(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    match isa {
        Isa::Scalar => a_bt_rows(a, b, out, row_begin, row_end),
        isa => a_bt_rows_simd(isa, a, b, out, row_begin, row_end),
    }
}

/// SIMD `A·Bᵀ` rows: four vector dot chains per output row. Dot products
/// fold lanes, so this kernel is tolerance-class versus the scalar
/// reference (deterministic for a fixed ISA).
fn a_bt_rows_simd(
    isa: Isa,
    a: &Matrix,
    b: &Matrix,
    out: &mut [f32],
    row_begin: usize,
    row_end: usize,
) {
    let n = b.rows();
    for (local, r) in (row_begin..row_end).enumerate() {
        let a_row = a.row(r);
        let out_row = &mut out[local * n..(local + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let vals = simd::dot4(
                isa,
                a_row,
                [b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3)],
            );
            out_row[j..j + 4].copy_from_slice(&vals);
            j += 4;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            *o = simd::dot(isa, a_row, b.row(jj));
        }
    }
}

/// Serial reference kernel for rows `[row_begin, row_end)` of `a bᵀ`: four
/// independent dot-product chains per output row for instruction-level
/// parallelism.
pub(crate) fn a_bt_rows(a: &Matrix, b: &Matrix, out: &mut [f32], row_begin: usize, row_end: usize) {
    let k = a.cols();
    let n = b.rows();
    const JT: usize = 4;
    for (local, r) in (row_begin..row_end).enumerate() {
        let a_row = a.row(r);
        let out_row = &mut out[local * n..(local + 1) * n];
        let mut j = 0;
        while j + JT <= n {
            let b_rows: [&[f32]; JT] = [b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3)];
            let mut acc = [0.0f32; JT];
            for (p, &ap) in a_row.iter().enumerate().take(k) {
                for (o, br) in acc.iter_mut().zip(&b_rows) {
                    *o += ap * br[p];
                }
            }
            out_row[j..j + JT].copy_from_slice(&acc);
            j += JT;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            let b_row = b.row(jj);
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a_row[p] * b_row[p];
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::matrix::Matrix;
    use crate::rng::SplitRng;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a.get(r, p) * b.get(p, c);
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_gemm_matches_naive_on_large_matrices() {
        let mut rng = SplitRng::new(3);
        let a = rng.uniform_matrix(70, 65, -1.0, 1.0);
        let b = rng.uniform_matrix(65, 70, -1.0, 1.0);
        assert_close(&a.matmul(&b), &naive(&a, &b), 1e-3);
    }

    #[test]
    fn at_b_matches_naive_on_large_matrices() {
        let mut rng = SplitRng::new(4);
        let a = rng.uniform_matrix(80, 66, -1.0, 1.0);
        let b = rng.uniform_matrix(80, 64, -1.0, 1.0);
        assert_close(&a.t_matmul(&b), &naive(&a.transpose(), &b), 1e-3);
    }

    #[test]
    fn a_bt_matches_naive_on_large_matrices() {
        let mut rng = SplitRng::new(5);
        let a = rng.uniform_matrix(72, 64, -1.0, 1.0);
        let b = rng.uniform_matrix(68, 64, -1.0, 1.0);
        assert_close(&a.matmul_t(&b), &naive(&a, &b.transpose()), 1e-3);
    }

    #[test]
    fn single_row_vector_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[6.0]]));
    }

    #[test]
    fn into_kernels_overwrite_stale_contents() {
        let mut rng = SplitRng::new(6);
        let a = rng.uniform_matrix(9, 11, -1.0, 1.0);
        let b = rng.uniform_matrix(11, 13, -1.0, 1.0);
        let mut out = Matrix::full(9, 13, f32::NAN);
        super::gemm(&a, &b, &mut out);
        assert_close(&out, &naive(&a, &b), 1e-4);
    }

    #[test]
    fn sparse_rows_are_skipped_exactly() {
        // Rows/columns of zeros exercise the zero-skip fast path.
        let mut a = Matrix::zeros(10, 12);
        a.set(0, 3, 2.0);
        a.set(7, 0, -1.5);
        let mut rng = SplitRng::new(7);
        let b = rng.uniform_matrix(12, 9, -1.0, 1.0);
        assert_close(&a.matmul(&b), &naive(&a, &b), 1e-5);
        let c = rng.uniform_matrix(10, 9, -1.0, 1.0);
        assert_close(&a.t_matmul(&c), &naive(&a.transpose(), &c), 1e-4);
    }
}
