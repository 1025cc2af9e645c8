//! Equivalence tests for the **vector-ISA** SpMM path (own process: the
//! dispatched ISA is process-global, and `spmm_equivalence.rs` pins this
//! binary's sibling to scalar).
//!
//! Two properties, matching the accumulation-order policy:
//! - **Invariance** (bitwise): under a fixed vector ISA, results do not
//!   depend on pooled scheduling or row subsetting — each output element
//!   accumulates its neighbors in CSR order with FMA everywhere.
//! - **Proximity** (tolerance): versus the scalar reference, elements agree
//!   to ≤ 1e-5 relative error — FMA only skips intermediate roundings.
//!
//! On hosts without a vector ISA every test reduces to scalar-vs-scalar
//! and still passes.

use skipnode_sparse::{CooBuilder, CsrMatrix};
use skipnode_tensor::simd::{active, force, Isa};
use skipnode_tensor::{Matrix, SplitRng};

/// Pin the best vector ISA the host has (or scalar when there is none)
/// before any kernel runs, so parallel tests never see a dispatch flip.
fn pin_vector_isa() -> Isa {
    static ONCE: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
    *ONCE.get_or_init(|| {
        for isa in [Isa::Avx2, Isa::Neon] {
            if force(isa) == isa {
                return isa;
            }
        }
        Isa::Scalar
    })
}

fn scalar_reference(a: &CsrMatrix, x: &Matrix) -> Matrix {
    let d = x.cols();
    let mut out = Matrix::zeros(a.rows(), d);
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        let out_row = out.row_mut(r);
        for (&c, &v) in cols.iter().zip(vals) {
            for (o, &xv) in out_row.iter_mut().zip(x.row(c as usize)) {
                *o += v * xv;
            }
        }
    }
    out
}

fn skewed(n: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for v in 1..n {
        b.push_symmetric(0, v, 1.0 / (v as f32));
        if v + 13 < n {
            b.push_symmetric(v, v + 13, 0.01 * v as f32);
        }
    }
    b.build()
}

fn dense_input(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitRng::new(seed);
    let mut x = Matrix::zeros(rows, cols);
    for v in x.as_mut_slice() {
        *v = rng.normal();
    }
    x
}

fn assert_bits_equal(got: &Matrix, want: &Matrix, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i}: {a} vs {b}");
    }
}

/// Row blocks computed separately: equal-row or nnz-balanced boundaries.
fn spmm_in_blocks(a: &CsrMatrix, x: &Matrix, bounds: &[usize]) -> Matrix {
    let d = x.cols();
    let mut out = Matrix::zeros(a.rows(), d);
    for w in bounds.windows(2) {
        let block = &mut out.as_mut_slice()[w[0] * d..w[1] * d];
        a.spmm_rows(x, block, w[0], w[1]);
    }
    out
}

/// Odd feature widths (not multiples of any lane count), empty rows,
/// single-row output: the SIMD tail paths must stay invariant to how the
/// output rows are split into blocks.
#[test]
fn simd_spmm_is_invariant_to_schedule_bitwise() {
    pin_vector_isa();
    let a = skewed(2600);
    let rows = a.rows();
    let row_split: Vec<usize> = (0..=5).map(|i| (i * rows.div_ceil(5)).min(rows)).collect();
    for d in [1usize, 3, 7, 8, 9, 13, 130] {
        let x = dense_input(a.cols(), d, 21);
        let mut reference = Matrix::zeros(rows, d);
        a.spmm_rows(&x, reference.as_mut_slice(), 0, rows);
        assert_bits_equal(&a.spmm(&x), &reference, &format!("d={d} pooled"));
        let nnz_split = a.nnz_partition(9);
        for (name, bounds) in [
            ("row_split:5", &row_split[..]),
            ("nnz_balanced:9", &nnz_split),
        ] {
            let got = spmm_in_blocks(&a, &x, bounds);
            assert_bits_equal(&got, &reference, &format!("d={d} schedule={name}"));
        }
    }
}

/// Row subsetting (the fused SkipNode forward) must not change computed
/// rows' bits under SIMD, exactly as it does not under scalar.
#[test]
fn simd_subset_rows_match_full_product_bitwise() {
    pin_vector_isa();
    let a = skewed(1700);
    let x = dense_input(a.cols(), 96, 5);
    let full = a.spmm(&x);
    let rows: Vec<u32> = (0..1700u32).filter(|r| r % 4 != 1).collect();
    let mut out = Matrix::zeros(rows.len(), 96);
    a.spmm_rows_subset(&x, &rows, &mut out);
    for (local, &r) in rows.iter().enumerate() {
        for (j, (got, want)) in out.row(local).iter().zip(full.row(r as usize)).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "row {r} col {j}");
        }
    }
}

/// The vector path must stay within 1e-5 relative error of the plain
/// scalar accumulation (FMA contraction is the only difference).
#[test]
fn simd_spmm_is_close_to_scalar_reference() {
    pin_vector_isa();
    let a = skewed(2000);
    for d in [1usize, 5, 8, 11, 64] {
        let x = dense_input(a.cols(), d, 33);
        let got = a.spmm(&x);
        let want = scalar_reference(&a, &x);
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            let tol = 1e-5 * w.abs().max(1.0);
            assert!((g - w).abs() <= tol, "d={d} element {i}: {g} vs {w}");
        }
    }
}

/// Sanity: the pin actually runs all of this binary under one ISA.
#[test]
fn pinned_isa_is_process_wide() {
    let isa = pin_vector_isa();
    assert_eq!(active(), isa);
}
