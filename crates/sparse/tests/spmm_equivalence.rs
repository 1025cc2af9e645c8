//! Equivalence tests for the nnz-balanced pooled SpMM kernels.
//!
//! The partitioning contract is that chunk boundaries only decide *which
//! worker* computes a row — the per-row accumulation order is fixed — so
//! pooled results must be byte-identical to a serial reference on any
//! degree distribution, including the adversarial ones that make
//! equal-row-count chunking maximally lopsided.

//! This binary pins the **scalar fallback** bitwise: every test forces
//! [`Isa::Scalar`] first, so the dispatched kernels reproduce the pre-SIMD
//! bytes exactly. The vector ISAs' (FMA-contracted, tolerance-gated)
//! equivalence lives in `simd_spmm.rs`, its own process.

use skipnode_sparse::{CooBuilder, CsrMatrix, COL_SKIP};
use skipnode_tensor::simd::{force, Isa};
use skipnode_tensor::{Matrix, SplitRng};

/// Pin the whole process to the scalar ISA. Every test calls this before
/// touching a kernel, so parallel test threads never observe a mid-run
/// dispatch flip.
fn pin_scalar() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        force(Isa::Scalar);
    });
}

/// Naive serial reference with the exact accumulation order the kernels
/// use: CSR entry order within a row, `out[j] += v * x[c][j]`.
fn reference_spmm(a: &CsrMatrix, x: &Matrix) -> Matrix {
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

fn dense_input(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitRng::new(seed);
    let mut x = Matrix::zeros(rows, cols);
    for v in x.as_mut_slice() {
        *v = rng.normal();
    }
    x
}

/// Star graph: row 0 holds nearly all nonzeros. Equal-row-count chunking
/// would give one worker ~everything; nnz balancing must still be exact.
fn star(n: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for v in 1..n {
        b.push_symmetric(0, v, 1.0 / (v as f32));
    }
    b.build()
}

/// Identity plus one dense row in the middle.
fn one_dense_row(n: usize, dense_at: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, 2.0);
    }
    for c in 0..n {
        if c != dense_at {
            b.push(dense_at, c, 0.5 + c as f32 * 1e-3);
        }
    }
    b.build()
}

/// Banded matrix with long runs of completely empty rows.
fn gappy(n: usize) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        // Rows in [n/4, n/2) and the last quarter are empty.
        if (n / 4..n / 2).contains(&i) || i >= 3 * n / 4 {
            continue;
        }
        for off in 1..=3usize {
            let j = (i + off * 7) % n;
            b.push(i, j, (off as f32) * 0.25 - 0.1);
        }
    }
    b.build()
}

fn assert_bits_equal(got: &Matrix, want: &Matrix, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: element {i} differs: {a} vs {b}"
        );
    }
}

#[test]
fn pooled_spmm_matches_serial_reference_bytewise() {
    pin_scalar();
    // d = 128 pushes nnz*d past the parallel threshold for every case.
    let d = 128;
    let cases: Vec<(&str, CsrMatrix)> = vec![
        ("star", star(3000)),
        ("one_dense_row", one_dense_row(2500, 1234)),
        ("gappy", gappy(4000)),
    ];
    for (label, a) in &cases {
        let x = dense_input(a.cols(), d, 42);
        let got = a.spmm(&x);
        let want = reference_spmm(a, &x);
        assert_bits_equal(&got, &want, label);
    }
}

#[test]
fn nnz_partition_covers_all_rows_monotonically() {
    pin_scalar();
    for a in [star(1000), one_dense_row(997, 500), gappy(1024)] {
        for chunks in [1, 2, 3, 7, 16] {
            let bounds = a.nnz_partition(chunks);
            assert_eq!(bounds.len(), chunks + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), a.rows());
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
            // Repeated calls hit the cache and return the same boundaries.
            let again = a.nnz_partition(chunks);
            assert_eq!(*bounds, *again);
        }
    }
}

#[test]
fn subset_kernel_matches_gathered_full_product() {
    pin_scalar();
    let a = one_dense_row(1800, 600);
    let x = dense_input(1800, 96, 7);
    let full = reference_spmm(&a, &x);
    // Every third row plus the dense row.
    let rows: Vec<u32> = (0..1800u32).filter(|r| r % 3 == 0 || *r == 600).collect();
    let mut out = Matrix::zeros(rows.len(), 96);
    a.spmm_rows_subset(&x, &rows, &mut out);
    for (local, &r) in rows.iter().enumerate() {
        for (j, (got, want)) in out.row(local).iter().zip(full.row(r as usize)).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "row {r} col {j}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn compact_column_kernel_matches_scattered_reference() {
    pin_scalar();
    let a = star(2200);
    let n = a.rows();
    // Compact input on even columns; odd columns are skipped (zero rows in
    // the scattered equivalent).
    let active: Vec<u32> = (0..n as u32).filter(|c| c % 2 == 0).collect();
    let mut col_map = vec![COL_SKIP; n];
    for (pos, &c) in active.iter().enumerate() {
        col_map[c as usize] = pos as u32;
    }
    let x_compact = dense_input(active.len(), 130, 9);
    // Scatter to a full-width input with zero rows at skipped columns.
    let mut x_full = Matrix::zeros(n, 130);
    for (pos, &c) in active.iter().enumerate() {
        x_full
            .row_mut(c as usize)
            .copy_from_slice(x_compact.row(pos));
    }
    let mut got = Matrix::zeros(n, 130);
    let all_rows: Vec<u32> = (0..n as u32).collect();
    a.spmm_cols_compact(&x_compact, &col_map, &all_rows, &mut got);
    // The reference accumulates v * 0.0 for skipped columns, which leaves
    // finite accumulations bit-unchanged — so bytewise equality still holds.
    let want = reference_spmm(&a, &x_full);
    assert_bits_equal(&got, &want, "spmm_cols_compact");
}

/// Cross-process check that results are byte-identical for every
/// `SKIPNODE_THREADS` value (the pool resolves the variable once per
/// process, so each count needs its own process).
#[test]
fn pooled_spmm_is_byte_identical_across_thread_counts() {
    pin_scalar();
    fn checksum() -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over result bits
        for a in [star(3000), one_dense_row(2500, 77), gappy(4000)] {
            let x = dense_input(a.cols(), 128, 42);
            let out = a.spmm(&x);
            for v in out.as_slice() {
                h ^= v.to_bits() as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
    if std::env::var("SPMM_CHECKSUM_CHILD").is_ok() {
        println!("CHECKSUM={:016x}", checksum());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut sums = Vec::new();
    for threads in ["1", "2", "3", "8"] {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "pooled_spmm_is_byte_identical_across_thread_counts",
                "--nocapture",
            ])
            .env("SPMM_CHECKSUM_CHILD", "1")
            .env("SKIPNODE_THREADS", threads)
            .output()
            .expect("spawn child test process");
        assert!(out.status.success(), "child with {threads} threads failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The harness may merge the println with its own status line, so
        // search within lines rather than anchoring at the start.
        let sum = stdout
            .lines()
            .find_map(|l| {
                let at = l.find("CHECKSUM=")?;
                let hex = &l[at + "CHECKSUM=".len()..];
                Some(hex[..16.min(hex.len())].to_string())
            })
            .unwrap_or_else(|| panic!("no checksum in child output: {stdout}"));
        sums.push((threads, sum));
    }
    let first = sums[0].1.clone();
    for (threads, sum) in &sums {
        assert_eq!(
            sum, &first,
            "SKIPNODE_THREADS={threads} produced a different result"
        );
    }
}
