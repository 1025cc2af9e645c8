//! The register-resident SpMM row kernel (`simd::spmm_row`) against the
//! loop it replaced, kept here as the reference, by bits: no tolerance.
//!
//! The reference zeroes each output row and adds one dispatched
//! `simd::axpy` per nonzero, in CSR order, leaving out `COL_SKIP` columns.
//! The row kernel must apply the same operation to every element in the
//! same order, so the bits agree on every input here, `-0.0` and
//! subnormals included. Checked through the public entry points — the full
//! product (`spmm`), the row subset (`spmm_rows_subset`) and the
//! column-mapped subset (`spmm_cols_compact`) —
//! so each takes its pooled split, over widths that cross the AVX2 kernel's
//! 8-lane vectors and 64-column panels, on every ISA the host has. The
//! dropout-scaled row store (`spmm_dropout_into`, the backward of a dropout
//! folded into a propagation) is checked against `spmm` followed by
//! `apply_dropout`, with NaN and ±inf in the operand. The check runs in
//! child processes under `SKIPNODE_THREADS` of 1 to 4 (the pool reads the
//! variable once per process).

use skipnode_sparse::{CsrMatrix, COL_SKIP};
use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::{apply_dropout, Matrix, SplitRng};

/// Output widths: one lane, under/at/over one 8-lane vector, two vectors,
/// the arxiv substitute's 40 classes, under/at/over one and two 64-column
/// panels.
const WIDTHS: &[usize] = &[1, 7, 8, 9, 16, 40, 63, 64, 65, 127, 128, 130];

/// The replaced row loop: zero the row, then one `axpy` per nonzero whose
/// column `row_of` maps to a row of `x`.
fn reference_row(
    isa: Isa,
    cols: &[u32],
    vals: &[f32],
    row_of: impl Fn(u32) -> Option<usize>,
    x: &Matrix,
    out: &mut [f32],
) {
    out.fill(0.0);
    for (&c, &v) in cols.iter().zip(vals) {
        if let Some(r) = row_of(c) {
            simd::axpy(isa, v, x.row(r), out);
        }
    }
}

/// A value drawn from a mix of ordinary floats, `±0.0` and subnormals.
fn value(rng: &mut SplitRng) -> f32 {
    match rng.below(10) {
        0 => -0.0,
        1 => 0.0,
        2 => f32::MIN_POSITIVE * rng.uniform(-0.9, 0.9),
        3 => f32::MIN_POSITIVE * rng.uniform(1.0, 4.0),
        _ => rng.uniform(-2.0, 2.0),
    }
}

/// An `n × n` matrix whose rows have 0, 1, a few or many nonzeros (one
/// hub row every 97), with the values of [`value`].
fn adjacency(rng: &mut SplitRng, n: usize) -> CsrMatrix {
    let mut indptr = vec![0usize];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for r in 0..n {
        let want = match r % 7 {
            0 => 0,
            1 => 1,
            _ if r % 97 == 3 => n / 2,
            _ => 2 + rng.below(14),
        };
        let mut row: Vec<u32> = (0..want).map(|_| rng.below(n) as u32).collect();
        row.sort_unstable();
        row.dedup();
        for c in row {
            indices.push(c);
            values.push(value(rng));
        }
        indptr.push(indices.len());
    }
    CsrMatrix::new(n, n, indptr, indices, values)
}

/// A gradient with [`value`]'s mix plus NaN and ±inf entries.
fn nonfinite(rng: &mut SplitRng, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = match rng.below(20) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => value(rng),
        };
    }
    m
}

fn dense(rng: &mut SplitRng, rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = value(rng);
    }
    m
}

fn assert_same_bits(got: &Matrix, want: &Matrix, label: &str) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    let first = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .position(|(x, y)| x.to_bits() != y.to_bits());
    assert!(
        first.is_none(),
        "{label}: first difference at {first:?}: {:?} vs {:?}",
        first.map(|i| got.as_slice()[i]),
        first.map(|i| want.as_slice()[i]),
    );
}

fn check(isa: Isa) {
    // 700 rows at 64 columns is past the pooled threshold; 3,000 rows are
    // past it for every width.
    for (s, &n) in [40usize, 700, 3000].iter().enumerate() {
        let mut rng = SplitRng::new(0x5e_a0 + s as u64);
        let a = adjacency(&mut rng, n);
        let rows: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 2).collect();
        // Every fifth column masked; the rest mapped in reverse order.
        let mut col_map = vec![COL_SKIP; n];
        let mut next = 0u32;
        for c in (0..n).rev().filter(|c| c % 5 != 4) {
            col_map[c] = next;
            next += 1;
        }
        for &d in WIDTHS {
            let label = format!("{isa:?} n={n} d={d}");
            let x = dense(&mut rng, n, d);
            let mut want = Matrix::zeros(n, d);
            for r in 0..n {
                let (cols, vals) = a.row(r);
                reference_row(isa, cols, vals, |c| Some(c as usize), &x, want.row_mut(r));
            }
            assert_same_bits(&a.spmm(&x), &want, &format!("spmm {label}"));

            let g = nonfinite(&mut rng, n, d);
            let mut dropped = vec![false; n * d];
            rng.fill_bernoulli(0.5, &mut dropped);
            let mut want = a.spmm(&g);
            apply_dropout(want.as_mut_slice(), &dropped, 0.3);
            let mut got = Matrix::full(n, d, f32::NAN);
            a.spmm_dropout_into(&g, &dropped, 0.3, &mut got);
            assert_same_bits(&got, &want, &format!("spmm_dropout_into {label}"));

            let mut got = Matrix::full(rows.len(), d, f32::NAN);
            a.spmm_rows_subset(&x, &rows, &mut got);
            let mut want = Matrix::zeros(rows.len(), d);
            for (k, &r) in rows.iter().enumerate() {
                let (cols, vals) = a.row(r as usize);
                reference_row(isa, cols, vals, |c| Some(c as usize), &x, want.row_mut(k));
            }
            assert_same_bits(&got, &want, &format!("spmm_rows_subset {label}"));

            let x_compact = dense(&mut rng, next as usize, d);
            let mut want = Matrix::zeros(rows.len(), d);
            for (k, &r) in rows.iter().enumerate() {
                let (cols, vals) = a.row(r as usize);
                let row_of = |c: u32| {
                    let m = col_map[c as usize];
                    (m != COL_SKIP).then_some(m as usize)
                };
                reference_row(isa, cols, vals, row_of, &x_compact, want.row_mut(k));
            }
            let mut got = Matrix::full(rows.len(), d, f32::NAN);
            a.spmm_cols_compact(&x_compact, &col_map, &rows, &mut got);
            assert_same_bits(&got, &want, &format!("spmm_cols_compact {label}"));
        }
    }
}

#[test]
fn row_kernel_reproduces_the_per_nonzero_axpy_loop_bit_for_bit() {
    if std::env::var("SPMM_BITS_CHILD").is_ok() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Neon] {
            if simd::force(isa) == isa {
                check(isa);
            }
        }
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "3", "4"] {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "row_kernel_reproduces_the_per_nonzero_axpy_loop_bit_for_bit",
                "--nocapture",
            ])
            .env("SPMM_BITS_CHILD", "1")
            .env("SKIPNODE_THREADS", threads)
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "SKIPNODE_THREADS={threads}: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
