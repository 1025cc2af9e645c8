//! Equivalence tests: the pooled/blocked GEMM kernels must agree with
//! straightforward serial references on every shape class — including the
//! awkward ones (vectors, tile-remainder shapes, zero rows, empty matrices).
//!
//! The kernels accumulate each output element in a fixed order that does not
//! depend on the thread count (disjoint output partitioning + fixed chunk
//! constants), so agreement here holds for every `SKIPNODE_THREADS` value.

use skipnode_tensor::{Matrix, SplitRng};

/// Naive triple-loop `a * b` accumulating in the same `p = 0..k` order as the
/// blocked kernel, so results should be bit-identical (zero-skip adds
/// nothing: `0 * x == 0` exactly for finite `x`).
fn reference_gemm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for c in 0..b.cols() {
            let mut acc = 0.0f32;
            for p in 0..a.cols() {
                acc += a.get(r, p) * b.get(p, c);
            }
            out.set(r, c, acc);
        }
    }
    out
}

fn assert_bitwise(kernel: &Matrix, reference: &Matrix, label: &str) {
    assert_eq!(kernel.shape(), reference.shape(), "{label}: shape");
    for (i, (x, y)) in kernel
        .as_slice()
        .iter()
        .zip(reference.as_slice())
        .enumerate()
    {
        assert!(
            x.to_bits() == y.to_bits() || (x - y).abs() <= 1e-5 * (1.0 + y.abs()),
            "{label}: element {i}: {x} vs {y}"
        );
    }
}

/// Shape sweep: vectors, exact tile multiples, remainders in both tile
/// dimensions, and degenerate empties.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 7, 5),    // single output row
    (5, 7, 1),    // single output column
    (4, 3, 8),    // exact MR x NR tile
    (8, 16, 16),  // multiple full tiles
    (5, 3, 9),    // remainder in both tile dims
    (7, 1, 7),    // inner dimension 1
    (13, 11, 17), // primes everywhere
    (3, 0, 4),    // empty inner dimension: output all zeros
    (0, 4, 3),    // no rows
    (70, 65, 70), // crosses the parallel-dispatch threshold
];

#[test]
fn gemm_matches_reference_across_shapes() {
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let mut rng = SplitRng::new(0xA0 + i as u64);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(k, n, -2.0, 2.0);
        let got = a.matmul(&b);
        assert_bitwise(&got, &reference_gemm(&a, &b), &format!("gemm {m}x{k}x{n}"));
    }
}

#[test]
fn gemm_at_b_matches_reference_across_shapes() {
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let mut rng = SplitRng::new(0xB0 + i as u64);
        // aᵀ b with a of shape m x k computes a k x n output from m x n b.
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(m, n, -2.0, 2.0);
        let got = a.t_matmul(&b);
        assert_bitwise(
            &got,
            &reference_gemm(&a.transpose(), &b),
            &format!("at_b {m}x{k}x{n}"),
        );
    }
}

#[test]
fn gemm_a_bt_matches_reference_across_shapes() {
    for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
        let mut rng = SplitRng::new(0xC0 + i as u64);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(n, k, -2.0, 2.0);
        let got = a.matmul_t(&b);
        assert_bitwise(
            &got,
            &reference_gemm(&a, &b.transpose()),
            &format!("a_bt {m}x{k}x{n}"),
        );
    }
}

/// Zero rows/columns exercise the kernels' zero-skip fast paths; skipping a
/// zero multiplier must not change any bit of the result.
#[test]
fn zero_skip_is_exact() {
    let mut rng = SplitRng::new(0xD0);
    let mut a = rng.uniform_matrix(23, 19, -2.0, 2.0);
    for r in [0usize, 5, 11, 22] {
        a.row_mut(r).fill(0.0);
    }
    for c in [2usize, 9, 18] {
        for r in 0..23 {
            a.set(r, c, 0.0);
        }
    }
    let b = rng.uniform_matrix(19, 13, -2.0, 2.0);
    assert_bitwise(&a.matmul(&b), &reference_gemm(&a, &b), "zero-skip gemm");
    let c = rng.uniform_matrix(23, 13, -2.0, 2.0);
    assert_bitwise(
        &a.t_matmul(&c),
        &reference_gemm(&a.transpose(), &c),
        "zero-skip at_b",
    );
}

/// `*_into` kernels overwrite recycled buffers: stale NaNs must not leak.
#[test]
fn into_kernels_ignore_stale_buffer_contents() {
    let mut rng = SplitRng::new(0xE0);
    let a = rng.uniform_matrix(9, 6, -1.0, 1.0);
    let b = rng.uniform_matrix(6, 11, -1.0, 1.0);
    let mut out = Matrix::full(9, 11, f32::NAN);
    a.matmul_into(&b, &mut out);
    assert_bitwise(&out, &reference_gemm(&a, &b), "matmul_into stale");

    let mut out2 = Matrix::full(6, 11, f32::NAN);
    let c = rng.uniform_matrix(9, 11, -1.0, 1.0);
    a.t_matmul_into(&c, &mut out2);
    assert_bitwise(
        &out2,
        &reference_gemm(&a.transpose(), &c),
        "t_matmul_into stale",
    );

    let mut out3 = Matrix::full(9, 9, f32::NAN);
    let d = rng.uniform_matrix(9, 6, -1.0, 1.0);
    a.matmul_t_into(&d, &mut out3);
    assert_bitwise(
        &out3,
        &reference_gemm(&a, &d.transpose()),
        "matmul_t_into stale",
    );
}

/// Repeated products through the workspace free-list stay deterministic:
/// buffer recycling must not perturb results between identical calls.
#[test]
fn workspace_recycling_is_deterministic() {
    let mut rng = SplitRng::new(0xF0);
    let a = rng.uniform_matrix(33, 21, -1.0, 1.0);
    let b = rng.uniform_matrix(21, 17, -1.0, 1.0);
    let first = a.matmul(&b);
    for _ in 0..8 {
        let again = a.matmul(&b);
        assert_eq!(
            first.as_slice(),
            again.as_slice(),
            "recycled-buffer product diverged"
        );
        skipnode_tensor::workspace::give(again);
    }
}
