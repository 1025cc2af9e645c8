//! Property-style tests for the dense matrix algebra.
//!
//! Each test sweeps many randomized cases from a fixed [`SplitRng`] seed, so
//! failures are exactly reproducible without any external test framework.

use skipnode_tensor::{Matrix, SplitRng};

const CASES: u64 = 48;

fn random_matrix(rng: &mut SplitRng, rows: usize, cols: usize) -> Matrix {
    rng.uniform_matrix(rows, cols, -10.0, 10.0)
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{x} vs {y}"
        );
    }
}

/// (AB)C = A(BC) within float tolerance.
#[test]
fn matmul_is_associative() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(0x100 + seed);
        let a = random_matrix(&mut rng, 4, 3);
        let b = random_matrix(&mut rng, 3, 5);
        let c = random_matrix(&mut rng, 5, 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(&left, &right, 1e-3);
    }
}

/// A(B + C) = AB + AC.
#[test]
fn matmul_distributes_over_addition() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(0x200 + seed);
        let a = random_matrix(&mut rng, 3, 4);
        let b = random_matrix(&mut rng, 4, 3);
        let c = random_matrix(&mut rng, 4, 3);
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        assert_close(&left, &right, 1e-3);
    }
}

/// (AB)ᵀ = Bᵀ Aᵀ.
#[test]
fn transpose_reverses_products() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(0x300 + seed);
        let a = random_matrix(&mut rng, 3, 4);
        let b = random_matrix(&mut rng, 4, 2);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert_close(&left, &right, 1e-4);
    }
}

/// The fused kernels agree with explicit transposition.
#[test]
fn fused_transpose_kernels_agree() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(0x400 + seed);
        let a = random_matrix(&mut rng, 5, 3);
        let b = random_matrix(&mut rng, 5, 4);
        assert_close(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-4);
        let c = Matrix::from_vec(4, 3, b.as_slice()[..12].to_vec());
        assert_close(&a.matmul_t(&c), &a.matmul(&c.transpose()), 1e-4);
    }
}

/// hcat then select recovers column blocks; select_rows of all rows is the
/// identity.
#[test]
fn hcat_and_select_round_trip() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(0x500 + seed);
        let a = random_matrix(&mut rng, 4, 2);
        let b = random_matrix(&mut rng, 4, 3);
        let mut cat = Matrix::zeros(4, 5);
        Matrix::hcat_into(&[&a, &b], &mut cat);
        assert_eq!(cat.cols(), 5);
        for r in 0..4 {
            assert_eq!(&cat.row(r)[..2], a.row(r));
            assert_eq!(&cat.row(r)[2..], b.row(r));
        }
        let all: Vec<usize> = (0..4).collect();
        assert_eq!(cat.select_rows(&all), cat);
    }
}

/// ReLU is idempotent and non-expansive in Frobenius norm.
#[test]
fn relu_properties() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(0x600 + seed);
        let a = random_matrix(&mut rng, 4, 4);
        let r = a.relu();
        assert_eq!(r.relu(), r.clone());
        assert!(skipnode_tensor::frobenius_norm(&r) <= skipnode_tensor::frobenius_norm(&a) + 1e-9);
        assert!(r.as_slice().iter().all(|&x| x >= 0.0));
    }
}

/// Softmax rows are a probability simplex for arbitrary inputs.
#[test]
fn softmax_simplex() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(0x700 + seed);
        let mut s = random_matrix(&mut rng, 3, 6);
        skipnode_tensor::row_softmax_in_place(&mut s);
        for r in 0..3 {
            let total: f32 = s.row(r).iter().sum();
            assert!((total - 1.0).abs() < 1e-4);
            assert!(s.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }
}

/// max_singular_value is sub-multiplicative: s(AB) ≤ s(A)s(B).
#[test]
fn singular_value_submultiplicative() {
    for seed in 0..CASES {
        let mut rng = SplitRng::new(seed);
        let a = rng.uniform_matrix(4, 4, -1.0, 1.0);
        let b = rng.uniform_matrix(4, 4, -1.0, 1.0);
        let sa = skipnode_tensor::max_singular_value(&a, 300);
        let sb = skipnode_tensor::max_singular_value(&b, 300);
        let sab = skipnode_tensor::max_singular_value(&a.matmul(&b), 300);
        assert!(sab <= sa * sb * 1.001 + 1e-6, "{sab} > {sa}*{sb}");
    }
}
