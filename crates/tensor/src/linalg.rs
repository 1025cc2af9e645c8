//! Power-iteration linear algebra.
//!
//! The paper's bounds are phrased in terms of `s`, the maximum singular
//! value of each weight matrix `W^(l)`, and `λ`, the second-largest
//! eigenvalue magnitude of `Ã`. This module provides `s`; the sparse crate
//! layers the graph-spectrum part (`λ`) on top of [`power_iteration`].

use crate::matrix::Matrix;
use crate::reduce::frobenius_norm;
use crate::rng::SplitRng;

/// Options for the generic power iteration.
#[derive(Debug, Clone, Copy)]
pub struct PowerIterOptions {
    /// Maximum iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the Rayleigh quotient.
    pub tol: f64,
    /// RNG seed for the starting vector.
    pub seed: u64,
}

impl Default for PowerIterOptions {
    fn default() -> Self {
        Self {
            max_iters: 300,
            tol: 1e-9,
            seed: 0x5eed,
        }
    }
}

/// Generic power iteration on a linear operator `apply: R^n -> R^n`,
/// orthogonalized against `deflate` vectors each step (assumed orthonormal).
///
/// Returns `(eigenvalue_estimate, eigenvector)` where the eigenvalue is the
/// Rayleigh quotient `vᵀ A v` of the converged unit vector, so its *sign* is
/// meaningful for symmetric operators.
pub fn power_iteration(
    n: usize,
    apply: impl Fn(&[f32], &mut [f32]),
    deflate: &[Vec<f32>],
    opts: PowerIterOptions,
) -> (f64, Vec<f32>) {
    assert!(n > 0, "power iteration on empty operator");
    let mut rng = SplitRng::new(opts.seed);
    let mut v: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
    orthogonalize(&mut v, deflate);
    normalize(&mut v);
    let mut av = vec![0.0f32; n];
    let mut prev_rq = f64::NAN;
    for _ in 0..opts.max_iters {
        apply(&v, &mut av);
        orthogonalize(&mut av, deflate);
        // Rayleigh quotient before normalization: v is unit, so vᵀ(Av).
        let rq: f64 = v.iter().zip(&av).map(|(&a, &b)| a as f64 * b as f64).sum();
        let norm = l2(&av);
        if norm < 1e-30 {
            // Operator annihilates the deflated subspace complement.
            return (0.0, v);
        }
        for (o, &x) in v.iter_mut().zip(&av) {
            *o = (x as f64 / norm) as f32;
        }
        if (rq - prev_rq).abs() <= opts.tol * rq.abs().max(1.0) {
            return (rq, v);
        }
        prev_rq = rq;
    }
    (prev_rq, v)
}

fn l2(v: &[f32]) -> f64 {
    v.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt()
}

fn normalize(v: &mut [f32]) {
    let n = l2(v);
    if n > 0.0 {
        let inv = (1.0 / n) as f32;
        for x in v {
            *x *= inv;
        }
    }
}

fn orthogonalize(v: &mut [f32], basis: &[Vec<f32>]) {
    for b in basis {
        let dot: f64 = v.iter().zip(b).map(|(&a, &c)| a as f64 * c as f64).sum();
        for (x, &c) in v.iter_mut().zip(b) {
            *x -= (dot * c as f64) as f32;
        }
    }
}

/// Maximum singular value of `w` by power iteration on `WᵀW`.
///
/// This is the `s` in the paper's `(sλ)^L` over-smoothing coefficient.
pub fn max_singular_value(w: &Matrix, max_iters: usize) -> f64 {
    let (rows, cols) = w.shape();
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    if frobenius_norm(w) == 0.0 {
        return 0.0;
    }
    let apply = |x: &[f32], out: &mut [f32]| {
        // out = Wᵀ (W x)
        let xv = Matrix::from_vec(cols, 1, x.to_vec());
        let wx = w.matmul(&xv);
        let wtwx = w.t_matmul(&wx);
        out.copy_from_slice(wtwx.as_slice());
    };
    let opts = PowerIterOptions {
        max_iters,
        ..Default::default()
    };
    let (lambda_max, _) = power_iteration(cols, apply, &[], opts);
    lambda_max.max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singular_value_of_diagonal_matrix() {
        let w = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -7.0]]);
        let s = max_singular_value(&w, 500);
        assert!((s - 7.0).abs() < 1e-3, "s = {s}");
    }

    #[test]
    fn singular_value_of_scaled_identity() {
        let w = &Matrix::eye(5) * 0.25;
        let s = max_singular_value(&w, 200);
        assert!((s - 0.25).abs() < 1e-4, "s = {s}");
    }

    #[test]
    fn singular_value_of_zero_matrix_is_zero() {
        let w = Matrix::zeros(4, 4);
        assert_eq!(max_singular_value(&w, 100), 0.0);
    }

    #[test]
    fn singular_value_of_rank_one_outer_product() {
        // u vᵀ has single nonzero singular value |u||v|.
        let u = [1.0f32, 2.0, 2.0]; // norm 3
        let v = [3.0f32, 4.0]; // norm 5
        let mut w = Matrix::zeros(3, 2);
        for (r, &ur) in u.iter().enumerate() {
            for (c, &vc) in v.iter().enumerate() {
                w.set(r, c, ur * vc);
            }
        }
        let s = max_singular_value(&w, 500);
        assert!((s - 15.0).abs() < 1e-2, "s = {s}");
    }

    #[test]
    fn power_iteration_finds_dominant_eigenpair_with_sign() {
        // Symmetric matrix with eigenvalues {-5, 2}.
        let a = Matrix::from_rows(&[&[-1.5, 3.5], &[3.5, -1.5]]);
        let apply = |x: &[f32], out: &mut [f32]| {
            let xv = Matrix::from_vec(2, 1, x.to_vec());
            out.copy_from_slice(a.matmul(&xv).as_slice());
        };
        let (val, vec) = power_iteration(2, apply, &[], PowerIterOptions::default());
        assert!((val + 5.0).abs() < 1e-4, "val = {val}");
        // Eigenvector for -5 is (1, -1)/sqrt(2) up to sign.
        assert!(((vec[0] + vec[1]).abs() as f64) < 1e-3);
    }

    #[test]
    fn deflation_skips_dominant_eigenvector() {
        // diag(3, 1): deflating e1 must yield eigenvalue 1.
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let apply = |x: &[f32], out: &mut [f32]| {
            let xv = Matrix::from_vec(2, 1, x.to_vec());
            out.copy_from_slice(a.matmul(&xv).as_slice());
        };
        let e1 = vec![1.0f32, 0.0];
        let (val, _) = power_iteration(2, apply, &[e1], PowerIterOptions::default());
        assert!((val - 1.0).abs() < 1e-4, "val = {val}");
    }
}
