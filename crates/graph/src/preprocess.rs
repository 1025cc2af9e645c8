//! Feature preprocessing, mirroring the Planetoid pipeline conventions.

use skipnode_tensor::Matrix;

/// Row-normalize features to unit L1 norm (the standard Planetoid
/// preprocessing for bag-of-words features). All-zero rows are left as-is.
pub fn row_normalize(features: &Matrix) -> Matrix {
    let mut out = features.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let sum: f64 = row.iter().map(|&x| x.abs() as f64).sum();
        if sum > 0.0 {
            let inv = (1.0 / sum) as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
    out
}

/// Standardize each feature column to zero mean / unit variance
/// (constant columns become zero).
pub fn standardize(features: &Matrix) -> Matrix {
    let (n, d) = features.shape();
    let mut out = features.clone();
    if n == 0 {
        return out;
    }
    for c in 0..d {
        let mut mean = 0.0f64;
        for r in 0..n {
            mean += features.get(r, c) as f64;
        }
        mean /= n as f64;
        let mut var = 0.0f64;
        for r in 0..n {
            var += (features.get(r, c) as f64 - mean).powi(2);
        }
        var /= n as f64;
        let std = var.sqrt();
        for r in 0..n {
            let v = if std > 1e-12 {
                ((features.get(r, c) as f64 - mean) / std) as f32
            } else {
                0.0
            };
            out.set(r, c, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_normalize_gives_unit_l1_rows() {
        let x = Matrix::from_rows(&[&[1.0, 3.0], &[0.0, 0.0], &[-2.0, 2.0]]);
        let n = row_normalize(&x);
        assert_eq!(n.row(0), &[0.25, 0.75]);
        assert_eq!(n.row(1), &[0.0, 0.0]); // zero rows untouched
        let l1: f32 = n.row(2).iter().map(|v| v.abs()).sum();
        assert!((l1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn standardize_columns() {
        let x = Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 5.0]]);
        let s = standardize(&x);
        // Column 0: mean 2, std 1 → [-1, 1]; column 1 constant → zeros.
        assert!((s.get(0, 0) + 1.0).abs() < 1e-6);
        assert!((s.get(1, 0) - 1.0).abs() < 1e-6);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(1, 1), 0.0);
    }

    #[test]
    fn standardize_is_idempotent_up_to_float_noise() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.0, 4.0]]);
        let once = standardize(&x);
        let twice = standardize(&once);
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
