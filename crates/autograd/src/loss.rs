//! Loss heads.
//!
//! Losses return both the scalar loss and the *seed gradient at the
//! logits*. Keeping the seed explicit (rather than pushing a scalar node)
//! lets the training loop hand the exact "gradient at the classification
//! layer" to the Figure-2(b) diagnostics, and lets multi-head objectives
//! (GRAND's consistency regularization) sum seeds before one backward pass.

use skipnode_tensor::{softmax_row_in_place, workspace, Matrix};

/// Loss value plus the gradient of the loss w.r.t. the logits.
pub struct LossOutput {
    /// Mean loss over the supervised rows.
    pub loss: f64,
    /// `∂L/∂Z`, zero outside the supervised rows. A [`workspace`] buffer:
    /// the backward pass that takes it as its seed gives it back.
    pub grad: Matrix,
}

/// Masked softmax cross-entropy over the rows listed in `idx`.
///
/// `logits` is `n × C`; `labels[i] < C` for every `i ∈ idx`. The gradient
/// rows follow the standard `(softmax − one_hot)/B` form — exactly the
/// quantity analyzed in Theorem 1 of the paper. Only the supervised rows
/// are softmaxed, each by [`softmax_row_in_place`], the per-row code of
/// the all-row [`skipnode_tensor::row_softmax_in_place`].
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize], idx: &[usize]) -> LossOutput {
    assert!(!idx.is_empty(), "empty supervision set");
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    let c = logits.cols();
    let b = idx.len() as f64;
    let mut grad = workspace::take(logits.rows(), c);
    let mut loss = 0.0f64;
    for &i in idx {
        let y = labels[i];
        assert!(y < c, "label {y} out of range for {c} classes");
        let probs = grad.row_mut(i);
        probs.copy_from_slice(logits.row(i));
        softmax_row_in_place(probs);
        loss -= (probs[y].max(1e-12) as f64).ln();
        for (j, g) in probs.iter_mut().enumerate() {
            let indicator = if j == y { 1.0 } else { 0.0 };
            *g = ((*g - indicator) as f64 / b) as f32;
        }
    }
    LossOutput {
        loss: loss / b,
        grad,
    }
}

/// Binary cross-entropy with logits over an `m × 1` score column.
///
/// `targets[e] ∈ {0.0, 1.0}`. Numerically stable log-sum-exp form.
pub fn bce_with_logits(scores: &Matrix, targets: &[f32]) -> LossOutput {
    assert_eq!(scores.cols(), 1, "scores must be a column");
    assert_eq!(scores.rows(), targets.len(), "one target per score");
    assert!(!targets.is_empty(), "empty target set");
    let m = targets.len() as f64;
    let mut grad = workspace::take(scores.rows(), 1);
    let mut loss = 0.0f64;
    for (e, &t) in targets.iter().enumerate() {
        let z = scores.get(e, 0) as f64;
        // log(1 + e^{-|z|}) + max(z, 0) − t·z
        loss += (1.0 + (-z.abs()).exp()).ln() + z.max(0.0) - t as f64 * z;
        let sigma = 1.0 / (1.0 + (-z).exp());
        grad.set(e, 0, ((sigma - t as f64) / m) as f32);
    }
    LossOutput {
        loss: loss / m,
        grad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]);
        let out = softmax_cross_entropy(&logits, &[0, 1], &[0, 1]);
        assert!(out.loss < 1e-4, "loss {}", out.loss);
        assert!(out.grad.max_abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_c() {
        let logits = Matrix::zeros(3, 4);
        let out = softmax_cross_entropy(&logits, &[0, 1, 2], &[0, 1, 2]);
        assert!((out.loss - (4.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.5, -0.2, 0.1], &[1.0, 0.0, -1.0]]);
        let labels = [2usize, 0];
        let idx = [0usize, 1];
        let out = softmax_cross_entropy(&logits, &labels, &idx);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let lp = softmax_cross_entropy(&plus, &labels, &idx).loss;
                let mut minus = logits.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let lm = softmax_cross_entropy(&minus, &labels, &idx).loss;
                let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let an = out.grad.get(r, c);
                assert!((fd - an).abs() < 1e-3, "({r},{c}): fd {fd} vs {an}");
            }
        }
    }

    /// Softmaxing only the supervised rows gives the loss and seed bits of
    /// softmaxing every row first (the pooled `row_softmax_in_place` on a
    /// matrix past its parallel threshold).
    #[test]
    fn cross_entropy_matches_the_all_row_softmax_bitwise() {
        let (n, c) = (4000, 40);
        let mut rng = skipnode_tensor::SplitRng::new(21);
        let logits = rng.uniform_matrix(n, c, -8.0, 8.0);
        let labels: Vec<usize> = (0..n).map(|i| (i * 7) % c).collect();
        let idx: Vec<usize> = (0..n).filter(|i| i % 5 == 2).collect();
        let mut probs = logits.clone();
        skipnode_tensor::row_softmax_in_place(&mut probs);
        let b = idx.len() as f64;
        let mut loss = 0.0f64;
        let mut grad = Matrix::zeros(n, c);
        for &i in &idx {
            let y = labels[i];
            loss -= (probs.get(i, y).max(1e-12) as f64).ln();
            for j in 0..c {
                let indicator = if j == y { 1.0 } else { 0.0 };
                grad.set(i, j, ((probs.get(i, j) - indicator) as f64 / b) as f32);
            }
        }
        let out = softmax_cross_entropy(&logits, &labels, &idx);
        assert_eq!((out.loss).to_bits(), (loss / b).to_bits());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.grad), bits(&grad));
    }

    #[test]
    fn cross_entropy_ignores_unsupervised_rows() {
        let logits = Matrix::from_rows(&[&[5.0, -5.0], &[3.0, 3.0]]);
        let out = softmax_cross_entropy(&logits, &[0, 0], &[0]);
        assert_eq!(out.grad.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn theorem_1_balanced_classes_zero_column_gradient_at_trivial_output() {
        // Theorem 1: with zero logits (the over-smoothed fixed point) and a
        // class-balanced training set, the per-class summed gradient is 0.
        let c = 4;
        let b = 40;
        let logits = Matrix::zeros(b, c);
        let labels: Vec<usize> = (0..b).map(|i| i % c).collect();
        let idx: Vec<usize> = (0..b).collect();
        let out = softmax_cross_entropy(&logits, &labels, &idx);
        for j in 0..c {
            let col_sum: f64 = (0..b).map(|i| out.grad.get(i, j) as f64).sum();
            assert!(col_sum.abs() < 1e-7, "class {j}: {col_sum}");
        }
    }

    #[test]
    fn bce_grad_matches_finite_difference() {
        let scores = Matrix::from_rows(&[&[0.3], &[-1.2], &[2.0]]);
        let targets = [1.0f32, 0.0, 1.0];
        let out = bce_with_logits(&scores, &targets);
        let eps = 1e-3f32;
        for e in 0..3 {
            let mut plus = scores.clone();
            plus.set(e, 0, plus.get(e, 0) + eps);
            let lp = bce_with_logits(&plus, &targets).loss;
            let mut minus = scores.clone();
            minus.set(e, 0, minus.get(e, 0) - eps);
            let lm = bce_with_logits(&minus, &targets).loss;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = out.grad.get(e, 0);
            assert!((fd - an).abs() < 1e-3, "edge {e}: fd {fd} vs {an}");
        }
    }

    #[test]
    fn bce_is_stable_at_extreme_logits() {
        let scores = Matrix::from_rows(&[&[60.0], &[-60.0]]);
        let out = bce_with_logits(&scores, &[1.0, 0.0]);
        assert!(out.loss.is_finite());
        assert!(out.loss < 1e-6);
    }
}
