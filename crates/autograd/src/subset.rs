//! Scalar semantics of the elementwise tape ops, factored out so
//! row-subset consumers can reuse them verbatim.
//!
//! The serving engine (`skipnode-serve`) re-executes a compiled
//! [`LayerPlan`](../../skipnode_nn/plan/struct.LayerPlan.html) over
//! *frontier-compacted* matrices instead of a tape: every intermediate
//! holds only the rows a micro-batch of queries can reach. Its bitwise
//! gate — batched answers identical to the full-graph forward — only
//! holds if every elementwise op applies the exact same scalar
//! operations in the same order as the tape executors. These helpers
//! are those operations, shared by the `infer` module's deferred executor
//! and the subset interpreter so the two can never drift.
//!
//! Everything here is row-local (each output row depends only on the
//! same row of each operand), which is precisely why a row-compacted
//! execution can be bitwise identical to the full one.

use skipnode_tensor::Matrix;

/// `v[r, :] += bias[0, :]` for every row — the tape's `AddBias`.
pub fn add_bias_in_place(v: &mut Matrix, bias: &Matrix) {
    for r in 0..v.rows() {
        let row = v.row_mut(r);
        for (t, &bv) in row.iter_mut().zip(bias.row(0)) {
            *t += bv;
        }
    }
}

/// Elementwise `max(x, 0)` — the tape's `Relu`.
pub fn relu_in_place(v: &mut Matrix) {
    for t in v.as_mut_slice() {
        *t = t.max(0.0);
    }
}

/// `v = Σ parts[k].0 · parts[k].1` accumulated in part order onto a
/// zeroed buffer — the tape's `LinComb` (and `WeightedSum`, whose
/// coefficients come from a `1 × K` parameter row).
///
/// # Panics
/// Panics if `v` and any part disagree in shape.
pub fn lin_comb_into(v: &mut Matrix, parts: &[(&Matrix, f32)]) {
    v.as_mut_slice().fill(0.0);
    for &(p, c) in parts {
        v.add_scaled(p, c);
    }
}

/// Elementwise `v = max(v, cand)` keeping `v` on ties — the tape's
/// `MaxPool` accumulation step (parts after the first fold in with this).
pub fn max_pool_in_place(v: &mut Matrix, cand: &Matrix) {
    for (t, &c) in v.as_mut_slice().iter_mut().zip(cand.as_slice()) {
        if c > *t {
            *t = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_bias_adds_the_bias_row_to_every_row() {
        let mut v = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0]]);
        add_bias_in_place(&mut v, &b);
        assert_eq!(v.as_slice(), &[1.5, 1.0, 3.5, 3.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut v = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        relu_in_place(&mut v);
        assert_eq!(v.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn lin_comb_accumulates_in_order() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        let mut v = Matrix::full(1, 2, f32::NAN);
        lin_comb_into(&mut v, &[(&a, 0.5), (&b, 0.1)]);
        assert_eq!(v.as_slice(), &[1.5, 3.0]);
    }

    #[test]
    fn max_pool_keeps_the_larger_entry() {
        let mut v = Matrix::from_rows(&[&[1.0, 5.0]]);
        let c = Matrix::from_rows(&[&[3.0, 2.0]]);
        max_pool_in_place(&mut v, &c);
        assert_eq!(v.as_slice(), &[3.0, 5.0]);
    }
}
