//! The elementwise arithmetic a layer applies around its products —
//! inverted dropout, the bias row and ReLU — written once.
//!
//! The tape's standalone `Mask`, `AddBias` and `Relu` ops and the kernels
//! that fold them into their loads and stores (the GEMM epilogue of
//! [`crate::Matrix::matmul_with_into`], the dropout-scaled SpMM row store of
//! [`crate::simd::spmm_row_dropout`]) all call these functions or
//! reproduce them lane for lane, so a folded layer keeps the bits of the
//! op chain it replaces:
//!
//! - dropout multiplies each element by `0` or `1 / (1 − rate)`, a product
//!   rather than a store, so `-0.0`, NaN and ±inf propagate as through any
//!   other multiply;
//! - the bias is one plain add per element;
//! - ReLU is [`relu`]: `v` when `v > 0`, else `+0.0` — so `-0.0` and NaN
//!   give `+0.0`, as the AVX2 `max(v, 0)` does. (`f32::max(v, 0.0)` keeps
//!   `-0.0` in unoptimized builds and drops its sign in optimized ones, so
//!   it is not used.)

use crate::matrix::Matrix;

/// The keep factor `1 / (1 − rate)` of inverted dropout, as `f32`.
#[inline]
pub fn dropout_scale(rate: f64) -> f32 {
    (1.0 / (1.0 - rate)) as f32
}

/// The multiplier of one element under inverted dropout: `0` when
/// dropped, else `scale`.
#[inline]
pub fn keep_factor(dropped: bool, scale: f32) -> f32 {
    if dropped {
        0.0
    } else {
        scale
    }
}

/// Inverted dropout in place, forward and backward alike: `v[i]` is
/// multiplied by `0` where `dropped[i]`, else by `1 / (1 − rate)`.
pub fn apply_dropout(v: &mut [f32], dropped: &[bool], rate: f64) {
    let scale = dropout_scale(rate);
    for (t, &d) in v.iter_mut().zip(dropped) {
        *t *= keep_factor(d, scale);
    }
}

/// [`apply_dropout`] of `src` written to `dst` in one pass: the same
/// product per element, without first copying `src`.
///
/// # Panics
/// Panics when the three slices differ in length.
pub fn dropout_into(src: &[f32], dropped: &[bool], rate: f64, dst: &mut [f32]) {
    assert!(
        src.len() == dst.len() && dropped.len() == dst.len(),
        "dropout_into lengths"
    );
    let scale = dropout_scale(rate);
    for ((t, &s), &d) in dst.iter_mut().zip(src).zip(dropped) {
        *t = s * keep_factor(d, scale);
    }
}

/// ReLU of one element: `v` when `v > 0`, else `+0.0` (also for `-0.0`
/// and NaN), in every build profile.
#[inline]
pub fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// `v[r, :] += bias[0, :]` for every row — the tape's `AddBias`.
pub fn add_bias_in_place(v: &mut Matrix, bias: &Matrix) {
    for r in 0..v.rows() {
        let row = v.row_mut(r);
        for (t, &bv) in row.iter_mut().zip(bias.row(0)) {
            *t += bv;
        }
    }
}

/// Elementwise ReLU, `v` when `v > 0` else `+0.0` — the tape's `Relu`.
pub fn relu_in_place(v: &mut Matrix) {
    for t in v.as_mut_slice() {
        *t = relu(*t);
    }
}

/// What a product applies to each output element as it stores it: the
/// bias column's value (`v + b`), then ReLU (`v > 0 ? v : +0`), each
/// optional.
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// The bias row, one value per output column.
    pub bias: Option<&'a [f32]>,
    /// Clamp at zero after the bias.
    pub relu: bool,
}

impl Epilogue<'_> {
    /// The identity epilogue: stores the product as it is.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        relu: false,
    };

    /// Whether this epilogue changes nothing.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.bias.is_none() && !self.relu
    }

    /// Apply to `out`, the output columns `col0..col0 + out.len()` of one
    /// row.
    #[inline]
    pub fn apply(&self, out: &mut [f32], col0: usize) {
        if let Some(bias) = self.bias {
            for (v, &b) in out.iter_mut().zip(&bias[col0..]) {
                *v += b;
            }
        }
        if self.relu {
            for v in out.iter_mut() {
                *v = relu(*v);
            }
        }
    }

    /// Apply to every row of the row-major block `out` of width `n`.
    pub fn apply_rows(&self, out: &mut [f32], n: usize) {
        if self.is_none() || n == 0 {
            return;
        }
        for row in out.chunks_exact_mut(n) {
            self.apply(row, 0);
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
    fn relu_clamps_negatives_signed_zeros_and_nan() {
        let mut v = Matrix::from_rows(&[&[-1.0, 0.0, 2.0, -0.0, f32::NAN]]);
        relu_in_place(&mut v);
        let bits: Vec<u32> = v.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, [0, 0, 2.0f32.to_bits(), 0, 0]);
    }

    #[test]
    fn dropout_into_matches_copy_then_apply() {
        let src = [1.5f32, -0.0, f32::NAN, f32::INFINITY, -2.0, 3.0];
        let dropped = [false, true, true, true, false, true];
        let mut want = src;
        apply_dropout(&mut want, &dropped, 0.25);
        let mut got = [0.0f32; 6];
        dropout_into(&src, &dropped, 0.25, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}
