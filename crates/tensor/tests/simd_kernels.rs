//! Property tests pinning the vectorized kernels to the scalar reference
//! across awkward shapes (single rows, prime widths, empties).
//!
//! The accumulation-order policy (see `simd` module docs) promises two
//! different strengths, and this file checks both:
//!
//! - **Bitwise-class kernels** (`add_scaled`, `relu`, reductions' partial
//!   layout) avoid FMA so the vector lanes produce the same bytes as the
//!   scalar loop on every ISA.
//! - **FMA-class kernels** (the GEMM family) contract `a*b + acc` on vector
//!   ISAs, so they match the scalar reference only to rounding — pinned
//!   here at 1e-5 relative tolerance.
//!
//! Everything lives in ONE `#[test]` because the active ISA is process
//! global: parallel test threads flipping `simd::force` would race. This
//! binary owns its process, so a single serial test is safe.

use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::{l2_norm_sq, Matrix, SplitRng};

/// Best vector ISA the host supports, or `None` on scalar-only machines
/// (where the dispatch equivalence is vacuous and the test exits early).
fn host_vector_isa() -> Option<Isa> {
    for isa in [Isa::Avx2, Isa::Neon] {
        if simd::force(isa) == isa {
            return Some(isa);
        }
    }
    simd::force(Isa::Scalar);
    None
}

/// Shapes with remainders in every tile dimension, plus degenerate cases.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 13, 7),   // single output row
    (7, 13, 1),   // single output column
    (4, 8, 16),   // exact tile multiples
    (6, 16, 16),  // one 4x16 tile plus a 2-row remainder
    (13, 11, 17), // primes everywhere
    (33, 3, 9),   // tall with tiny inner dim
    (3, 0, 4),    // empty inner dimension
    (0, 4, 3),    // no rows
];

fn assert_close(vector: &Matrix, scalar: &Matrix, label: &str) {
    assert_eq!(vector.shape(), scalar.shape(), "{label}: shape");
    for (i, (x, y)) in vector.as_slice().iter().zip(scalar.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5 * (1.0 + y.abs()),
            "{label}: element {i}: vector {x} vs scalar {y}"
        );
    }
}

#[test]
fn vectorized_kernels_match_the_scalar_reference() {
    let Some(vector_isa) = host_vector_isa() else {
        eprintln!("host has no vector ISA; dispatch equivalence is vacuous");
        return;
    };
    let mut rng = SplitRng::new(0x51_3d);

    for &(m, k, n) in SHAPES {
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let gt = rng.uniform_matrix(m, n, -1.0, 1.0); // t_matmul's dOut shape
        let c = rng.uniform_matrix(n, k, -1.0, 1.0); // matmul_t's rhs shape

        // Scalar reference pass.
        simd::force(Isa::Scalar);
        let mm_s = a.matmul(&b);
        let at_s = a.t_matmul(&gt);
        let abt_s = a.matmul_t(&c);
        let norm_s = l2_norm_sq(&a);
        let mut axpy_s = gt.clone();
        axpy_s.add_scaled(&mm_s, 0.37);
        let relu_s = a.relu();

        // Vector pass over the same inputs.
        simd::force(vector_isa);
        let label = format!("{m}x{k}x{n}");
        assert_close(&a.matmul(&b), &mm_s, &format!("matmul {label}"));
        assert_close(&a.t_matmul(&gt), &at_s, &format!("t_matmul {label}"));
        assert_close(&a.matmul_t(&c), &abt_s, &format!("matmul_t {label}"));
        let norm_v = l2_norm_sq(&a);
        assert!(
            (norm_v - norm_s).abs() <= 1e-7 * (1.0 + norm_s.abs()),
            "l2_norm_sq {label}: {norm_v} vs {norm_s}"
        );

        // Bitwise-class kernels: exact bytes, not tolerance.
        let mut axpy_v = gt.clone();
        axpy_v.add_scaled(&mm_s, 0.37);
        assert_eq!(
            axpy_v.as_slice(),
            axpy_s.as_slice(),
            "add_scaled {label}: vector lanes must match scalar bytes"
        );
        assert_eq!(
            a.relu().as_slice(),
            relu_s.as_slice(),
            "relu {label}: vector lanes must match scalar bytes"
        );
    }
}
