//! Property tests for the int8 inference GEMM: vector-vs-scalar bit
//! identity of [`qgemm`] and its accuracy against the f32 product.
//!
//! Everything lives in ONE `#[test]` because the active ISA
//! (`simd::force`) is process-global: parallel test threads flipping it
//! would race. This binary owns its process, so a single serial test is
//! safe.

use skipnode_tensor::quant::{qgemm, QuantizedMatrix};
use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::{Matrix, SplitRng};

/// Best vector ISA the host supports, or `None` on scalar-only machines
/// (where vector-vs-scalar equivalence is vacuous).
fn host_vector_isa() -> Option<Isa> {
    for isa in [Isa::Avx2, Isa::Neon] {
        if simd::force(isa) == isa {
            return Some(isa);
        }
    }
    simd::force(Isa::Scalar);
    None
}

fn qgemm_bit_identity_and_accuracy(vector_isa: Isa, rng: &mut SplitRng) {
    for (m, k, n) in [(1, 64, 9), (17, 96, 12), (33, 130, 5), (9, 31, 16)] {
        let mut a = rng.uniform_matrix(m, k, -2.0, 2.0);
        for c in 0..k {
            a.set(m / 2, c, 0.25); // constant row: affine-correction path
        }
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let qb = QuantizedMatrix::from_cols(&b);

        simd::force(vector_isa);
        let mut fast = Matrix::full(m, n, f32::NAN);
        qgemm(&a, &qb, &mut fast);
        simd::force(Isa::Scalar);
        let mut slow = Matrix::full(m, n, f32::NAN);
        qgemm(&a, &qb, &mut slow);
        simd::force(vector_isa);
        assert_eq!(
            fast.as_slice(),
            slow.as_slice(),
            "qgemm must be bit-identical across ISAs at ({m},{k},{n})"
        );

        // 7-bit affine activations x 6-bit weights track the f32 product
        // within the scales' error bound (loose absolute check).
        let reference = a.matmul(&b);
        for (q, f) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (q - f).abs() <= 0.05 * (k as f32).sqrt() + 0.05,
                "qgemm accuracy at ({m},{k},{n}): {q} vs {f}"
            );
        }
    }
}

#[test]
fn int8_gemm_holds_its_contracts() {
    let Some(vector_isa) = host_vector_isa() else {
        eprintln!("host has no vector ISA; vector-vs-scalar checks are vacuous");
        let mut rng = SplitRng::new(17);
        qgemm_bit_identity_and_accuracy(Isa::Scalar, &mut rng);
        return;
    };
    let mut rng = SplitRng::new(4242);
    qgemm_bit_identity_and_accuracy(vector_isa, &mut rng);
}
