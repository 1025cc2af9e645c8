//! Property-style tests on the core data structures and the paper's
//! invariants. Each test sweeps randomized cases from fixed [`SplitRng`]
//! seeds, so failures are exactly reproducible with no external framework.

use skipnode::core::theory::{theorem2_coefficient, theorem3_min_rho};
use skipnode::sparse::{gcn_adjacency, CsrMatrix, SmoothingSubspace};
use skipnode::tensor::SplitRng;

/// Random undirected edge list over `n` nodes (self-loops filtered).
fn random_edges(rng: &mut SplitRng, n: usize) -> Vec<(usize, usize)> {
    let count = 1 + rng.below(2 * n - 1);
    (0..count)
        .map(|_| (rng.below(n), rng.below(n)))
        .filter(|(u, v)| u != v)
        .collect()
}

/// Ã is always symmetric with spectrum in (-1, 1]: propagation never
/// amplifies, and the smoothing-subspace vectors are fixed points.
#[test]
fn gcn_adjacency_is_symmetric_contraction() {
    for seed in 0..64u64 {
        let mut erng = SplitRng::new(0x1000 + seed);
        let n = 24;
        let edges = random_edges(&mut erng, n);
        let adj = gcn_adjacency(n, &edges);
        assert!(adj.is_symmetric(1e-5));
        // Spectral bound via norm of repeated application to a random vec.
        let mut rng = SplitRng::new(1);
        let mut v: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let norm = |x: &[f32]| x.iter().map(|&a| (a as f64).powi(2)).sum::<f64>().sqrt();
        let mut out = vec![0.0f32; n];
        for _ in 0..3 {
            let before = norm(&v);
            adj.spmv_into(&v, &mut out);
            let after = norm(&out);
            assert!(after <= before * (1.0 + 1e-5), "{after} > {before}");
            v.copy_from_slice(&out);
        }
    }
}

/// d_M is a genuine distance to a subspace: non-negative, zero for subspace
/// members, and 1-Lipschitz under addition.
#[test]
fn subspace_distance_properties() {
    for seed in 0..64u64 {
        let mut rng = SplitRng::new(0x2000 + seed);
        let n = 16;
        let edges = random_edges(&mut rng, n);
        let s = SmoothingSubspace::from_edges(n, &edges);
        let x = rng.uniform_matrix(n, 4, -1.0, 1.0);
        let y = rng.uniform_matrix(n, 4, -1.0, 1.0);
        let dx = s.distance(&x);
        let dy = s.distance(&y);
        assert!(dx >= 0.0);
        // Projection residual lies orthogonal: distance of residual equals
        // distance of original (idempotence).
        let r = s.residual(&x);
        assert!((s.distance(&r) - dx).abs() < 1e-3 * (1.0 + dx));
        // Triangle inequality.
        let sum = x.zip(&y, |a, b| a + b);
        assert!(s.distance(&sum) <= dx + dy + 1e-4);
    }
}

/// Theorem 2's coefficient is monotone in ρ and always at least sλ —
/// SkipNode can only loosen the contraction, never tighten it.
#[test]
fn theorem2_coefficient_monotone() {
    for seed in 0..64u64 {
        let mut rng = SplitRng::new(0x3000 + seed);
        let sl = 0.01 + 0.98 * rng.unit();
        let rho1 = 0.01 + 0.97 * rng.unit();
        let drho = 0.001 + 0.009 * rng.unit();
        let rho2 = (rho1 + drho).min(0.99);
        let c1 = theorem2_coefficient(sl, rho1);
        let c2 = theorem2_coefficient(sl, rho2);
        assert!(c1 >= sl);
        assert!(c2 >= c1);
        assert!(c1 <= 1.0 + 1e-12);
    }
}

/// Theorem 3's critical ρ is in (0, 1) whenever sλ < 1, and decreases as
/// smoothing gets stronger (smaller sλ ⇒ easier to satisfy).
#[test]
fn theorem3_min_rho_behaviour() {
    for seed in 0..64u64 {
        let mut rng = SplitRng::new(0x4000 + seed);
        let sl = 0.01 + 0.98 * rng.unit();
        let dsl = 0.001 + 0.009 * rng.unit();
        let r1 = theorem3_min_rho(sl);
        assert!(r1 > 0.0 && r1 < 1.0, "min rho {r1}");
        let r2 = theorem3_min_rho((sl - dsl).max(1e-4));
        assert!(r2 <= r1 + 1e-12);
    }
}

/// CSR transpose is an involution and preserves every entry.
#[test]
fn csr_transpose_involution() {
    for seed in 0..64u64 {
        let mut rng = SplitRng::new(0x5000 + seed);
        let edges = random_edges(&mut rng, 12);
        let adj = gcn_adjacency(12, &edges);
        let t = adj.transpose();
        assert_eq!(t.transpose(), adj.clone());
        assert_eq!(adj.nnz(), t.nnz());
    }
}

/// SpMM distributes over addition: Ã(X + Y) = ÃX + ÃY.
#[test]
fn spmm_is_linear() {
    for seed in 0..64u64 {
        let mut rng = SplitRng::new(0x6000 + seed);
        let edges = random_edges(&mut rng, 10);
        let adj = gcn_adjacency(10, &edges);
        let x = rng.uniform_matrix(10, 3, -1.0, 1.0);
        let y = rng.uniform_matrix(10, 3, -1.0, 1.0);
        let lhs = adj.spmm(&x.zip(&y, |a, b| a + b));
        let rhs_x = adj.spmm(&x);
        let rhs_y = adj.spmm(&y);
        for i in 0..lhs.len() {
            let want = rhs_x.as_slice()[i] + rhs_y.as_slice()[i];
            assert!((lhs.as_slice()[i] - want).abs() < 1e-4);
        }
    }
}

/// The SkipNode mask respects its contract for every sampler: correct
/// length, and exactly ⌊ρN⌋ skips for the without-replacement modes.
#[test]
fn skipnode_mask_contract() {
    use skipnode::core::{Sampling, SkipNodeConfig};
    for seed in 0..32u64 {
        let mut rng = SplitRng::new(0x7000 + seed);
        let rate = 0.05 + 0.90 * rng.unit();
        let degrees: Vec<usize> = (0..97).map(|i| i % 13).collect();
        for sampling in [
            Sampling::Uniform,
            Sampling::Biased,
            Sampling::InverseBiased,
            Sampling::TopDegree,
        ] {
            let cfg = SkipNodeConfig::new(rate, sampling);
            let mask = cfg.sample_mask(&degrees, &mut rng);
            assert_eq!(mask.len(), degrees.len());
            let k = mask.iter().filter(|&&m| m).count();
            if sampling != Sampling::Uniform {
                assert_eq!(k, (rate * 97.0).floor() as usize);
            }
        }
    }
}

/// Autograd matmul gradients agree with finite differences for random
/// shapes — the engine-level invariant everything else rests on.
#[test]
fn matmul_gradcheck() {
    use skipnode::autograd::finite_difference_check;
    for seed in 0..32u64 {
        let mut rng = SplitRng::new(0x8000 + seed);
        let rows = 1 + rng.below(5);
        let inner = 1 + rng.below(5);
        let cols = 1 + rng.below(5);
        let x = rng.uniform_matrix(rows, inner, -1.0, 1.0);
        let w = rng.uniform_matrix(inner, cols, -1.0, 1.0);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let wid = t.constant(w.clone());
            t.matmul(xid, wid)
        });
        assert!(dev < 5e-2, "max deviation {dev}");
    }
}

/// PairNorm output always has (near-)zero column means and the target
/// scale, for any input.
#[test]
fn pairnorm_normalizes() {
    use skipnode::autograd::Tape;
    for seed in 0..32u64 {
        let mut rng = SplitRng::new(0x9000 + seed);
        let rows = 2 + rng.below(18);
        let cols = 1 + rng.below(7);
        let x = rng.uniform_matrix(rows, cols, -3.0, 3.0);
        let mut tape = Tape::new();
        let xid = tape.constant(x);
        let out = tape.pairnorm(xid, 1.0);
        let v = tape.value(out);
        let mean = v.col_mean();
        for c in 0..cols {
            assert!(
                mean.get(0, c).abs() < 1e-3,
                "column {c} mean {}",
                mean.get(0, c)
            );
        }
        // ||out||_F = s * sqrt(n)
        let fro = skipnode::tensor::frobenius_norm(v);
        let want = (rows as f64).sqrt();
        assert!((fro - want).abs() < 1e-2 * want, "fro {fro} want {want}");
    }
}

/// Deterministic regression: the same seed generates byte-identical CSR
/// matrices (guards the dataset pipeline against an accidental change of RNG draw order).
#[test]
fn adjacency_generation_is_reproducible() {
    let build = || -> std::sync::Arc<CsrMatrix> {
        let g = skipnode::graph::load(
            skipnode::graph::DatasetName::Cornell,
            skipnode::graph::Scale::Bench,
            99,
        );
        g.gcn_adjacency()
    };
    assert_eq!(build(), build());
}
