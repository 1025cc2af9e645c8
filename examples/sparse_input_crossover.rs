//! Where the sparse input layer pays: one training step of the input layer
//! `Ã · dropout(X) · W` (dropout 0.5, forward and `dW`) as the dense chain
//! `Mask → Spmm → MatMul` against `Tape::sparse_input` over `X`'s stored
//! entries, at feature densities from 2% to 32%, on a Cora-sized
//! (2,708 × 1,433) and an arxiv-sized (12,000 × 128) input, hidden 64.
//!
//! Prints the median step of each path and their ratio. The sparse path's
//! one-off CSR build (once per recorded tape) is printed separately. The
//! density bound `skipnode_sparse::SPARSE_INPUT_DENSITY_DIVISOR` is read off
//! where the ratio crosses 1.
//!
//! Run: `SKIPNODE_THREADS=1 cargo run --release --example sparse_input_crossover`

use skipnode::autograd::Tape;
use skipnode::sparse::{gcn_adjacency, CsrMatrix};
use skipnode::tensor::{Matrix, SplitRng};
use std::sync::Arc;
use std::time::Instant;

const HIDDEN: usize = 64;
const REPS: usize = 15;

fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

fn features(n: usize, f: usize, density: f64, rng: &mut SplitRng) -> Matrix {
    let mut x = Matrix::zeros(n, f);
    for v in x.as_mut_slice() {
        if rng.bernoulli(density) {
            *v = 1.0;
        }
    }
    x
}

/// One input-layer step: record (with dropout), then backward for `dW`.
fn step(adj: &Arc<CsrMatrix>, x: &Arc<Matrix>, xs: Option<&Arc<CsrMatrix>>, w: &Matrix) {
    let mut rng = SplitRng::new(1);
    let mut tape = Tape::new();
    let a = tape.register_adj(Arc::clone(adj));
    let xn = tape.constant_shared(Arc::clone(x));
    let wn = tape.param(w.clone());
    let z = match xs {
        Some(xs) => tape.sparse_input(Arc::clone(xs), Some(a), wn, 0.5, &mut rng),
        None => {
            let d = tape.dropout(xn, 0.5, &mut rng);
            let p = tape.spmm(a, d);
            tape.matmul(p, wn)
        }
    };
    let g = Matrix::full(x.rows(), HIDDEN, 0.01);
    std::hint::black_box(tape.backward(z, g));
}

fn main() {
    let mut rng = SplitRng::new(7);
    println!("shape         density  dense_ms  sparse_ms  sparse/dense  csr_build_ms");
    for (n, f) in [(2708usize, 1433usize), (12_000, 128)] {
        let edges: Vec<(usize, usize)> = (0..4 * n)
            .map(|_| (rng.below(n), rng.below(n)))
            .filter(|(u, v)| u != v)
            .collect();
        let adj = Arc::new(gcn_adjacency(n, &edges));
        let w = rng.uniform_matrix(f, HIDDEN, -0.1, 0.1);
        for density in [0.02, 0.04, 0.0625, 0.08, 0.12, 0.16, 0.32] {
            let x = Arc::new(features(n, f, density, &mut rng));
            let xs = Arc::new(CsrMatrix::from_dense_within(&x, usize::MAX).expect("no bound"));
            let dense = median_ms(|| step(&adj, &x, None, &w));
            let sparse = median_ms(|| step(&adj, &x, Some(&xs), &w));
            let build = median_ms(|| {
                std::hint::black_box(CsrMatrix::from_dense_within(&x, usize::MAX));
            });
            println!(
                "{n:>5}x{f:<5}  {:>6.2}%  {dense:>8.2}  {sparse:>9.2}  {:>12.2}  {build:>12.2}",
                density * 100.0,
                sparse / dense,
            );
        }
    }
}
