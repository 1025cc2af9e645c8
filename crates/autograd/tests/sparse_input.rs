//! `Tape::sparse_input` — `[Ã·] dropout(X) · W` over the stored entries of a
//! sparse constant `X` — must equal the chain it replaces, `Mask → [Spmm →]
//! MatMul`, bit for bit: the value, `dW`, and the RNG state after drawing
//! the dropout flags, under the scalar kernels and the host's vector ISA,
//! on a one-thread and a four-thread pool, eagerly and on an inference tape.
//!
//! The ISA is process-global, so the tests of this binary take `MODE_LOCK`
//! before forcing it. The pool resolves its thread count once per process, so
//! the four-thread case reruns this binary with `SKIPNODE_THREADS=4`.

use skipnode_autograd::{AdjId, NodeId, Tape};
use skipnode_sparse::{CooBuilder, CsrMatrix, SPARSE_INPUT_DENSITY_DIVISOR};
use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::{pool, Matrix, SplitRng};
use std::sync::{Arc, Mutex, MutexGuard};

static MODE_LOCK: Mutex<()> = Mutex::new(());

fn mode_lock() -> MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scalar plus the host's vector ISA, when it has one.
fn isas() -> Vec<Isa> {
    let mut out = vec![Isa::Scalar];
    for isa in [Isa::Avx2, Isa::Neon] {
        if simd::force(isa) == isa {
            out.push(isa);
        }
    }
    out
}

/// Sparse features with every awkward case: negative values, stored-looking
/// `-0.0` entries, empty rows, one fully dense row, and exactly
/// `rows · cols / SPARSE_INPUT_DENSITY_DIVISOR` nonzeros — the densest input
/// still on the sparse side of the bound.
fn features(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitRng::new(seed);
    let bound = rows * cols / SPARSE_INPUT_DENSITY_DIVISOR;
    let mut x = Matrix::zeros(rows, cols);
    let dense_row = rows / 2;
    for c in 0..cols {
        x.set(
            dense_row,
            c,
            rng.uniform(-1.0, 1.0) + 2.0 * (c % 2) as f32 - 1.0,
        );
    }
    let mut nnz = cols;
    while nnz < bound {
        let r = rng.below(rows);
        let c = rng.below(cols);
        // Rows 1 and rows-2 stay empty.
        if r == 1 || r == rows - 2 || x.get(r, c) != 0.0 {
            continue;
        }
        x.set(r, c, rng.uniform(-2.0, 2.0));
        nnz += 1;
    }
    for _ in 0..cols {
        let r = rng.below(rows);
        let c = rng.below(cols);
        if x.get(r, c) == 0.0 && r != 1 && r != rows - 2 {
            x.set(r, c, -0.0);
        }
    }
    x
}

/// Asymmetric weights, a self loop on most rows, and one row with no
/// entries at all.
fn adjacency(n: usize, rng: &mut SplitRng) -> Arc<CsrMatrix> {
    let mut b = CooBuilder::new(n, n);
    for u in 0..n - 1 {
        b.push(u, u, 0.5);
        for _ in 0..4 {
            let v = rng.below(n);
            if v != u {
                b.push(u, v, 0.1 + rng.unit() as f32 * 0.3);
            }
        }
    }
    Arc::new(b.build())
}

struct Case {
    x: Matrix,
    adj: Option<Arc<CsrMatrix>>,
    w: Matrix,
    g: Matrix,
}

impl Case {
    fn new(rows: usize, cols: usize, out: usize, with_adj: bool, seed: u64) -> Self {
        let mut rng = SplitRng::new(seed);
        let adj = with_adj.then(|| adjacency(rows, &mut rng));
        Self {
            x: features(rows, cols, seed + 1),
            adj,
            w: rng.uniform_matrix(cols, out, -0.5, 0.5),
            g: rng.uniform_matrix(rows, out, -1.0, 1.0),
        }
    }
}

/// Value, `dW`, and the next draw of the dropout RNG.
type Outcome = (Matrix, Matrix, u64);

/// Record the input layer on `tape`, densely or over the stored entries.
fn record(tape: &mut Tape, case: &Case, sparse: bool, rate: f64, rng: &mut SplitRng) -> NodeId {
    let adj: Option<AdjId> = case.adj.as_ref().map(|a| tape.register_adj(Arc::clone(a)));
    let x = tape.constant_shared(Arc::new(case.x.clone()));
    let w = tape.param(case.w.clone());
    if sparse {
        let xs = tape
            .sparse_features(x)
            .expect("features under the density bound");
        return tape.sparse_input(xs, adj, w, rate, rng);
    }
    let d = tape.dropout(x, rate, rng);
    let p = match adj {
        Some(a) => tape.spmm(a, d),
        None => d,
    };
    tape.matmul(p, w)
}

fn train(case: &Case, sparse: bool, rate: f64) -> Outcome {
    let mut rng = SplitRng::new(2024);
    let mut tape = Tape::new();
    let z = record(&mut tape, case, sparse, rate, &mut rng);
    let value = tape.value(z).clone();
    let w = tape.params()[0];
    let grads = tape.backward(z, case.g.clone());
    (value, grads[w].clone(), rng.next_u64())
}

fn infer(case: &Case, sparse: bool) -> Matrix {
    let mut rng = SplitRng::new(7);
    let mut tape = Tape::inference();
    let z = record(&mut tape, case, sparse, 0.0, &mut rng);
    tape.run(&[z]);
    tape.take_value(z)
}

fn assert_bits(tag: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{tag}: shape");
    let differ = got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(differ, 0, "{tag}: {differ} elements differ bitwise");
}

/// Compare the op with the dense chain on every rate, both forms.
fn check(case_shapes: &[(usize, usize, usize)], tag: &str) {
    for (i, &(rows, cols, out)) in case_shapes.iter().enumerate() {
        for with_adj in [true, false] {
            let case = Case::new(rows, cols, out, with_adj, 100 + i as u64);
            let form = if with_adj { "conv" } else { "dense" };
            for rate in [0.0, 0.5, 0.9] {
                let t = format!("{tag} {rows}x{cols}->{out} {form} rate {rate}");
                let (v_d, dw_d, next_d) = train(&case, false, rate);
                let (v_s, dw_s, next_s) = train(&case, true, rate);
                assert_bits(&format!("{t} value"), &v_s, &v_d);
                assert_bits(&format!("{t} dW"), &dw_s, &dw_d);
                assert_eq!(next_s, next_d, "{t}: RNG left in a different state");
            }
            assert_bits(
                &format!("{tag} {rows}x{cols}->{out} {form} inference"),
                &infer(&case, true),
                &infer(&case, false),
            );
        }
    }
}

#[test]
fn sparse_input_equals_the_dense_chain_bitwise() {
    let _modes = mode_lock();
    for isa in isas() {
        simd::force(isa);
        check(&[(37, 53, 7), (64, 40, 16), (20, 150, 3)], isa.name());
    }
}

/// Large enough that the dense chain's SpMM and GEMM and the op's `S·W`
/// run pooled.
#[test]
fn sparse_input_equals_the_dense_chain_on_a_four_thread_pool() {
    const CHILD: &str = "SPARSE_INPUT_POOL_CHILD";
    if std::env::var(CHILD).is_ok() {
        assert_eq!(pool::num_threads(), 4, "child runs on a four-thread pool");
        let _modes = mode_lock();
        for isa in isas() {
            simd::force(isa);
            check(&[(700, 320, 64)], &format!("4 threads {}", isa.name()));
        }
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args([
            "--exact",
            "sparse_input_equals_the_dense_chain_on_a_four_thread_pool",
            "--nocapture",
        ])
        .env(CHILD, "1")
        .env("SKIPNODE_THREADS", "4")
        .output()
        .expect("spawn the four-thread child");
    assert!(
        out.status.success(),
        "four-thread child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sparse_features_refuses_dense_inputs_parameters_and_int8_tapes() {
    let _modes = mode_lock();
    let x = features(40, 48, 3);
    let bound = 40 * 48 / SPARSE_INPUT_DENSITY_DIVISOR;
    assert_eq!(
        CsrMatrix::from_dense_within(&x, bound).map(|m| m.nnz()),
        Some(bound)
    );
    assert!(CsrMatrix::from_dense_within(&x, bound - 1).is_none());

    let mut tape = Tape::new();
    let sparse = tape.constant(x.clone());
    let dense = tape.constant(Matrix::full(40, 48, 1.0));
    let param = tape.param(x.clone());
    let computed = tape.scale(sparse, 2.0);
    assert!(tape.sparse_features(sparse).is_some());
    assert!(tape.sparse_features(dense).is_none());
    assert!(tape.sparse_features(param).is_none());
    assert!(tape.sparse_features(computed).is_none());

    let mut int8 = Tape::inference_quantized();
    let q = int8.constant(x);
    assert!(int8.sparse_features(q).is_none());
}
