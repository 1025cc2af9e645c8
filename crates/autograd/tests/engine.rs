//! Engine-level behavioural tests: multi-root backward, gradient routing,
//! dropout semantics, and the exact SkipNode gradient-bypass property the
//! paper's Section 5.2.2 claims.

use skipnode_autograd::Tape;
use skipnode_sparse::gcn_adjacency;
use skipnode_tensor::{Matrix, SplitRng};
use std::sync::Arc;

#[test]
fn backward_multi_accumulates_across_roots() {
    // y1 = 2x, y2 = 3x; seeding both with ones gives dx = 2 + 3.
    let mut tape = Tape::new();
    let x = tape.param(Matrix::from_rows(&[&[1.0]]));
    let y1 = tape.scale(x, 2.0);
    let y2 = tape.scale(x, 3.0);
    let ones = Matrix::from_rows(&[&[1.0]]);
    let grads = tape.backward_multi(vec![(y1, ones.clone()), (y2, ones)]);
    assert_eq!(grads[x].get(0, 0), 5.0);
}

#[test]
fn unused_parameters_get_no_gradient() {
    let mut tape = Tape::new();
    let used = tape.param(Matrix::from_rows(&[&[1.0]]));
    let unused = tape.param(Matrix::from_rows(&[&[1.0]]));
    let y = tape.scale(used, 2.0);
    let grads = tape.backward(y, Matrix::from_rows(&[&[1.0]]));
    assert!(grads.get(used).is_some());
    assert!(grads.get(unused).is_none());
}

#[test]
fn constants_block_gradient_flow() {
    let mut tape = Tape::new();
    let c = tape.constant(Matrix::from_rows(&[&[4.0]]));
    let w = tape.param(Matrix::from_rows(&[&[2.0]]));
    let y = tape.matmul(c, w);
    let grads = tape.backward(y, Matrix::from_rows(&[&[1.0]]));
    assert!(
        grads.get(c).is_none(),
        "constant must not receive gradients"
    );
    assert_eq!(grads[w].get(0, 0), 4.0);
}

#[test]
fn diamond_graph_accumulates_through_both_paths() {
    // y = (x * 2) + (x * 3): dx = 5.
    let mut tape = Tape::new();
    let x = tape.param(Matrix::from_rows(&[&[1.0]]));
    let a = tape.scale(x, 2.0);
    let b = tape.scale(x, 3.0);
    let y = tape.add(a, b);
    let grads = tape.backward(y, Matrix::from_rows(&[&[1.0]]));
    assert_eq!(grads[x].get(0, 0), 5.0);
}

#[test]
fn dropout_zero_rate_is_identity_node() {
    let mut tape = Tape::new();
    let mut rng = SplitRng::new(1);
    let x = tape.param(Matrix::from_rows(&[&[1.0, 2.0]]));
    let y = tape.dropout(x, 0.0, &mut rng);
    assert_eq!(x, y, "p=0 must not add a node");
}

#[test]
fn dropout_preserves_expectation() {
    let mut rng = SplitRng::new(2);
    let n = 20_000;
    let mut tape = Tape::new();
    let x = tape.constant(Matrix::full(1, n, 1.0));
    let y = tape.dropout(x, 0.3, &mut rng);
    let mean = tape.value(y).mean();
    assert!((mean - 1.0).abs() < 0.03, "inverted dropout mean {mean}");
}

/// The paper's §5.2.2 gradient-bypass claim, verified mechanically: for a
/// node that skips a layer, the gradient reaching the layer input equals
/// the output gradient exactly (no weight multiplication in between),
/// while non-skipped rows see the usual `W`-transformed gradient.
#[test]
fn skipnode_rows_bypass_weight_multiplication_in_backward() {
    let n = 4;
    let d = 3;
    let mut rng = SplitRng::new(3);
    let adj = Arc::new(gcn_adjacency(n, &[(0, 1), (1, 2), (2, 3)]));
    let x_val = rng.uniform_matrix(n, d, 0.1, 1.0);
    let w_val = rng.uniform_matrix(d, d, -0.5, 0.5);

    let run = |mask: &[bool]| -> Matrix {
        let mut tape = Tape::new();
        let x = tape.param(x_val.clone());
        let w = tape.constant(w_val.clone());
        let a = tape.register_adj(adj.clone());
        let conv = tape.spmm(a, x);
        let conv = tape.matmul(conv, w);
        let out = tape.row_combine(conv, x, mask);
        // Seed only row 0 of the output.
        let mut seed = Matrix::zeros(n, d);
        for c in 0..d {
            seed.set(0, c, 1.0);
        }
        let grads = tape.backward(out, seed);
        grads[x].clone()
    };

    // Row 0 skipped: its input gradient must be exactly the seed (identity
    // path), untouched by Ã or W.
    let g_skip = run(&[true, false, false, false]);
    for c in 0..d {
        assert!((g_skip.get(0, c) - 1.0).abs() < 1e-6);
    }
    // Rows 1..: zero, since only row 0 was seeded and it bypassed the conv.
    for r in 1..n {
        for c in 0..d {
            assert_eq!(g_skip.get(r, c), 0.0);
        }
    }

    // Row 0 not skipped: gradient spreads through Ã and Wᵀ — different
    // from the identity and reaching neighbors.
    let g_conv = run(&[false, false, false, false]);
    let mut differs = false;
    for c in 0..d {
        if (g_conv.get(0, c) - 1.0).abs() > 1e-4 {
            differs = true;
        }
    }
    assert!(differs, "conv path should transform the gradient");
    let neighbor_mass: f32 = (0..d).map(|c| g_conv.get(1, c).abs()).sum();
    assert!(neighbor_mass > 0.0, "conv path should reach neighbors");
}

#[test]
fn relu_kills_gradient_on_negative_preactivations() {
    let mut tape = Tape::new();
    let x = tape.param(Matrix::from_rows(&[&[-1.0, 2.0]]));
    let y = tape.relu(x);
    let grads = tape.backward(y, Matrix::from_rows(&[&[1.0, 1.0]]));
    assert_eq!(grads[x].row(0), &[0.0, 1.0]);
}

#[test]
fn only_leaf_gradients_are_kept() {
    // Each interior gradient is consumed by the backward step that
    // propagates it, so the result holds leaf gradients only. The Figure
    // 2(b) classifier-gradient diagnostic reads the loss seed instead.
    let mut tape = Tape::new();
    let x = tape.param(Matrix::from_rows(&[&[1.0]]));
    let h = tape.scale(x, 2.0);
    let y = tape.scale(h, 3.0);
    let grads = tape.backward(y, Matrix::from_rows(&[&[1.0]]));
    assert_eq!(grads[x].get(0, 0), 6.0);
    assert!(grads.get(h).is_none(), "interior gradient retained");
    assert!(grads.get(y).is_none(), "root gradient retained");
}

#[test]
fn seed_shape_mismatch_panics() {
    let mut tape = Tape::new();
    let x = tape.param(Matrix::zeros(2, 2));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = tape.backward(x, Matrix::zeros(1, 1));
    }));
    assert!(result.is_err());
}
