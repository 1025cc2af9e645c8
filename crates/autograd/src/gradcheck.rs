//! Finite-difference gradient checking.
//!
//! Used pervasively by this crate's test suite: every op's analytic
//! backward is validated against a central finite difference of a scalar
//! functional of the forward output.

use crate::tape::{NodeId, Tape};
use skipnode_tensor::Matrix;

/// Check the analytic gradient of `build` at `input` against central
/// finite differences.
///
/// `build(tape, x_id)` must construct a graph rooted at some output node
/// and return it; the scalar functional is `0.5 * Σ out²` so the seed
/// gradient is simply `out`.
///
/// Returns the maximum absolute deviation between analytic and numeric
/// gradients. Callers assert a tolerance.
pub fn finite_difference_check(
    input: &Matrix,
    eps: f32,
    build: impl Fn(&mut Tape, NodeId) -> NodeId,
) -> f32 {
    // Analytic pass.
    let mut tape = Tape::new();
    let x = tape.param(input.clone());
    let out = build(&mut tape, x);
    let seed = tape.value(out).clone();
    let grads = tape.backward(out, seed);
    let analytic = grads[x].clone();

    // Numeric pass.
    let scalar = |m: &Matrix| -> f64 {
        let mut tape = Tape::new();
        let x = tape.constant(m.clone());
        let out = build(&mut tape, x);
        0.5 * skipnode_tensor::l2_norm_sq(tape.value(out))
    };
    let mut worst = 0.0f32;
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] -= eps;
        let fd = ((scalar(&plus) - scalar(&minus)) / (2.0 * eps as f64)) as f32;
        let dev = (fd - analytic.as_slice()[i]).abs();
        worst = worst.max(dev);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipnode_sparse::gcn_adjacency;
    use skipnode_tensor::SplitRng;
    use std::sync::Arc;

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        SplitRng::new(seed).uniform_matrix(rows, cols, -1.0, 1.0)
    }

    #[test]
    fn matmul_gradient() {
        let x = rand_matrix(4, 3, 1);
        let w = rand_matrix(3, 5, 2);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let wid = t.constant(w.clone());
            t.matmul(xid, wid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn matmul_weight_gradient() {
        // Check gradient w.r.t. the second operand as well.
        let x = rand_matrix(4, 3, 3);
        let w = rand_matrix(3, 2, 4);
        let dev = finite_difference_check(&w, 1e-2, |t, wid| {
            let xid = t.constant(x.clone());
            t.matmul(xid, wid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn spmm_gradient() {
        let adj = Arc::new(gcn_adjacency(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]));
        let x = rand_matrix(5, 3, 5);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let a = t.register_adj(adj.clone());
            t.spmm(a, xid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn relu_gradient() {
        // Keep inputs away from the kink.
        let mut x = rand_matrix(6, 4, 6);
        x.map_in_place(|v| if v.abs() < 0.2 { v + 0.4 } else { v });
        let dev = finite_difference_check(&x, 1e-3, |t, xid| t.relu(xid));
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn add_scaled_gradient() {
        let x = rand_matrix(3, 3, 7);
        let y = rand_matrix(3, 3, 8);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let yid = t.constant(y.clone());
            t.add_scaled(xid, yid, -0.7)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn add_bias_gradient_wrt_bias() {
        let x = rand_matrix(5, 3, 9);
        let b = rand_matrix(1, 3, 10);
        let dev = finite_difference_check(&b, 1e-2, |t, bid| {
            let xid = t.constant(x.clone());
            t.add_bias(xid, bid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn row_combine_gradient_through_both_branches() {
        let x = rand_matrix(6, 3, 11);
        let mask = [true, false, true, false, false, true];
        // conv branch = x*W, skip branch = x: both depend on x.
        let w = rand_matrix(3, 3, 12);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let wid = t.constant(w.clone());
            let conv = t.matmul(xid, wid);
            t.row_combine(conv, xid, &mask)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn concat_cols_gradient() {
        let x = rand_matrix(4, 3, 13);
        let w = rand_matrix(3, 2, 14);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let wid = t.constant(w.clone());
            let h = t.matmul(xid, wid);
            t.concat_cols(&[xid, h])
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn max_pool_gradient_away_from_ties() {
        let mut a = rand_matrix(4, 4, 15);
        a.map_in_place(|v| v * 2.0);
        let b = rand_matrix(4, 4, 16);
        let dev = finite_difference_check(&a, 1e-3, |t, aid| {
            let bid = t.constant(b.clone());
            t.max_pool(&[aid, bid])
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn readout_gradient_all_kinds() {
        use skipnode_tensor::{ReadoutKind, SegmentTable};
        // Three segments, one empty; max inputs scaled away from ties.
        let seg = Arc::new(SegmentTable::from_lens(&[3, 0, 4]));
        let mut x = rand_matrix(7, 3, 31);
        x.map_in_place(|v| v * 2.0);
        for kind in [ReadoutKind::Mean, ReadoutKind::Sum, ReadoutKind::Max] {
            let eps = if kind == ReadoutKind::Max { 1e-3 } else { 1e-2 };
            let dev = finite_difference_check(&x, eps, |t, xid| t.readout(xid, kind, &seg));
            assert!(dev < 2e-2, "{kind:?} dev {dev}");
        }
    }

    #[test]
    fn readout_composes_with_dense_head() {
        use skipnode_tensor::{ReadoutKind, SegmentTable};
        // Conv-style body → readout → dense head: the graph-classification
        // shape. Gradients must flow through the pooling into the body.
        let adj = Arc::new(gcn_adjacency(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]));
        let seg = Arc::new(SegmentTable::from_lens(&[3, 3]));
        let x = rand_matrix(6, 4, 32);
        let w = rand_matrix(4, 4, 33);
        let head = rand_matrix(4, 2, 34);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let a = t.register_adj(adj.clone());
            let wid = t.constant(w.clone());
            let hid = t.constant(head.clone());
            let h = t.spmm(a, xid);
            let h = t.matmul(h, wid);
            let h = t.relu(h);
            let r = t.readout(h, ReadoutKind::Mean, &seg);
            t.matmul(r, hid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn pairnorm_gradient() {
        let x = rand_matrix(6, 4, 17);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| t.pairnorm(xid, 1.0));
        assert!(dev < 3e-2, "dev {dev}");
    }

    #[test]
    fn hadamard_gradient() {
        let x = rand_matrix(3, 4, 18);
        let y = rand_matrix(3, 4, 19);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let yid = t.constant(y.clone());
            t.hadamard(xid, yid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn lin_comb_gradient() {
        let x = rand_matrix(3, 3, 20);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let sq = t.hadamard(xid, xid);
            t.lin_comb(&[(xid, 0.3), (sq, 0.7)])
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn weighted_sum_gradient_wrt_weights() {
        let x1 = rand_matrix(4, 3, 21);
        let x2 = rand_matrix(4, 3, 22);
        let w = rand_matrix(1, 2, 23);
        let dev = finite_difference_check(&w, 1e-2, |t, wid| {
            let a = t.constant(x1.clone());
            let b = t.constant(x2.clone());
            t.weighted_sum(&[a, b], wid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn weighted_sum_gradient_wrt_inputs() {
        let x2 = rand_matrix(4, 3, 24);
        let w = rand_matrix(1, 2, 25);
        let x1 = rand_matrix(4, 3, 26);
        let dev = finite_difference_check(&x1, 1e-2, |t, xid| {
            let b = t.constant(x2.clone());
            let wid = t.constant(w.clone());
            t.weighted_sum(&[xid, b], wid)
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn edge_score_gradient() {
        let h = rand_matrix(5, 3, 27);
        let edges = [(0usize, 1usize), (1, 2), (3, 4), (0, 4)];
        let dev = finite_difference_check(&h, 1e-2, |t, hid| t.edge_score(hid, &edges));
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn scale_gradient() {
        let x = rand_matrix(3, 4, 35);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| t.scale(xid, -1.7));
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn dropout_gradient_under_a_fixed_mask() {
        // A same-seed RNG per evaluation draws the same mask every time.
        let x = rand_matrix(5, 4, 36);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            t.dropout(xid, 0.4, &mut SplitRng::new(37))
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    #[test]
    fn dropout_rows_gradient_under_a_fixed_mask() {
        let x = rand_matrix(6, 3, 38);
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            t.dropout_rows(xid, 0.5, &mut SplitRng::new(39))
        });
        assert!(dev < 2e-2, "dev {dev}");
    }

    /// Finite-difference check of one fused `skip_conv_step` variant with
    /// respect to each operand it uses, with half of the rows skipped.
    fn check_skip_conv_step(bias: bool, init_alpha: Option<f32>, beta: Option<f32>, res: bool) {
        use crate::FusedStep;
        let n = 6;
        let d = 3;
        let adj = Arc::new(gcn_adjacency(
            n,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        ));
        let mask = [true, false, false, true, false, true];
        // Operand roles: x, skip, w, b, h0, residual.
        let shapes = [(n, d), (n, d), (d, d), (1, d), (n, d), (n, d)];
        let vals: Vec<Matrix> = shapes
            .iter()
            .enumerate()
            .map(|(k, &(r, c))| rand_matrix(r, c, 40 + k as u64))
            .collect();
        let used = [true, true, true, bias, init_alpha.is_some(), res];
        for role in (0..vals.len()).filter(|&k| used[k]) {
            let dev = finite_difference_check(&vals[role], 1e-2, |t, id| {
                let a = t.register_adj(adj.clone());
                let mut node = |k: usize| {
                    if k == role {
                        id
                    } else {
                        t.constant(vals[k].clone())
                    }
                };
                let step = FusedStep {
                    x: node(0),
                    skip: node(1),
                    w: node(2),
                    b: bias.then(|| node(3)),
                    init_residual: init_alpha.map(|alpha| (node(4), alpha)),
                    identity_map: beta,
                    residual: res.then(|| node(5)),
                    dropout: 0.0,
                };
                t.skip_conv_step(a, step, &mut SplitRng::new(0), |_| mask.to_vec())
            });
            let variant = (bias, init_alpha, beta, res);
            assert!(dev < 3e-2, "{variant:?} operand {role}: dev {dev}");
        }
    }

    #[test]
    fn skip_conv_step_gradient_in_every_variant() {
        check_skip_conv_step(true, None, None, false);
        check_skip_conv_step(false, Some(0.3), None, false);
        check_skip_conv_step(false, None, Some(0.4), false);
        check_skip_conv_step(false, None, None, true);
        check_skip_conv_step(true, Some(0.3), Some(0.4), true);
    }

    #[test]
    fn deep_composite_gradient() {
        // A miniature 3-layer GCN with SkipNode and PairNorm: the ops must
        // compose correctly end-to-end.
        let adj = Arc::new(gcn_adjacency(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]));
        let x = rand_matrix(6, 4, 28);
        let w1 = rand_matrix(4, 4, 29);
        let w2 = rand_matrix(4, 4, 30);
        let mask = [false, true, false, true, true, false];
        let dev = finite_difference_check(&x, 1e-2, |t, xid| {
            let a = t.register_adj(adj.clone());
            let w1id = t.constant(w1.clone());
            let w2id = t.constant(w2.clone());
            let h = t.spmm(a, xid);
            let h = t.matmul(h, w1id);
            let h = t.relu(h);
            let h = t.row_combine(h, xid, &mask);
            let h = t.pairnorm(h, 1.0);
            let h = t.spmm(a, h);
            t.matmul(h, w2id)
        });
        assert!(dev < 5e-2, "dev {dev}");
    }
}
