//! Forward op constructors on [`Tape`].
//!
//! A constructor checks shapes, draws its RNG values (masks are part of
//! the op record), and records the op through `Tape::record`. It computes
//! nothing itself: a training tape evaluates the node on the spot through
//! `Tape::eval_node`, the one forward interpreter that compiled replay and
//! [`Tape::run`] also use, while an inference tape ([`Tape::inference`])
//! leaves a shape-only placeholder that [`Tape::run`] materializes later
//! with operand liveness.

use crate::tape::{AdjId, NodeId, Op, SkipConvCache, Tape};
use skipnode_sparse::{CsrMatrix, COL_SKIP, SPARSE_INPUT_DENSITY_DIVISOR};
use skipnode_tensor::{Matrix, ReadoutKind, SegmentTable, SplitRng};
use std::sync::Arc;

/// Operand bundle for the generalized fused masked layer
/// ([`Tape::skip_conv_step`]). Describes one activated graph-convolution
/// step `relu(support · W [+ b]) [+ residual]` where
/// `support = (1−α)·Ã·x + α·h0` when an initial residual is present (GCNII)
/// and plain `Ã·x` otherwise, with the identity map
/// `z = (1−β)·support + β·support·W` replacing the plain GEMM when
/// `identity_map` is set.
#[derive(Debug, Clone, Copy)]
pub struct FusedStep {
    /// Layer input propagated through the adjacency.
    pub x: NodeId,
    /// Skip branch: rows with `take_skip[i]` copy this node's row verbatim.
    /// Must already have the output shape `n × d_out`.
    pub skip: NodeId,
    /// Weight matrix (`d_in × d_out`).
    pub w: NodeId,
    /// Optional bias row (`1 × d_out`).
    pub b: Option<NodeId>,
    /// GCNII-style initial residual `(h0, α)`: the propagation is mixed
    /// with `h0` *before* the GEMM. `h0` must be `n × d_in`.
    pub init_residual: Option<(NodeId, f32)>,
    /// GCNII identity-map coefficient β: `z = (1−β)·support + β·support·W`.
    /// Requires `d_in == d_out`.
    pub identity_map: Option<f32>,
    /// ResGCN-style residual added *after* the ReLU on active rows. Must be
    /// `n × d_out`.
    pub residual: Option<NodeId>,
}

impl Tape {
    /// Dense product `a * b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, inner) = self.shape(a);
        let (b_rows, cols) = self.shape(b);
        assert_eq!(inner, b_rows, "matmul shape mismatch");
        self.record(rows, cols, Op::MatMul(a, b))
    }

    /// Sparse propagation `Ã * x`.
    pub fn spmm(&mut self, adj: AdjId, x: NodeId) -> NodeId {
        let rows = self.adjs[adj.0].mat.rows();
        let cols = self.shape(x).1;
        self.record(rows, cols, Op::Spmm { adj: adj.0, x })
    }

    /// `a + b`.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add_scaled(a, b, 1.0)
    }

    /// `a + c * b`.
    pub fn add_scaled(&mut self, a: NodeId, b: NodeId, c: f32) -> NodeId {
        let (rows, cols) = self.shape(a);
        assert_eq!((rows, cols), self.shape(b), "add_scaled shape mismatch");
        self.record(rows, cols, Op::AddScaled(a, b, c))
    }

    /// `c * x`.
    pub fn scale(&mut self, x: NodeId, c: f32) -> NodeId {
        let (rows, cols) = self.shape(x);
        self.record(rows, cols, Op::Scale(x, c))
    }

    /// Broadcast bias add: `x (n×d) + bias (1×d)`.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let (rows, cols) = self.shape(x);
        assert_eq!(self.shape(bias).0, 1, "bias must be a row vector");
        assert_eq!(self.shape(bias).1, cols, "bias width mismatch");
        self.record(rows, cols, Op::AddBias(x, bias))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = self.shape(x);
        self.record(rows, cols, Op::Relu(x))
    }

    /// Inverted dropout with rate `p` (no-op when `p == 0`).
    pub fn dropout(&mut self, x: NodeId, p: f64, rng: &mut SplitRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1)");
        if p == 0.0 {
            return x;
        }
        let (rows, cols) = self.shape(x);
        let mut dropped = vec![false; rows * cols];
        rng.fill_bernoulli(p, &mut dropped);
        self.record(
            rows,
            cols,
            Op::Mask {
                x,
                dropped,
                rate: p,
            },
        )
    }

    /// The stored entries of `x` when [`Tape::sparse_input`] may stand in
    /// for the dense chain over it: `x` is a constant leaf (no gradient),
    /// the tape is not int8-quantized (which keeps its quantized GEMM), and
    /// at most `rows · cols /`
    /// [`SPARSE_INPUT_DENSITY_DIVISOR`] entries of `x` are nonzero. `None`
    /// otherwise. Builds the CSR with one counting pass that stops at the
    /// bound, so dense inputs pay a fraction of a pass.
    pub fn sparse_features(&self, x: NodeId) -> Option<Arc<CsrMatrix>> {
        let node = &self.nodes[x.0];
        if !matches!(node.op, Op::Leaf) || node.requires_grad || self.is_quantized() {
            return None;
        }
        let m = node.value.matrix();
        let max_nnz = m.rows() * m.cols() / SPARSE_INPUT_DENSITY_DIVISOR;
        CsrMatrix::from_dense_within(m, max_nnz).map(Arc::new)
    }

    /// Sparse input layer `[Ã·] dropout(X) · W` over the stored entries
    /// `xs` of a constant input `X` (from [`Tape::sparse_features`]), with
    /// inverted dropout at `rate` (none at `0`) and `Ã` optional.
    ///
    /// Stands in for `spmm(adj, dropout(x, rate))` followed by `matmul`
    /// (or for `dropout → matmul` without `adj`): it draws the same `n·f`
    /// dropout flags in the same order, keeps only those at `X`'s stored
    /// entries, and its value and `dW` are bit-identical to the chain's.
    /// No dense copy of `X`, `dropout(X)` or `Ã·dropout(X)` is made. There is
    /// no gradient for `X`.
    pub fn sparse_input(
        &mut self,
        xs: Arc<CsrMatrix>,
        adj: Option<AdjId>,
        w: NodeId,
        rate: f64,
        rng: &mut SplitRng,
    ) -> NodeId {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0,1)");
        let (w_rows, cols) = self.shape(w);
        assert_eq!(xs.cols(), w_rows, "sparse_input shape mismatch");
        let rows = match adj {
            Some(a) => {
                let mat = &self.adjs[a.0].mat;
                assert_eq!(mat.cols(), xs.rows(), "sparse_input adjacency shape");
                mat.rows()
            }
            None => xs.rows(),
        };
        let mut dropped = Vec::new();
        if rate > 0.0 {
            dropped.resize(xs.nnz(), false);
            let len = xs.rows() * xs.cols();
            rng.fill_bernoulli_at(rate, len, xs.stored_positions(), &mut dropped);
        }
        self.record(
            rows,
            cols,
            Op::SparseInput {
                xs,
                adj: adj.map(|a| a.0),
                w,
                dropped,
                rate,
                support: CsrMatrix::zeros(0, 0),
            },
        )
    }

    /// Row-level dropout (GRAND's random propagation masks whole node
    /// feature rows), with inverted scaling.
    pub fn dropout_rows(&mut self, x: NodeId, p: f64, rng: &mut SplitRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1)");
        if p == 0.0 {
            return x;
        }
        let (rows, cols) = self.shape(x);
        let mut dropped = vec![false; rows];
        rng.fill_bernoulli(p, &mut dropped);
        self.record(
            rows,
            cols,
            Op::RowMask {
                x,
                dropped,
                rate: p,
            },
        )
    }

    /// SkipNode combine (Eq. 4): row `i` of the output is `skip`'s row when
    /// `take_skip[i]`, else `conv`'s row. Gradients route through whichever
    /// branch supplied the row — this is what lets gradients bypass deep
    /// stacks of weight multiplications.
    pub fn row_combine(&mut self, conv: NodeId, skip: NodeId, take_skip: &[bool]) -> NodeId {
        let (rows, cols) = self.shape(conv);
        assert_eq!((rows, cols), self.shape(skip), "row_combine shape mismatch");
        assert_eq!(take_skip.len(), rows, "row_combine mask length");
        self.record(
            rows,
            cols,
            Op::RowCombine {
                conv,
                skip,
                take_skip: take_skip.to_vec(),
            },
        )
    }

    /// Fused SkipNode layer (Eq. 4 applied to a whole GCN layer):
    /// `row_combine(relu(Ã·x·W + b), skip, take_skip)` as one masked
    /// kernel. Convenience wrapper over [`Tape::skip_conv_step`] for the
    /// plain bias-only step.
    pub fn skip_conv(
        &mut self,
        adj: AdjId,
        x: NodeId,
        skip: NodeId,
        w: NodeId,
        b: NodeId,
        take_skip: &[bool],
    ) -> NodeId {
        self.skip_conv_step(
            adj,
            FusedStep {
                x,
                skip,
                w,
                b: Some(b),
                init_residual: None,
                identity_map: None,
                residual: None,
            },
            take_skip,
        )
    }

    /// Generalized fused SkipNode layer: one masked kernel computing
    /// `row_combine(relu(support·W̃ [+ b]) [+ residual], skip, take_skip)`
    /// where `support` optionally mixes in a GCNII initial residual and
    /// `W̃` optionally applies the identity map (see [`FusedStep`]).
    ///
    /// Unlike the unfused `spmm → [lin_comb] → matmul → [lin_comb] →
    /// [add_bias] → relu → [add] → row_combine` chain, rows with
    /// `take_skip[i]` never enter the SpMM or the GEMM — the sparse
    /// gather, dense product, bias, and ReLU all run on the compacted
    /// active-row set only, so per-layer work scales with the non-skipped
    /// fraction. Skipped rows copy `skip`'s row; their backward is the
    /// identity route, exactly as in [`Tape::row_combine`]. The value is
    /// bit-identical to the unfused chain in the same operand order.
    ///
    /// Requires `skip` to already have the output width (`n × d_out`),
    /// which holds for SkipNode's middle hidden→hidden layers.
    pub fn skip_conv_step(&mut self, adj: AdjId, step: FusedStep, take_skip: &[bool]) -> NodeId {
        let FusedStep {
            x,
            skip,
            w,
            b,
            init_residual,
            identity_map,
            residual,
        } = step;
        let (n, d_in) = self.shape(x);
        let d_out = self.shape(w).1;
        assert_eq!(take_skip.len(), n, "skip_conv mask length");
        assert_eq!(
            self.shape(skip),
            (n, d_out),
            "skip_conv skip branch must match the conv output shape"
        );
        if let Some(b) = b {
            assert_eq!(self.shape(b).0, 1, "bias must be a row vector");
            assert_eq!(self.shape(b).1, d_out, "bias width mismatch");
        }
        if let Some((h0, _)) = init_residual {
            assert_eq!(
                self.shape(h0),
                (n, d_in),
                "skip_conv initial residual must match the propagation shape"
            );
        }
        if identity_map.is_some() {
            assert_eq!(
                d_in, d_out,
                "skip_conv identity map needs a square weight (d_in == d_out)"
            );
        }
        if let Some(res) = residual {
            assert_eq!(
                self.shape(res),
                (n, d_out),
                "skip_conv residual must match the conv output shape"
            );
        }
        assert_eq!(
            self.adjs[adj.0].mat.rows(),
            n,
            "skip_conv adjacency row count"
        );

        let mut active = Vec::with_capacity(n);
        let mut col_map = vec![COL_SKIP; n];
        for (r, &take) in take_skip.iter().enumerate() {
            if !take {
                col_map[r] = active.len() as u32;
                active.push(r as u32);
            }
        }
        // `p_active` / `relu_active` are backward-only caches that a
        // retaining evaluation fills in; they start empty.
        self.record(
            n,
            d_out,
            Op::SkipConv {
                adj: adj.0,
                x,
                skip,
                w,
                b,
                init_residual,
                identity_map,
                residual,
                cache: Box::new(SkipConvCache {
                    active,
                    col_map,
                    p_active: Matrix::zeros(0, 0),
                    relu_active: Matrix::zeros(0, 0),
                }),
            },
        )
    }

    /// Column-wise concatenation (JKNet's layer aggregation).
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat of zero parts");
        let rows = self.shape(parts[0]).0;
        let cols = parts.iter().map(|&p| self.shape(p).1).sum();
        self.record(rows, cols, Op::ConcatCols(parts.to_vec()))
    }

    /// Elementwise max across same-shaped inputs (JKNet max aggregation).
    pub fn max_pool(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "max_pool of zero parts");
        let (rows, cols) = self.shape(parts[0]);
        for &p in parts {
            assert_eq!(self.shape(p), (rows, cols), "max_pool shape mismatch");
        }
        self.record(
            rows,
            cols,
            Op::MaxPool {
                xs: parts.to_vec(),
                argmax: Vec::new(),
            },
        )
    }

    /// Segmented graph readout: pool each segment's contiguous row range of
    /// `x` into one output row (`seg.num_segments() × d`). This is the
    /// graph-classification pooling layer over a packed multi-graph batch;
    /// a [`SegmentTable::single`] table reduces the whole matrix to one row.
    pub fn readout(&mut self, x: NodeId, kind: ReadoutKind, seg: &Arc<SegmentTable>) -> NodeId {
        let (n, d) = self.shape(x);
        assert_eq!(n, seg.total_rows(), "segment table must cover input rows");
        self.record(
            seg.num_segments(),
            d,
            Op::Readout {
                x,
                kind,
                seg: Arc::clone(seg),
                argmax: Vec::new(),
            },
        )
    }

    /// PairNorm center-and-scale with target scale `s`.
    pub fn pairnorm(&mut self, x: NodeId, s: f32) -> NodeId {
        let (rows, cols) = self.shape(x);
        self.record(rows, cols, Op::PairNorm { x, s })
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = self.shape(a);
        assert_eq!((rows, cols), self.shape(b), "hadamard shape mismatch");
        self.record(rows, cols, Op::Hadamard(a, b))
    }

    /// Fixed-coefficient linear combination `Σ c_k * x_k`.
    pub fn lin_comb(&mut self, parts: &[(NodeId, f32)]) -> NodeId {
        assert!(!parts.is_empty(), "lin_comb of zero parts");
        let (rows, cols) = self.shape(parts[0].0);
        for &(p, _) in parts {
            assert_eq!(self.shape(p), (rows, cols), "lin_comb shape mismatch");
        }
        self.record(rows, cols, Op::LinComb(parts.to_vec()))
    }

    /// Learnable-weight combination `Σ_k w[0,k] * x_k` (GPRGNN's
    /// generalized-PageRank coefficients).
    pub fn weighted_sum(&mut self, xs: &[NodeId], w: NodeId) -> NodeId {
        assert!(!xs.is_empty(), "weighted_sum of zero parts");
        assert_eq!(self.shape(w).0, 1, "weights must be a row vector");
        assert_eq!(self.shape(w).1, xs.len(), "one weight per input");
        let (rows, cols) = self.shape(xs[0]);
        for &x in xs {
            assert_eq!(self.shape(x), (rows, cols), "weighted_sum shape mismatch");
        }
        self.record(rows, cols, Op::WeightedSum { xs: xs.to_vec(), w })
    }

    /// Per-edge dot-product scores `h_u · h_v` as an `m×1` column (the
    /// link-prediction decoder).
    pub fn edge_score(&mut self, h: NodeId, edges: &[(usize, usize)]) -> NodeId {
        let rows = self.shape(h).0;
        for &(u, v) in edges {
            assert!(u < rows && v < rows, "edge endpoint out of range");
        }
        self.record(
            edges.len(),
            1,
            Op::EdgeScore {
                h,
                edges: edges.to_vec(),
            },
        )
    }
}
