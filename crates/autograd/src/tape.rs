//! The tape: node storage, adjacency registry, and the backward pass.
//!
//! Every op has exactly one forward and one backward: the forward is
//! [`Tape::eval_node`] (in [`crate::infer`]) and the backward is
//! [`Tape::backward_step`] (here). Eager recording, compiled replay
//! ([`crate::train_exec`]) and no-grad inference ([`Tape::run`]) call the
//! same two functions and differ only in scheduling and buffer lifetimes.

use crate::attention::gat_backward;
use crate::infer::op_inputs;
use skipnode_sparse::{CsrMatrix, COL_SKIP};
use skipnode_tensor::segment::segment_reduce_backward_into;
use skipnode_tensor::{workspace, Matrix, ReadoutKind, SegmentTable};
use std::ops::Index;
use std::sync::Arc;

/// Handle to a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Handle to a registered sparse propagation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjId(pub(crate) usize);

pub(crate) struct AdjEntry {
    pub mat: Arc<CsrMatrix>,
    /// `None` when the matrix is symmetric (backward reuses `mat`). Shared
    /// with the matrix's own metadata cache, so re-registering the same
    /// adjacency every epoch never re-transposes.
    pub transpose: Option<Arc<CsrMatrix>>,
}

impl AdjEntry {
    /// The matrix backward propagates through (`Ãᵀ`, which is `Ã` itself
    /// for the symmetric GCN normalization).
    pub fn backward_mat(&self) -> &CsrMatrix {
        match &self.transpose {
            Some(t) => t,
            None => &self.mat,
        }
    }
}

/// The operation that produced a node (closed-world op set).
pub(crate) enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    Spmm {
        adj: usize,
        x: NodeId,
    },
    /// `a + c * b`
    AddScaled(NodeId, NodeId, f32),
    Scale(NodeId, f32),
    /// `x (n×d) + bias (1×d)` broadcast over rows
    AddBias(NodeId, NodeId),
    Relu(NodeId),
    /// Inverted dropout: element `i` is multiplied by `0` when
    /// `dropped[i]`, else by `1 / (1 − rate)`. `rate` also lets compiled
    /// replay ([`crate::train_exec`]) redraw the flags each epoch.
    Mask {
        x: NodeId,
        dropped: Vec<bool>,
        rate: f64,
    },
    /// Per-row inverted dropout (GRAND-style row dropout): row `r` is
    /// multiplied by `0` when `dropped[r]`, else by `1 / (1 − rate)`.
    RowMask {
        x: NodeId,
        dropped: Vec<bool>,
        rate: f64,
    },
    /// SkipNode combine: row i comes from `skip` when `take_skip[i]`,
    /// otherwise from `conv`.
    RowCombine {
        conv: NodeId,
        skip: NodeId,
        take_skip: Vec<bool>,
    },
    /// Fused SkipNode layer:
    /// `row_combine(relu(support·W̃ [+ b]) [+ residual], skip, mask)` as one
    /// masked kernel, where `support = Ã·dropout(x)` optionally mixes an
    /// initial residual (`init_residual`) into the propagation and `W̃`
    /// optionally applies GCNII's identity map (`identity_map`). Skipped
    /// rows copy `skip` and never enter the SpMM/GEMM; their backward is the
    /// identity route. See [`Tape::skip_conv_step`].
    SkipConv {
        adj: usize,
        x: NodeId,
        skip: NodeId,
        w: NodeId,
        b: Option<NodeId>,
        init_residual: Option<(NodeId, f32)>,
        identity_map: Option<f32>,
        residual: Option<NodeId>,
        /// The folded dropout of `x`: one flag per element of `x`, applied
        /// like [`Op::Mask`]'s (empty when `rate == 0`).
        dropped: Vec<bool>,
        rate: f64,
        cache: Box<SkipConvCache>,
    },
    /// Sparse input layer: `[Ã·] dropout(X) · W` over the stored entries of
    /// a constant sparse input `X` (see [`Tape::sparse_input`]). It stands
    /// in for the `Mask → [Spmm →] MatMul` chain with bit-identical value
    /// and `dW`, and never densifies `X`, `dropout(X)` or `Ã·dropout(X)`.
    SparseInput {
        /// `X`'s stored entries.
        xs: Arc<CsrMatrix>,
        /// Propagation matrix, `None` for a dense layer.
        adj: Option<usize>,
        w: NodeId,
        /// One drop flag per stored entry of `X` (empty when `rate == 0`),
        /// applied like [`Op::Mask`]'s.
        dropped: Vec<bool>,
        rate: f64,
        /// `S = [Ã·] dropout(X)`, refreshed by every retaining evaluation
        /// and read back for `dW = Sᵀ·G`.
        support: CsrMatrix,
    },
    ConcatCols(Vec<NodeId>),
    /// Elementwise max across same-shaped inputs; `argmax[i]` records the
    /// winning input per element.
    MaxPool {
        xs: Vec<NodeId>,
        argmax: Vec<u8>,
    },
    /// Segmented graph readout: pools each segment's contiguous row range
    /// of `x` into one output row (`g × d`, one row per graph in the packed
    /// batch). `argmax` is the max-pool backward record — row index per
    /// `(segment, column)`, [`skipnode_tensor::segment::SEG_NO_ARGMAX`] for
    /// empty segments, empty vec for mean/sum — refreshed by every
    /// retaining evaluation exactly like [`Op::MaxPool`]'s.
    Readout {
        x: NodeId,
        kind: ReadoutKind,
        seg: Arc<SegmentTable>,
        argmax: Vec<u32>,
    },
    /// PairNorm center-and-scale with target scale `s`.
    PairNorm {
        x: NodeId,
        s: f32,
    },
    Hadamard(NodeId, NodeId),
    /// Fixed-coefficient linear combination of same-shaped inputs.
    LinComb(Vec<(NodeId, f32)>),
    /// `Σ_k w[0,k] * xs[k]` with learnable `w` (1×K).
    WeightedSum {
        xs: Vec<NodeId>,
        w: NodeId,
    },
    /// Per-edge dot products `h_u · h_v` producing an `m×1` score column.
    EdgeScore {
        h: NodeId,
        edges: Vec<(usize, usize)>,
    },
    /// Fused GAT neighborhood attention (see the `attention` module).
    GatAggregate {
        h: NodeId,
        s_src: NodeId,
        s_dst: NodeId,
        cache: Box<crate::attention::GatCache>,
    },
}

/// Forward-pass intermediates the fused SkipNode layer keeps for backward.
pub(crate) struct SkipConvCache {
    /// Non-skipped row indices, ascending.
    pub active: Vec<u32>,
    /// Inverse map: node → position in `active`, or
    /// [`skipnode_sparse::COL_SKIP`] for skipped rows.
    pub col_map: Vec<u32>,
    /// N(active), ascending: the rows of `x` the active rows' gather reads,
    /// which are also the only rows of `Ãᵀ·dS` that can be nonzero.
    pub nbr: Vec<u32>,
    /// The folded dropout's flags on the rows of `nbr`, in that order
    /// (empty without a dropout): the backward reads them contiguously.
    pub nbr_dropped: Vec<bool>,
    /// The GEMM left operand gathered on the active rows
    /// (`|active| × d_in`): `(Ã x)` — or the initial-residual mix
    /// `(1-α)(Ã x) + α h0` when one is fused — reused for `dW = Sᵀ·dZ`.
    pub p_active: Matrix,
    /// Pre-residual ReLU output on the active rows (`|active| × d_out`):
    /// the backward's ReLU mask, so the op never reads its own `n × d_out`
    /// output back and the next layer may take that buffer over.
    pub relu_active: Matrix,
}

/// A node's storage. Every op node is recorded as a shape-only `Pending`
/// placeholder; training tapes materialize it immediately (`Owned`),
/// inference tapes leave it for [`Tape::run`], which materializes and frees
/// it again as liveness allows. `Shared` holds borrowed constants (e.g. the
/// graph's feature matrix) that are registered by `Arc` instead of being
/// copied onto every tape.
pub(crate) enum Value {
    Owned(Matrix),
    Shared(Arc<Matrix>),
    Pending { rows: usize, cols: usize },
}

impl Value {
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Value::Owned(m) => m.shape(),
            Value::Shared(m) => m.shape(),
            Value::Pending { rows, cols } => (*rows, *cols),
        }
    }

    /// The materialized matrix.
    ///
    /// # Panics
    /// Panics on `Pending` — reading data from an unmaterialized (or
    /// already-freed) inference node is a liveness bug.
    pub fn matrix(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Shared(m) => m,
            Value::Pending { rows, cols } => panic!(
                "node value ({rows}x{cols}) is not materialized; \
                 inference tapes only hold data during Tape::run"
            ),
        }
    }
}

pub(crate) struct Node {
    pub value: Value,
    pub op: Op,
    pub requires_grad: bool,
}

/// Leaf gradients produced by a backward pass, indexed by [`NodeId`].
///
/// Only leaves ([`Tape::param`] nodes and seeded leaf roots) keep a
/// gradient: every interior gradient is consumed by the backward step that
/// propagates it.
pub struct Grads(Vec<Option<Matrix>>);

impl Grads {
    /// Gradient for leaf `id`, if the leaf participated in the backward
    /// pass. Always `None` for interior nodes.
    pub fn get(&self, id: NodeId) -> Option<&Matrix> {
        self.0.get(id.0).and_then(|g| g.as_ref())
    }

    /// Move the gradient for `id` out of the map.
    pub fn take(&mut self, id: NodeId) -> Option<Matrix> {
        self.0.get_mut(id.0).and_then(|g| g.take())
    }
}

impl Index<NodeId> for Grads {
    type Output = Matrix;
    fn index(&self, id: NodeId) -> &Matrix {
        self.get(id).expect("no gradient recorded for node")
    }
}

impl Index<&NodeId> for Grads {
    type Output = Matrix;
    fn index(&self, id: &NodeId) -> &Matrix {
        &self[*id]
    }
}

impl Drop for Grads {
    fn drop(&mut self) {
        for slot in self.0.iter_mut() {
            if let Some(g) = slot.take() {
                workspace::give(g);
            }
        }
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            if let Op::SkipConv { cache, .. } = node.op {
                workspace::give(cache.p_active);
                workspace::give(cache.relu_active);
            }
            if let Value::Owned(m) = node.value {
                workspace::give(m);
            }
        }
    }
}

/// A single-use computation tape.
///
/// Dropping a tape returns every node's value buffer to the
/// [`workspace`] free-list, so the next epoch's forward pass reuses the
/// same allocations.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    pub(crate) adjs: Vec<AdjEntry>,
    params: Vec<NodeId>,
    infer: bool,
    quantized: bool,
    /// The fused layer backward's `Ãᵀ·dS` rows on N(active), reused by
    /// every such step: its row count changes with each skip mask, and a
    /// workspace buffer per count seen would stay parked on the free-list.
    nbr_scratch: Vec<f32>,
}

impl Tape {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh tape in no-grad inference mode.
    ///
    /// Op constructors record shape-only placeholder nodes (drawing from
    /// the RNG exactly as the eager path does, so streams stay aligned) and
    /// [`Tape::run`] later materializes just the nodes the requested
    /// outputs need, freeing every intermediate back to the [`workspace`]
    /// free-list as soon as its last consumer has run. The backward pass is
    /// unavailable on an inference tape.
    pub fn inference() -> Self {
        let mut tape = Self::default();
        tape.infer = true;
        tape
    }

    /// True when this tape was created with [`Tape::inference`].
    pub fn is_inference(&self) -> bool {
        self.infer
    }

    /// Fresh no-grad inference tape whose dense `MatMul` products against
    /// leaf weight matrices run through int8 symmetric post-training
    /// quantization ([`skipnode_tensor::quant`]) instead of the f32 GEMM.
    /// Weights are calibrated per column at evaluation time; everything
    /// else (SpMM, elementwise, the fused SkipNode layer) stays f32, so
    /// the quantization error is confined to the dense projections.
    pub fn inference_quantized() -> Self {
        let mut tape = Self::inference();
        tape.quantized = true;
        tape
    }

    /// True when this tape routes leaf-weight `MatMul`s through int8.
    pub fn is_quantized(&self) -> bool {
        self.quantized
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            value: Value::Owned(value),
            // Inference tapes never backprop, so no node needs gradients.
            requires_grad: requires_grad && !self.infer,
            op,
        });
        id
    }

    /// Record an op node of the given output shape. The node requires a
    /// gradient when any input does (never on an inference tape). A
    /// training tape evaluates it immediately through [`Tape::eval_node`]
    /// with its backward records retained and no buffer stealing; an
    /// inference tape leaves the placeholder for [`Tape::run`].
    pub(crate) fn record(&mut self, rows: usize, cols: usize, op: Op) -> NodeId {
        let mut requires_grad = false;
        if !self.infer {
            op_inputs(&op, &mut |p| requires_grad |= self.nodes[p].requires_grad);
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            value: Value::Pending { rows, cols },
            op,
            requires_grad,
        });
        if !self.infer {
            self.eval_node(id.0, &[], &[], true);
        }
        id
    }

    /// Register a trainable leaf. Gradients are produced for it.
    pub fn param(&mut self, value: Matrix) -> NodeId {
        let id = self.push(value, Op::Leaf, true);
        self.params.push(id);
        id
    }

    /// Register a non-trainable leaf (inputs, cached activations).
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf, false)
    }

    /// Register a non-trainable leaf shared by `Arc` — no copy onto the
    /// tape. This is how the per-run feature matrix is registered once per
    /// graph instead of being duplicated into every epoch's tape.
    pub fn constant_shared(&mut self, value: Arc<Matrix>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            value: Value::Shared(value),
            op: Op::Leaf,
            requires_grad: false,
        });
        id
    }

    /// Parameters in registration order (for optimizer hookup).
    pub fn params(&self) -> &[NodeId] {
        &self.params
    }

    /// Register a sparse propagation matrix. Symmetric matrices (the usual
    /// GCN `Ã`) reuse themselves in backward; asymmetric ones (row
    /// normalized) use a transpose. Both the symmetry test and the
    /// transpose are cached **on the matrix itself**, so re-registering the
    /// same `Arc` every epoch (a fresh tape per forward pass) costs one
    /// flag read instead of an O(nnz) transpose.
    pub fn register_adj(&mut self, mat: Arc<CsrMatrix>) -> AdjId {
        let transpose = if mat.is_symmetric_cached() {
            None
        } else {
            Some(mat.transpose_arc())
        };
        let id = AdjId(self.adjs.len());
        self.adjs.push(AdjEntry { mat, transpose });
        id
    }

    /// Swap an already-registered adjacency for a new matrix (compiled
    /// replay re-points the recorded slot at each epoch's sampled
    /// adjacency). Symmetry/transpose metadata comes from the matrix's own
    /// caches, exactly as in [`Tape::register_adj`].
    pub(crate) fn replace_adj(&mut self, idx: usize, mat: Arc<CsrMatrix>) {
        let transpose = if mat.is_symmetric_cached() {
            None
        } else {
            Some(mat.transpose_arc())
        };
        self.adjs[idx] = AdjEntry { mat, transpose };
    }

    /// Value of a node.
    ///
    /// # Panics
    /// Panics on an inference-tape node that is not materialized (use
    /// [`Tape::shape`] for shape queries, which always work).
    pub fn value(&self, id: NodeId) -> &Matrix {
        self.nodes[id.0].value.matrix()
    }

    /// Internal value accessor by raw index.
    pub(crate) fn val(&self, idx: usize) -> &Matrix {
        self.nodes[idx].value.matrix()
    }

    /// Shape of a node. Works in every mode, including on inference-tape
    /// placeholders and already-freed intermediates.
    pub fn shape(&self, id: NodeId) -> (usize, usize) {
        self.nodes[id.0].value.shape()
    }

    /// Move a node's value out of the tape (e.g. evaluation logits), leaving
    /// a shape-only placeholder behind. Shared constants are copied via the
    /// workspace; the caller owns the result either way.
    ///
    /// # Panics
    /// Panics if the value was never materialized or was already taken.
    pub fn take_value(&mut self, id: NodeId) -> Matrix {
        let (rows, cols) = self.nodes[id.0].value.shape();
        match std::mem::replace(&mut self.nodes[id.0].value, Value::Pending { rows, cols }) {
            Value::Owned(m) => m,
            Value::Shared(m) => workspace::take_copy(&m),
            Value::Pending { .. } => panic!("take_value on an unmaterialized node"),
        }
    }

    /// Move an owned value out for in-place reuse, leaving a shape-only
    /// placeholder. `None` (and no change) for shared or pending values.
    pub(crate) fn steal_owned(&mut self, idx: usize) -> Option<Matrix> {
        if !matches!(self.nodes[idx].value, Value::Owned(_)) {
            return None;
        }
        let (rows, cols) = self.nodes[idx].value.shape();
        match std::mem::replace(&mut self.nodes[idx].value, Value::Pending { rows, cols }) {
            Value::Owned(m) => Some(m),
            _ => unreachable!(),
        }
    }

    /// Whether gradients flow to this node.
    pub fn requires_grad(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// Backward pass from a single root with the given seed gradient.
    pub fn backward(&mut self, root: NodeId, seed: Matrix) -> Grads {
        self.backward_multi(vec![(root, seed)])
    }

    /// Backward pass from several roots at once (used by GRAND, whose loss
    /// seeds gradients into every augmented prediction head).
    ///
    /// Runs `Tape::backward_step` over the nodes in reverse order with
    /// every forward value kept alive; only leaf gradients are returned.
    pub fn backward_multi(&mut self, seeds: Vec<(NodeId, Matrix)>) -> Grads {
        assert!(
            !self.infer,
            "backward on an inference tape; Tape::inference keeps no gradient bookkeeping"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        let mut max_id = 0usize;
        for (root, seed) in seeds {
            assert_eq!(
                seed.shape(),
                self.nodes[root.0].value.shape(),
                "seed gradient shape mismatch"
            );
            max_id = max_id.max(root.0);
            accum(&mut grads, root, seed);
        }
        for idx in (0..=max_id).rev() {
            if matches!(self.nodes[idx].op, Op::Leaf) {
                continue;
            }
            let Some(g) = grads[idx].take() else {
                continue;
            };
            if self.nodes[idx].requires_grad {
                self.backward_step(idx, g, &mut grads, false);
            } else {
                workspace::give(g);
            }
        }
        Grads(grads)
    }

    /// One backward step: consume node `idx`'s upstream gradient `g` and
    /// accumulate the deltas of every input that requires a gradient.
    ///
    /// This is the only backward arithmetic; the eager driver and compiled
    /// replay differ only in buffer traffic. Each step owns `g` (mutating
    /// it in place and passing it down where the arithmetic allows,
    /// recycling it otherwise). `steal_output` says this read is the last
    /// use of the node's own value, so a ReLU may reuse its output buffer
    /// for the gradient.
    pub(crate) fn backward_step(
        &mut self,
        idx: usize,
        g: Matrix,
        grads: &mut [Option<Matrix>],
        steal_output: bool,
    ) {
        let op = std::mem::replace(&mut self.nodes[idx].op, Op::Leaf);
        match &op {
            Op::Leaf => unreachable!("leaf gradients are collected by the driver"),
            Op::MatMul(a, b) => {
                if self.rg(*a) {
                    let da = g.matmul_t(self.val(b.0));
                    accum(grads, *a, da);
                }
                if self.rg(*b) {
                    let db = self.val(a.0).t_matmul(&g);
                    accum(grads, *b, db);
                }
                workspace::give(g);
            }
            Op::Spmm { adj, x } => {
                if self.rg(*x) {
                    let dx = self.adjs[*adj].backward_mat().spmm(&g);
                    accum(grads, *x, dx);
                }
                workspace::give(g);
            }
            Op::AddScaled(a, b, c) => {
                // b before a so `g` can flow into a's slot unscaled; when
                // a == b the two deltas still add commutatively.
                if self.rg(*b) {
                    let db = &g * *c;
                    accum(grads, *b, db);
                }
                if self.rg(*a) {
                    accum(grads, *a, g);
                } else {
                    workspace::give(g);
                }
            }
            Op::Scale(x, c) => {
                if self.rg(*x) {
                    let mut dx = g;
                    dx.scale_in_place(*c);
                    accum(grads, *x, dx);
                } else {
                    workspace::give(g);
                }
            }
            Op::AddBias(x, b) => {
                // Bias row-sum first (reads `g`), then `g` flows to x.
                if self.rg(*b) {
                    let mut db = workspace::take(1, g.cols());
                    for r in 0..g.rows() {
                        let row = g.row(r);
                        let dst = db.row_mut(0);
                        for (d, &v) in dst.iter_mut().zip(row) {
                            *d += v;
                        }
                    }
                    accum(grads, *b, db);
                }
                if self.rg(*x) {
                    accum(grads, *x, g);
                } else {
                    workspace::give(g);
                }
            }
            Op::Relu(x) => {
                if !self.rg(*x) {
                    workspace::give(g);
                } else if let Some(mut out) = steal_output.then(|| self.steal_owned(idx)).flatten()
                {
                    // The output dies here: write the masked gradient into it.
                    for (o, &gv) in out.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        *o = if *o > 0.0 { gv } else { 0.0 };
                    }
                    workspace::give(g);
                    accum(grads, *x, out);
                } else {
                    let mut dx = g;
                    for (t, &ov) in dx.as_mut_slice().iter_mut().zip(self.val(idx).as_slice()) {
                        if ov <= 0.0 {
                            *t = 0.0;
                        }
                    }
                    accum(grads, *x, dx);
                }
            }
            Op::Mask { x, dropped, rate } => {
                if self.rg(*x) {
                    let mut dx = g;
                    apply_dropout(dx.as_mut_slice(), dropped, *rate);
                    accum(grads, *x, dx);
                } else {
                    workspace::give(g);
                }
            }
            Op::RowMask { x, dropped, rate } => {
                if self.rg(*x) {
                    let mut dx = g;
                    apply_row_dropout(&mut dx, dropped, *rate);
                    accum(grads, *x, dx);
                } else {
                    workspace::give(g);
                }
            }
            Op::RowCombine {
                conv,
                skip,
                take_skip,
            } => {
                // Route `g` by zeroing the other branch's rows; the conv
                // route copies only when the skip route also consumes `g`.
                let zero_rows = |d: &mut Matrix, keep_skip_rows: bool| {
                    for (r, &ts) in take_skip.iter().enumerate() {
                        if ts != keep_skip_rows {
                            for v in d.row_mut(r) {
                                *v = 0.0;
                            }
                        }
                    }
                };
                match (self.rg(*conv), self.rg(*skip)) {
                    (true, true) => {
                        let mut dc = workspace::take_copy(&g);
                        zero_rows(&mut dc, false);
                        accum(grads, *conv, dc);
                        let mut ds = g;
                        zero_rows(&mut ds, true);
                        accum(grads, *skip, ds);
                    }
                    (true, false) => {
                        let mut dc = g;
                        zero_rows(&mut dc, false);
                        accum(grads, *conv, dc);
                    }
                    (false, true) => {
                        let mut ds = g;
                        zero_rows(&mut ds, true);
                        accum(grads, *skip, ds);
                    }
                    (false, false) => workspace::give(g),
                }
            }
            Op::SkipConv {
                adj,
                x,
                skip,
                w,
                b,
                init_residual,
                identity_map,
                residual,
                dropped,
                rate,
                cache,
            } => {
                let d_out = g.cols();
                // dZ on the active rows only: gather g and apply the ReLU
                // mask kept from the forward (skipped rows never flow
                // through the conv branch).
                let mut gz = workspace::take_scratch(cache.active.len(), d_out);
                for (local, &r) in cache.active.iter().enumerate() {
                    let relu = cache.relu_active.row(local);
                    let dst = gz.row_mut(local);
                    for ((dv, &gv), &ov) in dst.iter_mut().zip(g.row(r as usize)).zip(relu) {
                        *dv = if ov > 0.0 { gv } else { 0.0 };
                    }
                }
                if let Some(b) = b {
                    if self.rg(*b) {
                        let mut db = workspace::take(1, d_out);
                        for local in 0..gz.rows() {
                            let dst = db.row_mut(0);
                            for (dv, &v) in dst.iter_mut().zip(gz.row(local)) {
                                *dv += v;
                            }
                        }
                        accum(grads, *b, db);
                    }
                }
                if self.rg(*w) {
                    // dW = Sᵀ · dT over the active rows (cached compact
                    // support); with the identity map z = (1-β)s + β·s·W,
                    // so dT = β·dZ. The register-tiled GEMM over an
                    // explicit Sᵀ adds the nonzero products in `t_matmul`'s
                    // order, so it gives its bits on finite values, at a
                    // fraction of its cost on these short rows.
                    let st = cache.p_active.transpose();
                    let mut dw = st.matmul(&gz);
                    workspace::give(st);
                    if let Some(beta) = identity_map {
                        dw.scale_in_place(*beta);
                    }
                    accum(grads, *w, dw);
                }
                let h0_grad = init_residual.filter(|&(h0, _)| self.rg(h0));
                let mut init = None;
                let mut ax = None;
                if self.rg(*x) || h0_grad.is_some() {
                    // dS: gradient wrt the GEMM left operand.
                    let mut ds = gz.matmul_t(self.val(w.0));
                    if let Some(beta) = identity_map {
                        // z = (1-β)s + β·(s·W): both branches route to s.
                        ds.scale_in_place(*beta);
                        ds.add_scaled(&gz, 1.0 - *beta);
                    }
                    if let Some((_, alpha)) = h0_grad {
                        // s = (1-α)p + α·h0 on the active rows.
                        let mut dh0 = workspace::take_scratch(ds.rows(), ds.cols());
                        for (dv, &v) in dh0.as_mut_slice().iter_mut().zip(ds.as_slice()) {
                            *dv = alpha * v;
                        }
                        init = Some(dh0);
                    }
                    if self.rg(*x) {
                        if let Some((_, alpha)) = init_residual {
                            ds.scale_in_place(1.0 - *alpha);
                        }
                        // Ãᵀ · scatter(dS) on N(active) only: every other
                        // row of it is exactly +0.0.
                        let mut buf = std::mem::take(&mut self.nbr_scratch);
                        buf.clear();
                        buf.resize(cache.nbr.len() * ds.cols(), 0.0);
                        let mut dxc = Matrix::from_vec(cache.nbr.len(), ds.cols(), buf);
                        let back = self.adjs[*adj].backward_mat();
                        back.spmm_cols_compact(&ds, &cache.col_map, &cache.nbr, &mut dxc);
                        ax = Some(dxc);
                    }
                    workspace::give(ds);
                }
                // The routes into input slots, in the order the unfolded
                // chain (`dropout → skip_conv_step`) accumulates them as
                // separate deltas: the residual, the initial residual, the
                // propagation (unmasked), the skip branch, and last the
                // masked propagation, which a standalone `Mask` passes on
                // in its own later step.
                let mut routes = Vec::with_capacity(4);
                if let Some(res) = residual.filter(|&res| self.rg(res)) {
                    routes.push((res, Route::Residual));
                }
                if let Some((h0, _)) = h0_grad {
                    routes.push((h0, Route::InitResidual));
                }
                let masked = !dropped.is_empty();
                if self.rg(*x) && !masked {
                    routes.push((*x, Route::Propagation));
                }
                if self.rg(*skip) {
                    routes.push((*skip, Route::Skip));
                }
                if self.rg(*x) && masked {
                    routes.push((*x, Route::Propagation));
                }
                let src = RouteSources {
                    col_map: &cache.col_map,
                    nbr: &cache.nbr,
                    init: init.as_ref(),
                    ax: ax.as_ref(),
                    dropped: masked.then_some((cache.nbr_dropped.as_slice(), *rate)),
                };
                route_grads(&routes, g, &src, grads, |id| self.nodes[id.0].value.shape());
                if let Some(init) = init {
                    workspace::give(init);
                }
                if let Some(ax) = ax {
                    self.nbr_scratch = ax.into_vec();
                }
                workspace::give(gz);
            }
            Op::SparseInput { w, support, .. } => {
                if self.rg(*w) {
                    let (rows, cols) = self.nodes[w.0].value.shape();
                    let mut dw = workspace::take_scratch(rows, cols);
                    support.t_spmm_into(&g, &mut dw);
                    accum(grads, *w, dw);
                }
                workspace::give(g);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for p in parts {
                    let pc = self.nodes[p.0].value.shape().1;
                    if self.rg(*p) {
                        let mut dp = workspace::take(g.rows(), pc);
                        for r in 0..g.rows() {
                            dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + pc]);
                        }
                        accum(grads, *p, dp);
                    }
                    off += pc;
                }
                workspace::give(g);
            }
            Op::MaxPool { xs, argmax } => {
                for (k, x) in xs.iter().enumerate() {
                    if !self.rg(*x) {
                        continue;
                    }
                    let mut dx = workspace::take(g.rows(), g.cols());
                    for (i, (&a, &gv)) in argmax.iter().zip(g.as_slice()).enumerate() {
                        if a as usize == k {
                            dx.as_mut_slice()[i] = gv;
                        }
                    }
                    accum(grads, *x, dx);
                }
                workspace::give(g);
            }
            Op::Readout {
                x,
                kind,
                seg,
                argmax,
            } => {
                if self.rg(*x) {
                    let (rows, cols) = self.nodes[x.0].value.shape();
                    let mut dx = workspace::take(rows, cols);
                    segment_reduce_backward_into(&g, seg, *kind, argmax, &mut dx);
                    accum(grads, *x, dx);
                }
                workspace::give(g);
            }
            Op::PairNorm { x, s } => {
                if self.rg(*x) {
                    let dx = pairnorm_backward(self.val(x.0), &g, *s);
                    accum(grads, *x, dx);
                }
                workspace::give(g);
            }
            Op::Hadamard(a, b) => {
                if self.rg(*a) {
                    let da = g.zip(self.val(b.0), |gv, bv| gv * bv);
                    accum(grads, *a, da);
                }
                if self.rg(*b) {
                    let mut db = g;
                    for (t, &av) in db.as_mut_slice().iter_mut().zip(self.val(a.0).as_slice()) {
                        *t *= av;
                    }
                    accum(grads, *b, db);
                } else {
                    workspace::give(g);
                }
            }
            Op::LinComb(parts) => match parts.iter().rposition(|&(p, _)| self.rg(p)) {
                None => workspace::give(g),
                Some(li) => {
                    for &(p, c) in &parts[..li] {
                        if self.rg(p) {
                            let dp = &g * c;
                            accum(grads, p, dp);
                        }
                    }
                    let (p, c) = parts[li];
                    let mut dp = g;
                    dp.scale_in_place(c);
                    accum(grads, p, dp);
                }
            },
            Op::WeightedSum { xs, w } => {
                for (k, x) in xs.iter().enumerate() {
                    if self.rg(*x) {
                        let dx = &g * self.val(w.0).get(0, k);
                        accum(grads, *x, dx);
                    }
                }
                if self.rg(*w) {
                    let mut dw = workspace::take(1, xs.len());
                    for (k, x) in xs.iter().enumerate() {
                        let xv = self.val(x.0);
                        let dot: f64 = g
                            .as_slice()
                            .iter()
                            .zip(xv.as_slice())
                            .map(|(&gv, &xvv)| gv as f64 * xvv as f64)
                            .sum();
                        dw.set(0, k, dot as f32);
                    }
                    accum(grads, *w, dw);
                }
                workspace::give(g);
            }
            Op::EdgeScore { h, edges } => {
                if self.rg(*h) {
                    let hv = self.val(h.0);
                    let mut dh = workspace::take(hv.rows(), hv.cols());
                    for (e, &(u, v)) in edges.iter().enumerate() {
                        let ge = g.get(e, 0);
                        // dh_u += ge * h_v ; dh_v += ge * h_u — split the
                        // borrows via raw indexing.
                        for c in 0..hv.cols() {
                            let hu = hv.get(u, c);
                            let hvv = hv.get(v, c);
                            dh.set(u, c, dh.get(u, c) + ge * hvv);
                            dh.set(v, c, dh.get(v, c) + ge * hu);
                        }
                    }
                    accum(grads, *h, dh);
                }
                workspace::give(g);
            }
            Op::GatAggregate {
                h,
                s_src,
                s_dst,
                cache,
            } => {
                let (dh, dsrc, ddst) = gat_backward(self.val(h.0), cache, &g);
                for (target, delta) in [(*h, dh), (*s_src, dsrc), (*s_dst, ddst)] {
                    if self.rg(target) {
                        accum(grads, target, delta);
                    } else {
                        workspace::give(delta);
                    }
                }
                workspace::give(g);
            }
        }
        self.nodes[idx].op = op;
    }
}

/// Node values [`Tape::backward_step`] reads (beyond the gradient flow
/// itself). Marking a superset is safe — it only delays recycling — but
/// missing a read would free a buffer the step still needs, so every
/// `val(...)` access in the step must be mirrored here.
pub(crate) fn backward_value_reads(tape: &Tape, idx: usize, f: &mut dyn FnMut(usize)) {
    let rg = |id: NodeId| tape.nodes[id.0].requires_grad;
    match &tape.nodes[idx].op {
        Op::Leaf
        | Op::Spmm { .. }
        | Op::AddScaled(..)
        | Op::Scale(..)
        | Op::AddBias(..)
        | Op::Mask { .. }
        | Op::RowMask { .. }
        | Op::RowCombine { .. }
        // `dW = Sᵀ·G` reads the support kept on the op record.
        | Op::SparseInput { .. }
        | Op::ConcatCols(..)
        | Op::MaxPool { .. }
        // Readout's backward reads only the upstream gradient plus the
        // op-resident segment table and argmax record.
        | Op::Readout { .. }
        | Op::LinComb(..) => {}
        Op::MatMul(a, b) | Op::Hadamard(a, b) => {
            if rg(*a) {
                f(b.0);
            }
            if rg(*b) {
                f(a.0);
            }
        }
        // The ReLU mask is read back from the node's own output.
        Op::Relu(_) => f(idx),
        // The ReLU mask and the GEMM operand live on the op record.
        Op::SkipConv {
            x, w, init_residual, ..
        } => {
            if rg(*x) || init_residual.is_some_and(|(h0, _)| rg(h0)) {
                f(w.0);
            }
        }
        Op::PairNorm { x, .. } => f(x.0),
        Op::WeightedSum { xs, w } => {
            f(w.0);
            if rg(*w) {
                xs.iter().for_each(|x| f(x.0));
            }
        }
        Op::EdgeScore { h, .. } => {
            if rg(*h) {
                f(h.0);
            }
        }
        // The attention backward reads `h` (for dα) whichever input needs
        // a gradient; α and the LeakyReLU slopes live on the op record.
        Op::GatAggregate { h, .. } => f(h.0),
    }
}

/// A gradient route out of the fused SkipNode layer into one input's slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    /// The post-ReLU residual: `g` on active rows, `+0.0` elsewhere.
    Residual,
    /// The initial residual: `α·dS` on active rows, `+0.0` elsewhere.
    InitResidual,
    /// `[dropout]ᵀ(Ãᵀ·scatter(dS))`: the compact product on N(active),
    /// `+0.0` elsewhere.
    Propagation,
    /// The skip branch: `g` on skipped rows, `+0.0` elsewhere.
    Skip,
}

/// The compact values the [`Route`]s read besides the upstream gradient.
struct RouteSources<'a> {
    col_map: &'a [u32],
    nbr: &'a [u32],
    /// `α·dS` on the active rows.
    init: Option<&'a Matrix>,
    /// `Ãᵀ·scatter(dS)` on the rows of `nbr`.
    ax: Option<&'a Matrix>,
    /// The folded dropout's flags on the rows of `nbr`, and its rate.
    dropped: Option<(&'a [bool], f64)>,
}

/// Accumulate the fused layer's routes into their input slots, each slot
/// in one pass and bit-identical to accumulating one full-size delta per
/// route in `routes` order, the way separate ops would.
///
/// Each slot's element is a left-to-right f32 sum: its prior contents (if
/// any), then each route's value in order. A route that is `+0.0` on a row
/// is not added there: `s + 0.0` only turns `-0.0` into `+0.0`, and doing
/// that once after the last addition gives the same bits as anywhere
/// earlier, so the row is canonicalized once at the end instead. A slot
/// with no prior contents takes over `g`'s buffer in place when it can:
/// `g`'s routes are then either its first nonzero term on a row or one of
/// just two (the propagation route precedes the skip route only without a
/// dropout, and both are nonzero only on skipped rows), where the order of
/// one addition does not matter.
fn route_grads(
    routes: &[(NodeId, Route)],
    g: Matrix,
    src: &RouteSources<'_>,
    grads: &mut [Option<Matrix>],
    shape: impl Fn(NodeId) -> (usize, usize),
) {
    let mut targets: Vec<(NodeId, Vec<Route>)> = Vec::with_capacity(routes.len());
    for &(id, route) in routes {
        match targets.iter_mut().find(|(t, _)| *t == id) {
            Some((_, rs)) => rs.push(route),
            None => targets.push((id, vec![route])),
        }
    }
    let reads_g = |rs: &[Route]| {
        rs.iter()
            .any(|r| matches!(r, Route::Residual | Route::Skip))
    };
    // The slot that takes over `g` goes last; every other one reads `g`
    // before then.
    let owner = targets
        .iter()
        .enumerate()
        .filter(|(_, (id, _))| grads[id.0].is_none() && shape(*id) == g.shape())
        .max_by_key(|(_, (_, rs))| reads_g(rs))
        .map(|(k, _)| k);
    if let Some(k) = owner {
        let last = targets.len() - 1;
        targets.swap(k, last);
    }
    let mut g = Some(g);
    for (k, (id, rs)) in targets.iter().enumerate() {
        if owner.is_some() && k == targets.len() - 1 {
            let mut out = g.take().expect("the owner runs last");
            route_rows(&mut out, false, None, rs, src);
            grads[id.0] = Some(out);
        } else {
            let gv = g.as_ref().expect("g outlives its readers");
            let (mut out, prior) = match grads[id.0].take() {
                Some(p) => (p, true),
                None => {
                    let (rows, cols) = shape(*id);
                    (workspace::take_scratch(rows, cols), false)
                }
            };
            route_rows(&mut out, prior, Some(gv), rs, src);
            grads[id.0] = Some(out);
        }
    }
    if let Some(g) = g {
        workspace::give(g);
    }
}

/// A nonzero term of one slot row: `g`'s row, the initial-residual row,
/// or the (masked) propagation row.
#[derive(Clone, Copy)]
enum Term {
    G,
    Init,
    Prop,
}

/// What one slot adds on rows of one class (active or skipped, in
/// N(active) or not): its nonzero terms in order, whether a `+0.0` route
/// is among them, and whether the row already holds `g` (the slot is
/// `g`'s buffer and `g` is a term there).
#[derive(Clone, Copy, Default)]
struct RowPlan {
    terms: [Option<Term>; 3],
    zero: bool,
    holds_g: bool,
}

/// One slot of [`route_grads`]: `out` holds the prior contents when
/// `prior`, or `g` itself when `g` is `None`.
fn route_rows(
    out: &mut Matrix,
    prior: bool,
    g: Option<&Matrix>,
    routes: &[Route],
    src: &RouteSources<'_>,
) {
    // Row class `active | in_nbr << 1`.
    let mut plans = [RowPlan::default(); 4];
    for (class, plan) in plans.iter_mut().enumerate() {
        let (active, in_nbr) = (class & 1 == 1, class & 2 == 2);
        let mut k = 0;
        for &route in routes {
            let term = match route {
                Route::Residual if active => Term::G,
                Route::Skip if !active => Term::G,
                Route::InitResidual if active => Term::Init,
                Route::Propagation if in_nbr => Term::Prop,
                _ => {
                    plan.zero = true;
                    continue;
                }
            };
            if matches!(term, Term::G) && g.is_none() {
                plan.holds_g = true;
            } else {
                plan.terms[k] = Some(term);
                k += 1;
            }
        }
    }
    let d = out.cols();
    let masked = src
        .dropped
        .map(|(dropped, rate)| (dropped, (1.0 / (1.0 - rate)) as f32));
    let mut next_nbr = 0;
    for r in 0..out.rows() {
        let local = src.col_map[r];
        let active = local != COL_SKIP;
        // `nbr` is ascending: walk it alongside the rows.
        let in_nbr = src.nbr.get(next_nbr) == Some(&(r as u32));
        let plan = &plans[usize::from(active) | usize::from(in_nbr) << 1];
        let o = out.row_mut(r);
        let mut empty = !prior && !plan.holds_g;
        for term in plan.terms.iter().map_while(|t| *t) {
            match term {
                Term::G => add_row(o, &mut empty, g.expect("a `g` term reads `g`").row(r)),
                Term::Init => {
                    let init = src.init.expect("initial-residual term");
                    add_row(o, &mut empty, init.row(local as usize));
                }
                Term::Prop => {
                    let row = src.ax.expect("propagation term").row(next_nbr);
                    match masked {
                        Some((dropped, scale)) => {
                            let flags = &dropped[next_nbr * d..(next_nbr + 1) * d];
                            add_masked_row(o, &mut empty, row, flags, scale);
                        }
                        None => add_row(o, &mut empty, row),
                    }
                }
            }
        }
        if empty {
            o.fill(0.0);
        } else if plan.zero {
            for t in o.iter_mut() {
                *t += 0.0;
            }
        }
        next_nbr += usize::from(in_nbr);
    }
}

/// `o = row` when `empty`, else `o += row`.
#[inline]
fn add_row(o: &mut [f32], empty: &mut bool, row: &[f32]) {
    if *empty {
        o.copy_from_slice(row);
    } else {
        for (t, &v) in o.iter_mut().zip(row) {
            *t += v;
        }
    }
    *empty = false;
}

/// [`add_row`] of `row` under inverted dropout, each element multiplied
/// as [`apply_dropout`] does.
#[inline]
fn add_masked_row(o: &mut [f32], empty: &mut bool, row: &[f32], dropped: &[bool], scale: f32) {
    let keep = |d: bool| if d { 0.0 } else { scale };
    if *empty {
        for ((t, &v), &d) in o.iter_mut().zip(row).zip(dropped) {
            *t = v * keep(d);
        }
    } else {
        for ((t, &v), &d) in o.iter_mut().zip(row).zip(dropped) {
            *t += v * keep(d);
        }
    }
    *empty = false;
}

/// Inverted dropout in place, forward and backward alike: `v[i]` is
/// multiplied by `0` where `dropped[i]`, else by `1 / (1 − rate)`. A
/// product rather than a store, so `-0.0`, NaN and ±inf propagate as
/// through any other multiply.
pub(crate) fn apply_dropout(v: &mut [f32], dropped: &[bool], rate: f64) {
    let scale = (1.0 / (1.0 - rate)) as f32;
    for (t, &d) in v.iter_mut().zip(dropped) {
        *t *= if d { 0.0 } else { scale };
    }
}

/// Row-level [`apply_dropout`]: row `r` of `m` is multiplied by `0` where
/// `dropped[r]`, else by `1 / (1 − rate)`.
pub(crate) fn apply_row_dropout(m: &mut Matrix, dropped: &[bool], rate: f64) {
    let scale = (1.0 / (1.0 - rate)) as f32;
    for (r, &d) in dropped.iter().enumerate() {
        let f = if d { 0.0 } else { scale };
        for t in m.row_mut(r) {
            *t *= f;
        }
    }
}

/// PairNorm forward, kept beside its backward.
pub(crate) fn pairnorm_forward(x: &Matrix, s: f32) -> Matrix {
    let mean = x.col_mean();
    let mut xc = workspace::take_copy(x);
    for r in 0..xc.rows() {
        let row = xc.row_mut(r);
        for (v, &m) in row.iter_mut().zip(mean.row(0)) {
            *v -= m;
        }
    }
    let fro = skipnode_tensor::frobenius_norm(&xc).max(1e-12);
    let alpha = (s as f64) * (x.rows() as f64).sqrt() / fro;
    xc.scale_in_place(alpha as f32);
    xc
}

pub(crate) fn pairnorm_backward(x: &Matrix, g: &Matrix, s: f32) -> Matrix {
    // y = α Xc / r with α = s·sqrt(n), Xc = X − 1·mean, r = ||Xc||_F.
    // dXc = α/r · G − α ⟨G, Xc⟩ / r³ · Xc ; dX = dXc − colmean(dXc).
    let mean = x.col_mean();
    let mut xc = workspace::take_copy(x);
    for r in 0..xc.rows() {
        let row = xc.row_mut(r);
        for (v, &m) in row.iter_mut().zip(mean.row(0)) {
            *v -= m;
        }
    }
    let r = skipnode_tensor::frobenius_norm(&xc).max(1e-12);
    let alpha = (s as f64) * (x.rows() as f64).sqrt();
    let dot: f64 = g
        .as_slice()
        .iter()
        .zip(xc.as_slice())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum();
    let c1 = (alpha / r) as f32;
    let c2 = (alpha * dot / (r * r * r)) as f32;
    let mut dxc = g.zip(&xc, |gv, xcv| c1 * gv - c2 * xcv);
    workspace::give(xc);
    let dmean = dxc.col_mean();
    for rr in 0..dxc.rows() {
        let row = dxc.row_mut(rr);
        for (v, &m) in row.iter_mut().zip(dmean.row(0)) {
            *v -= m;
        }
    }
    dxc
}

/// Accumulate an owned delta. On first touch the buffer is stored as the
/// gradient (no copy); otherwise it is added and recycled to the workspace.
pub(crate) fn accum(grads: &mut [Option<Matrix>], id: NodeId, delta: Matrix) {
    match &mut grads[id.0] {
        Some(g) => {
            g.add_scaled(&delta, 1.0);
            workspace::give(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}
