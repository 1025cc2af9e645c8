//! The one forward interpreter, [`Tape::eval_node`], and the deferred
//! executor for inference tapes ([`Tape::inference`]).
//!
//! Every op's forward arithmetic lives in `eval_node`. Eager recording
//! calls it once per node as the node is recorded (backward records
//! retained, no buffer stealing); compiled replay ([`crate::train_exec`])
//! calls it over a fixed schedule (records retained, stealing by
//! whole-program liveness); and [`Tape::run`] calls it for inference tapes,
//! which record shape-only placeholders and materialize exactly the nodes
//! the requested outputs depend on. Two properties make that cheaper than
//! the training forward:
//!
//! 1. **Liveness-driven freeing.** Operand positions are scanned once to
//!    find each node's last consumer; the moment that consumer has run, the
//!    operand's buffer goes back to the [`workspace`] free-list. A
//!    depth-64 stack therefore runs in an O(1)-sized working set instead of
//!    retaining ~2 buffers per layer for a backward pass that never comes.
//! 2. **In-place reuse.** Elementwise ops (ReLU, scale, bias, masks,
//!    row-combine, Hadamard, max-pool) and the fused SkipNode layer (its
//!    carry's rows) steal a dying operand's buffer and
//!    mutate it in place rather than copy-then-free. Without stealing they
//!    copy first and run the same in-place arithmetic, so every mode
//!    produces bit-identical values.
//!
//! Node values the caller asked to `keep` are pinned and never freed; read
//! them out with [`Tape::take_value`] afterwards. While the kernel counters
//! are on, [`Tape::run`] times each evaluation into [`crate::op_timers`]
//! under [`Phase::Inference`].

use crate::attention::gat_forward;
use crate::op_timers::{self, Phase};
use crate::tape::{apply_row_dropout, NodeId, Op, Tape, Value};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::quant::{qgemm, QuantizedMatrix};
use skipnode_tensor::segment::segment_reduce_into;
use skipnode_tensor::{
    add_bias_in_place, apply_dropout, dropout_into, kstats, relu_in_place, workspace, Epilogue,
    Matrix,
};
use std::sync::Arc;

/// Sentinel for "no consumer".
pub(crate) const NO_USE: usize = usize::MAX;

/// Visit the raw node indices an op reads.
pub(crate) fn op_inputs(op: &Op, f: &mut dyn FnMut(usize)) {
    match op {
        Op::Leaf => {}
        Op::MatMul(a, b) | Op::Hadamard(a, b) | Op::AddBias(a, b) => {
            f(a.0);
            f(b.0);
        }
        Op::AddScaled(a, b, _) => {
            f(a.0);
            f(b.0);
        }
        Op::Spmm { x, .. } => f(x.0),
        Op::Linear { x, w, b, .. } => {
            f(x.0);
            f(w.0);
            if let Some(b) = b {
                f(b.0);
            }
        }
        // `X` is read through the CSR on the record, never from its node.
        Op::SparseInput { w, .. } => f(w.0),
        Op::Scale(x, _)
        | Op::Relu(x)
        | Op::Mask { x, .. }
        | Op::RowMask { x, .. }
        | Op::PairNorm { x, .. } => f(x.0),
        Op::RowCombine { conv, skip, .. } => {
            f(conv.0);
            f(skip.0);
        }
        Op::SkipConv {
            x,
            skip,
            w,
            b,
            init_residual,
            residual,
            ..
        } => {
            f(x.0);
            f(skip.0);
            f(w.0);
            if let Some(b) = b {
                f(b.0);
            }
            if let Some((h0, _)) = init_residual {
                f(h0.0);
            }
            if let Some(res) = residual {
                f(res.0);
            }
        }
        Op::ConcatCols(parts) => parts.iter().for_each(|p| f(p.0)),
        Op::MaxPool { xs, .. } => xs.iter().for_each(|p| f(p.0)),
        Op::Readout { x, .. } => f(x.0),
        Op::LinComb(parts) => parts.iter().for_each(|&(p, _)| f(p.0)),
        Op::WeightedSum { xs, w } => {
            xs.iter().for_each(|p| f(p.0));
            f(w.0);
        }
        Op::EdgeScore { h, .. } => f(h.0),
        Op::GatAggregate {
            h, s_src, s_dst, ..
        } => {
            f(h.0);
            f(s_src.0);
            f(s_dst.0);
        }
        Op::Gather { x, .. } => f(x.0),
    }
}

/// `v = Σ parts[k].0 · parts[k].1`, accumulated in order onto zeros.
fn lin_comb_into(v: &mut Matrix, parts: &[(&Matrix, f32)]) {
    v.as_mut_slice().fill(0.0);
    for &(p, c) in parts {
        v.add_scaled(p, c);
    }
}

/// Borrowed operand values for [`skip_conv_compute`], mirroring
/// [`crate::FusedStep`] with matrices in place of tape nodes.
struct SkipConvArgs<'a> {
    mat: &'a CsrMatrix,
    /// The propagation input, already masked by the folded dropout on the
    /// rows the gather reads.
    xv: &'a Matrix,
    wv: &'a Matrix,
    bv: Option<&'a Matrix>,
    init: Option<(&'a Matrix, f32)>,
    beta: Option<f32>,
}

/// Compute the generalized fused SkipNode layer on its active rows:
/// `relu(support·W̃ [+ b])` with the SpMM/GEMM restricted to `active`.
///
/// Returns `(relu_active, gemm_left)`, both compact (`|active|` rows):
/// the ReLU output, which the caller scatters into the layer's output and
/// keeps as the backward's ReLU mask, and the GEMM left operand (`(Ã x)`,
/// or the initial-residual support), kept for the backward `dW` product.
///
/// Every arithmetic step replays the unfused op chain's elementwise order
/// (`lin_comb` accumulation, bias-then-ReLU), so the fused value is
/// bit-identical to the unfused chain.
fn skip_conv_compute(args: &SkipConvArgs<'_>, active: &[u32]) -> (Matrix, Matrix) {
    let d_out = args.wv.cols();
    // Compact gather: P = (Ã x) on active rows only.
    let mut p = workspace::take_scratch(active.len(), args.xv.cols());
    args.mat.spmm_rows_subset(args.xv, active, &mut p);
    // Initial residual: support = (1−α)·P + α·h0 (gathered), replaying
    // lin_comb's zero-init + add_scaled accumulation order.
    let s = match args.init {
        None => p,
        Some((h0, alpha)) => {
            let mut s = workspace::take(active.len(), p.cols());
            for (local, &r) in active.iter().enumerate() {
                let dst = s.row_mut(local);
                for (d, &pv) in dst.iter_mut().zip(p.row(local)) {
                    *d += (1.0 - alpha) * pv;
                }
                for (d, &hv) in dst.iter_mut().zip(h0.row(r as usize)) {
                    *d += alpha * hv;
                }
            }
            workspace::give(p);
            s
        }
    };
    // Compact GEMM T = S·W (|active| × d_out), then the optional bias and
    // the ReLU: in the GEMM's tile stores, or after the identity map
    // (z = (1−β)·S + β·T) when there is one.
    let ep = Epilogue {
        bias: args.bv.map(|bv| bv.row(0)),
        relu: true,
    };
    let mut t = workspace::take_scratch(active.len(), d_out);
    let z = match args.beta {
        None => {
            s.matmul_with_into(args.wv, ep, &mut t);
            t
        }
        Some(beta) => {
            s.matmul_into(args.wv, &mut t);
            let mut z = workspace::take(active.len(), d_out);
            z.add_scaled(&s, 1.0 - beta);
            z.add_scaled(&t, beta);
            workspace::give(t);
            ep.apply_rows(z.as_mut_slice(), d_out);
            z
        }
    };
    (z, s)
}

/// N(active): the columns `mat` stores in the rows `active`, ascending,
/// written to `out`.
fn neighborhood(mat: &CsrMatrix, active: &[u32], out: &mut Vec<u32>) {
    let mut seen = vec![false; mat.cols()];
    for &r in active {
        for &c in mat.row(r as usize).0 {
            seen[c as usize] = true;
        }
    }
    out.clear();
    out.extend((0..mat.cols() as u32).filter(|&c| seen[c as usize]));
}

impl Tape {
    /// Materialize the nodes that `keep` depends on (dead nodes are never
    /// computed), freeing every intermediate as soon as its last consumer
    /// has run. Only valid on a tape built with [`Tape::inference`]; `keep`
    /// values survive and can be moved out with [`Tape::take_value`].
    pub fn run(&mut self, keep: &[NodeId]) {
        assert!(
            self.is_inference(),
            "Tape::run is the inference executor; training tapes evaluate on record"
        );
        let n = self.nodes.len();
        let mut needed = vec![false; n];
        let mut pinned = vec![false; n];
        for &k in keep {
            needed[k.0] = true;
            pinned[k.0] = true;
        }
        // Dead-code elimination: ops are recorded in topological order, so
        // one reverse sweep marks the transitive inputs of the kept outputs.
        for idx in (0..n).rev() {
            if needed[idx] {
                op_inputs(&self.nodes[idx].op, &mut |p| needed[p] = true);
            }
        }
        // Liveness: the last live consumer of each needed node.
        let mut last_use = vec![NO_USE; n];
        for (idx, _) in needed.iter().enumerate().filter(|(_, &nd)| nd) {
            op_inputs(&self.nodes[idx].op, &mut |p| last_use[p] = idx);
        }
        let mut inputs: Vec<usize> = Vec::new();
        for (idx, _) in needed.iter().enumerate().filter(|(_, &nd)| nd) {
            if matches!(self.nodes[idx].value, Value::Pending { .. }) {
                let (kind, t) = (op_timers::kind(&self.nodes[idx].op), op_timers::start());
                self.eval_node(idx, &last_use, &pinned, false);
                op_timers::stop(t, Phase::Inference, kind);
            }
            inputs.clear();
            op_inputs(&self.nodes[idx].op, &mut |p| inputs.push(p));
            inputs.sort_unstable();
            inputs.dedup();
            for &p in &inputs {
                if !pinned[p] && last_use[p] == idx {
                    self.release(p);
                }
            }
        }
    }

    /// The int8 codes of leaf weight `w`, from `qweights` or made now.
    fn quantized_weight(&self, w: usize) -> Arc<QuantizedMatrix> {
        match self.qweights.get(&w) {
            Some(q) => Arc::clone(q),
            None => Arc::new(QuantizedMatrix::from_cols(self.val(w))),
        }
    }

    /// Drop a node's buffer back to the workspace, leaving a shape-only
    /// placeholder. No-op if the value was already stolen for in-place
    /// reuse; shared constants just drop their `Arc`.
    pub(crate) fn release(&mut self, idx: usize) {
        let (rows, cols) = self.nodes[idx].value.shape();
        if let Value::Owned(m) =
            std::mem::replace(&mut self.nodes[idx].value, Value::Pending { rows, cols })
        {
            workspace::give(m);
        }
    }

    /// An owned copy of node `src`'s value for in-place mutation. When
    /// `src` dies at `at` (and is not pinned, not `aliases`-shared with
    /// another operand the caller still reads, and holds an owned buffer),
    /// the buffer is stolen instead of copied. Empty `last_use` turns
    /// stealing off.
    fn reuse_or_copy(
        &mut self,
        src: usize,
        at: usize,
        last_use: &[usize],
        pinned: &[bool],
        aliases: &[usize],
    ) -> Matrix {
        if last_use.get(src) == Some(&at) && !pinned[src] && !aliases.contains(&src) {
            if let Some(m) = self.steal_owned(src) {
                return m;
            }
        }
        workspace::take_copy(self.val(src))
    }

    /// Execute one pending op: the only forward arithmetic of every op.
    /// The op record is temporarily swapped out so buffer-stealing
    /// (`&mut self`) can coexist with reading it.
    ///
    /// `last_use` / `pinned` drive in-place stealing of dying operands
    /// (see `reuse_or_copy`); eager recording passes empty slices, which
    /// turns stealing off. With `retain: true` (training tapes and compiled
    /// replay) the backward-only op records are refreshed alongside the
    /// value: the fused SkipNode layer's `p_active` / `relu_active` caches
    /// are written back instead of recycled, max-pool and readout recompute
    /// their `argmax`, and GAT keeps its attention weights. Inference
    /// passes `false` and skips that bookkeeping.
    pub(crate) fn eval_node(
        &mut self,
        idx: usize,
        last_use: &[usize],
        pinned: &[bool],
        retain: bool,
    ) {
        let mut op = std::mem::replace(&mut self.nodes[idx].op, Op::Leaf);
        let value = match &mut op {
            Op::Leaf => unreachable!("a leaf is never pending"),
            Op::MatMul(a, b) => {
                // Quantized inference routes activation × leaf-weight
                // products through the int8 kernel; per-eval calibration
                // is one O(k·n) pass against O(m·k·n) of dot work.
                if self.is_quantized() && matches!(self.nodes[b.0].op, Op::Leaf) {
                    let qb = self.quantized_weight(b.0);
                    let av = self.val(a.0);
                    let mut out = workspace::take(av.rows(), qb.n());
                    qgemm(av, &qb, &mut out);
                    out
                } else {
                    self.val(a.0).matmul(self.val(b.0))
                }
            }
            Op::Spmm {
                adj,
                x,
                dropped,
                rate,
            } => {
                let (mat, xv) = (&self.adjs[*adj].mat, self.val(x.0));
                if dropped.is_empty() {
                    mat.spmm(xv)
                } else {
                    // The masked input in one pass, read by the product and
                    // recycled at once.
                    let mut masked = workspace::take_scratch(xv.rows(), xv.cols());
                    dropout_into(xv.as_slice(), dropped, *rate, masked.as_mut_slice());
                    let out = mat.spmm(&masked);
                    workspace::give(masked);
                    out
                }
            }
            Op::Linear { x, w, b, relu } => {
                let ep = Epilogue {
                    bias: b.map(|b| self.val(b.0).row(0)),
                    relu: *relu,
                };
                let (xv, wv) = (self.val(x.0), self.val(w.0));
                let mut out = workspace::take_scratch(xv.rows(), wv.cols());
                // Quantized inference keeps its int8 product for leaf
                // weights (see `MatMul`) and applies the epilogue after it.
                if self.is_quantized() && matches!(self.nodes[w.0].op, Op::Leaf) {
                    qgemm(xv, &self.quantized_weight(w.0), &mut out);
                    ep.apply_rows(out.as_mut_slice(), wv.cols());
                } else {
                    xv.matmul_with_into(wv, ep, &mut out);
                }
                out
            }
            Op::AddScaled(a, b, c) => {
                let mut v = self.reuse_or_copy(a.0, idx, last_use, pinned, &[b.0]);
                v.add_scaled(self.val(b.0), *c);
                v
            }
            Op::Scale(x, c) => {
                let mut v = self.reuse_or_copy(x.0, idx, last_use, pinned, &[]);
                v.scale_in_place(*c);
                v
            }
            Op::AddBias(x, bias) => {
                let mut v = self.reuse_or_copy(x.0, idx, last_use, pinned, &[bias.0]);
                add_bias_in_place(&mut v, self.val(bias.0));
                v
            }
            Op::Relu(x) => {
                let mut v = self.reuse_or_copy(x.0, idx, last_use, pinned, &[]);
                relu_in_place(&mut v);
                v
            }
            Op::Mask { x, dropped, rate } => {
                let mut v = self.reuse_or_copy(x.0, idx, last_use, pinned, &[]);
                apply_dropout(v.as_mut_slice(), dropped, *rate);
                v
            }
            Op::RowMask { x, dropped, rate } => {
                let mut v = self.reuse_or_copy(x.0, idx, last_use, pinned, &[]);
                apply_row_dropout(&mut v, dropped, *rate);
                v
            }
            Op::RowCombine {
                conv,
                skip,
                take_skip,
            } => {
                let mut v = self.reuse_or_copy(conv.0, idx, last_use, pinned, &[skip.0]);
                for (r, &take) in take_skip.iter().enumerate() {
                    if take {
                        v.row_mut(r).copy_from_slice(self.val(skip.0).row(r));
                    }
                }
                v
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
                let mat = &self.adjs[*adj].mat;
                if retain || !dropped.is_empty() {
                    neighborhood(mat, &cache.active, &mut cache.nbr);
                }
                // The folded dropout, applied only on N(active): the gather
                // reads no other row of its input. The flags of those rows
                // are kept in N(active) order for the backward.
                cache.nbr_dropped.clear();
                let masked = (!dropped.is_empty()).then(|| {
                    let xv = self.val(x.0);
                    let d = xv.cols();
                    let mut m = workspace::take_scratch(xv.rows(), d);
                    for &c in &cache.nbr {
                        let c = c as usize;
                        let flags = &dropped[c * d..(c + 1) * d];
                        dropout_into(xv.row(c), flags, *rate, m.row_mut(c));
                        cache.nbr_dropped.extend_from_slice(flags);
                    }
                    m
                });
                let args = SkipConvArgs {
                    mat,
                    xv: masked.as_ref().unwrap_or_else(|| self.val(x.0)),
                    wv: self.val(w.0),
                    bv: b.map(|b| self.val(b.0)),
                    init: init_residual.map(|(h0, a)| (self.val(h0.0), a)),
                    beta: *identity_map,
                };
                let (z, p_active) = skip_conv_compute(&args, &cache.active);
                if let Some(m) = masked {
                    workspace::give(m);
                }
                // Skipped rows keep the skip branch's row: start from its
                // buffer when this op is its last reader, and overwrite the
                // active rows with the conv branch (plus the residual).
                let mut value = self.reuse_or_copy(skip.0, idx, last_use, pinned, &[]);
                for (local, &r) in cache.active.iter().enumerate() {
                    let r = r as usize;
                    let dst = value.row_mut(r);
                    match residual {
                        Some(res) if *res == *skip => {
                            for (v, &zv) in dst.iter_mut().zip(z.row(local)) {
                                *v += zv;
                            }
                        }
                        Some(res) => {
                            let rows = z.row(local).iter().zip(self.val(res.0).row(r));
                            for (v, (&zv, &rv)) in dst.iter_mut().zip(rows) {
                                *v = zv + rv;
                            }
                        }
                        None => dst.copy_from_slice(z.row(local)),
                    }
                }
                if retain {
                    // Keep the backward caches; recycle the previous
                    // evaluation's buffers (`give` ignores the 0×0 case).
                    workspace::give(std::mem::replace(&mut cache.p_active, p_active));
                    workspace::give(std::mem::replace(&mut cache.relu_active, z));
                } else {
                    // Backward-only caches; recycle them immediately.
                    workspace::give(p_active);
                    workspace::give(z);
                }
                value
            }
            Op::SparseInput {
                xs,
                adj,
                w,
                dropped,
                rate,
                support,
            } => {
                let mut masked = xs.values().to_vec();
                apply_dropout(&mut masked, dropped, *rate);
                let s = xs.product_with_values(adj.map(|a| &*self.adjs[a].mat), &masked);
                kstats::record(kstats::Kernel::SparseInput, s.nnz());
                let wv = self.val(w.0);
                let mut z = workspace::take_scratch(s.rows(), wv.cols());
                s.spmm_into(wv, &mut z);
                if retain {
                    *support = s;
                }
                z
            }
            Op::ConcatCols(parts) => {
                // A workspace buffer, since release gives it back.
                let (rows, cols) = self.shape(NodeId(idx));
                let mut v = workspace::take_scratch(rows, cols);
                let mats: Vec<&Matrix> = parts.iter().map(|p| self.val(p.0)).collect();
                Matrix::hcat_into(&mats, &mut v);
                v
            }
            Op::MaxPool { xs, argmax } => {
                let aliases: Vec<usize> = xs[1..].iter().map(|p| p.0).collect();
                let mut v = self.reuse_or_copy(xs[0].0, idx, last_use, pinned, &aliases);
                if retain {
                    // Refresh the backward argmax record.
                    argmax.clear();
                    argmax.resize(v.len(), 0);
                }
                // Elementwise max keeping the earlier part on ties.
                for (k, p) in xs.iter().enumerate().skip(1) {
                    let pv = self.val(p.0);
                    for (i, &cand) in pv.as_slice().iter().enumerate() {
                        let t = &mut v.as_mut_slice()[i];
                        if cand > *t {
                            *t = cand;
                            if retain {
                                argmax[i] = k as u8;
                            }
                        }
                    }
                }
                v
            }
            Op::Readout {
                x,
                kind,
                seg,
                argmax,
            } => {
                let (rows, cols) = self.nodes[idx].value.shape();
                let mut v = workspace::take_scratch(rows, cols);
                if retain {
                    // Refresh the backward argmax record.
                    segment_reduce_into(self.val(x.0), seg, *kind, &mut v, argmax);
                } else {
                    let mut scratch = Vec::new();
                    segment_reduce_into(self.val(x.0), seg, *kind, &mut v, &mut scratch);
                }
                v
            }
            Op::PairNorm { x, s } => crate::tape::pairnorm_forward(self.val(x.0), *s),
            Op::Hadamard(a, b) => {
                let mut v = self.reuse_or_copy(a.0, idx, last_use, pinned, &[b.0]);
                for (t, &bv) in v.as_mut_slice().iter_mut().zip(self.val(b.0).as_slice()) {
                    *t *= bv;
                }
                v
            }
            Op::LinComb(parts) => {
                let (rows, cols) = self.nodes[idx].value.shape();
                let mut v = workspace::take_scratch(rows, cols);
                let operands: Vec<(&Matrix, f32)> =
                    parts.iter().map(|&(p, c)| (self.val(p.0), c)).collect();
                lin_comb_into(&mut v, &operands);
                v
            }
            Op::WeightedSum { xs, w } => {
                let coef: Vec<f32> = (0..xs.len()).map(|k| self.val(w.0).get(0, k)).collect();
                let (rows, cols) = self.nodes[idx].value.shape();
                let mut v = workspace::take_scratch(rows, cols);
                let operands: Vec<(&Matrix, f32)> = xs
                    .iter()
                    .zip(&coef)
                    .map(|(x, &c)| (self.val(x.0), c))
                    .collect();
                lin_comb_into(&mut v, &operands);
                v
            }
            Op::EdgeScore { h, edges } => {
                let hv = self.val(h.0);
                let mut v = workspace::take(edges.len(), 1);
                for (e, &(src, dst)) in edges.iter().enumerate() {
                    let dot: f32 = hv
                        .row(src)
                        .iter()
                        .zip(hv.row(dst))
                        .map(|(&a, &b)| a * b)
                        .sum();
                    v.set(e, 0, dot);
                }
                v
            }
            Op::GatAggregate {
                h,
                s_src,
                s_dst,
                cache,
            } => {
                let (out, alphas, leaky_grad) = gat_forward(
                    self.val(h.0),
                    self.val(s_src.0),
                    self.val(s_dst.0),
                    &cache.graph,
                    cache.slope,
                );
                if retain {
                    cache.alphas = alphas;
                    cache.leaky_grad = leaky_grad;
                }
                out
            }
            Op::Gather { x, rows } => {
                let xv = self.val(x.0);
                let mut v = workspace::take_scratch(rows.len(), xv.cols());
                for (i, &r) in rows.iter().enumerate() {
                    v.row_mut(i).copy_from_slice(xv.row(r as usize));
                }
                v
            }
        };
        debug_assert_eq!(
            value.shape(),
            self.nodes[idx].value.shape(),
            "op produced a shape different from its pending placeholder"
        );
        self.nodes[idx].op = op;
        self.nodes[idx].value = Value::Owned(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipnode_sparse::gcn_adjacency;
    use skipnode_tensor::SplitRng;

    fn assert_same(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.as_slice(), b.as_slice(), "values differ bit-for-bit");
    }

    /// A small fused-layer chain built identically on both tape kinds.
    fn build(tape: &mut Tape, rng: &mut SplitRng) -> NodeId {
        let adj = tape.register_adj(Arc::new(gcn_adjacency(3, &[(0, 1), (1, 2)])));
        let x = tape.constant(rng.uniform_matrix(3, 4, -1.0, 1.0));
        let w = tape.param(rng.uniform_matrix(4, 4, -0.5, 0.5));
        let b = tape.param(rng.uniform_matrix(1, 4, -0.1, 0.1));
        let skip = tape.spmm(adj, x);
        let sk = tape.matmul(skip, w);
        let fused = tape.skip_conv(adj, x, sk, w, b, &[false, true, false]);
        let dropped = tape.dropout(fused, 0.3, rng);
        let normed = tape.pairnorm(dropped, 1.0);
        tape.relu(normed)
    }

    #[test]
    fn deferred_run_matches_eager_forward_bitwise() {
        let mut rng_a = SplitRng::new(77);
        let mut eager = Tape::new();
        let out_a = build(&mut eager, &mut rng_a);

        let mut rng_b = SplitRng::new(77);
        let mut infer = Tape::inference();
        let out_b = build(&mut infer, &mut rng_b);
        infer.run(&[out_b]);

        assert_same(eager.value(out_a), infer.value(out_b));
    }

    #[test]
    fn intermediates_are_freed_and_kept_outputs_survive() {
        let mut rng = SplitRng::new(3);
        let mut infer = Tape::inference();
        let x = infer.constant(rng.uniform_matrix(5, 3, -1.0, 1.0));
        let a = infer.relu(x);
        let b = infer.scale(a, 2.0);
        let c = infer.add(b, b);
        infer.run(&[c]);
        // Kept output is materialized; the dead intermediate `a`'s slot was
        // recycled (either stolen in place or released).
        assert_eq!(infer.shape(c), (5, 3));
        let _ = infer.take_value(c);
        assert!(matches!(
            infer.nodes[a.0].value,
            Value::Pending { .. } | Value::Owned(_)
        ));
    }

    #[test]
    fn aliased_operands_are_not_stolen() {
        // c = b + b must not steal b's buffer for the in-place add while the
        // second operand still reads it.
        let mut infer = Tape::inference();
        let x = infer.constant(Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]));
        let b = infer.scale(x, 3.0);
        let c = infer.add(b, b);
        infer.run(&[c]);
        assert_eq!(infer.value(c).as_slice(), &[6.0, -12.0, 18.0, 24.0]);
    }

    #[test]
    fn dead_branches_are_never_computed() {
        let mut infer = Tape::inference();
        let x = infer.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let live = infer.scale(x, 2.0);
        let dead = infer.scale(x, 5.0);
        infer.run(&[live]);
        assert!(matches!(infer.nodes[dead.0].value, Value::Pending { .. }));
        assert_eq!(infer.value(live).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn quantized_matmul_tracks_f32_and_skips_non_leaf_weights() {
        let mut rng = SplitRng::new(21);
        let x = rng.uniform_matrix(12, 8, -1.0, 1.0);
        let w = rng.uniform_matrix(8, 6, -0.5, 0.5);

        let mut f = Tape::inference();
        let y_f = {
            let xn = f.constant(x.clone());
            let wn = f.param(w.clone());
            f.matmul(xn, wn)
        };
        f.run(&[y_f]);

        let mut q = Tape::inference_quantized();
        assert!(q.is_quantized() && q.is_inference());
        let y_q = {
            let xn = q.constant(x.clone());
            let wn = q.param(w.clone());
            q.matmul(xn, wn)
        };
        q.run(&[y_q]);
        // Symmetric 8-bit over k=8 terms of magnitude <= 0.5: well under
        // 0.1 absolute error, but never bit-equal to the f32 GEMM.
        for (a, b) in f.value(y_f).as_slice().iter().zip(q.value(y_q).as_slice()) {
            assert!((a - b).abs() < 0.1, "{a} vs {b}");
        }

        // A product whose right operand is computed (not a leaf) must stay
        // on the f32 path bit-for-bit.
        let build_relu_chain = |tape: &mut Tape| -> NodeId {
            let xn = tape.constant(x.clone());
            let wn = tape.param(w.clone());
            let wr = tape.relu(wn);
            tape.matmul(xn, wr)
        };
        let mut eager = Tape::new();
        let y_e = build_relu_chain(&mut eager);
        let mut q2 = Tape::inference_quantized();
        let y_2 = build_relu_chain(&mut q2);
        q2.run(&[y_2]);
        assert_same(eager.value(y_e), q2.value(y_2));
    }

    #[test]
    fn lin_comb_accumulates_in_order() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        let mut v = Matrix::full(1, 2, f32::NAN);
        lin_comb_into(&mut v, &[(&a, 0.5), (&b, 0.1)]);
        assert_eq!(v.as_slice(), &[1.5, 3.0]);
    }

    #[test]
    fn max_pool_keeps_the_larger_entry() {
        let mut infer = Tape::inference();
        let a = infer.constant(Matrix::from_rows(&[&[1.0, 5.0]]));
        let b = infer.constant(Matrix::from_rows(&[&[3.0, 2.0]]));
        let v = infer.max_pool(&[a, b]);
        infer.run(&[v]);
        assert_eq!(infer.value(v).as_slice(), &[3.0, 5.0]);
    }

    #[test]
    fn inference_tapes_register_asymmetric_matrices_without_a_transpose() {
        // Row-normalized path 0 - 1 - 2: not symmetric.
        let asym = || {
            Arc::new(CsrMatrix::new(
                3,
                3,
                vec![0, 2, 5, 7],
                vec![0, 1, 0, 1, 2, 1, 2],
                vec![0.5, 0.5, 0.25, 0.5, 0.25, 0.5, 0.5],
            ))
        };
        let mut train = Tape::new();
        let id = train.register_adj(asym());
        assert!(train.adjs[id.0].transpose.is_some());

        let mut infer = Tape::inference();
        let id = infer.register_adj(asym());
        assert!(infer.adjs[id.0].transpose.is_none());
        let x = infer.constant(Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]));
        let y = infer.spmm(id, x);
        infer.run(&[y]);
        assert_eq!(infer.value(y).as_slice(), &[1.5, 2.25, 3.0]);
    }

    #[test]
    fn gather_copies_the_listed_rows() {
        let mut infer = Tape::inference();
        let x = infer.constant(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let g = infer.record(
            2,
            2,
            Op::Gather {
                x,
                rows: vec![0, 2],
            },
        );
        infer.run(&[g]);
        assert_eq!(infer.value(g).as_slice(), &[1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "backward on an inference tape")]
    fn backward_is_rejected_on_inference_tapes() {
        let mut infer = Tape::inference();
        let x = infer.constant(Matrix::from_rows(&[&[1.0]]));
        let y = infer.scale(x, 2.0);
        infer.run(&[y]);
        infer.backward(y, Matrix::from_rows(&[&[1.0]]));
    }
}
