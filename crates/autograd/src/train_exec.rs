//! Compiled training: record a tape once, replay it every epoch.
//!
//! Eager training rebuilds the whole [`Tape`] per epoch — re-pushing every
//! node, re-cloning every parameter, and keeping every forward value alive
//! until the backward pass ends. [`TrainProgram`] compiles a
//! recorded tape into a fixed forward+backward schedule executed against
//! the same node storage each epoch:
//!
//! - **Record once / replay many.** The tape's op records (and their
//!   shapes) depend only on the model plan and strategy, never on drawn
//!   values, so one probe forward fixes the schedule. Stochastic records —
//!   dropout masks, GRAND row masks, SkipNode skip sets — are refreshed per
//!   epoch by [`TrainProgram::begin_epoch`] in node order, consuming the
//!   per-epoch RNG stream exactly as the eager constructors do, which keeps
//!   replayed values byte-identical to a freshly recorded tape.
//! - **Whole-program liveness.** Forward and backward are laid out on one
//!   combined timeline (forward op `j` at position `j`, backward step of
//!   node `j` at position `2N−1−j`); every node value's true last read is
//!   computed at compile time, and the buffer is recycled to the
//!   [`workspace`] free-list the moment that read has happened — including
//!   reads *by the backward pass* (ReLU masks, GEMM operands), which the
//!   eager tape must keep alive wholesale.
//! - **Gradient recycling.** Each backward step owns its upstream gradient:
//!   elementwise ops mutate it in place and pass it down, and every buffer
//!   that stops flowing is given back to the workspace. Replay additionally
//!   steals dying forward intermediates for gradient math (ReLU) and keeps
//!   its gradient slots across epochs.
//!
//! Replay runs the same forward interpreter (`Tape::eval_node`) and the
//! same backward step (`Tape::backward_step`) as an eagerly recorded tape,
//! timing each call per op kind when [`crate::op_timers`] collect;
//! only scheduling and buffer lifetimes differ. Every op compiles, so the
//! eager tape stays as the reference the equivalence tests compare against:
//! replayed losses, values, and parameter gradients are bit-identical to
//! it.

use crate::infer::{op_inputs, NO_USE};
use crate::op_timers::{self, Phase};
use crate::tape::{accum, backward_value_reads, NodeId, Op, Tape, Value};
use skipnode_sparse::{CsrMatrix, COL_SKIP};
use skipnode_tensor::{workspace, Matrix, SplitRng};
use std::sync::Arc;

/// Per-epoch source of SkipNode sampling decisions.
///
/// The compiled program knows *where* skip masks sit on the tape but not
/// the sampling distribution (uniform vs degree-biased lives in the model
/// crates); the sampler fills each mask from the epoch RNG with exactly the
/// draws the eager forward would have made.
pub trait EpochSampler {
    /// Fill `out` with this layer's skip decisions (`true` = skip the
    /// node), consuming `rng` exactly as the eager strategy does.
    fn skip_mask(&mut self, rng: &mut SplitRng, out: &mut [bool]);
}

/// A compiled, epoch-resident training step. See the module docs.
pub struct TrainProgram {
    tape: Tape,
    heads: Vec<NodeId>,
    param_nodes: Vec<NodeId>,
    /// Raw node index → slot in [`TrainProgram::backward`]'s result
    /// (`u32::MAX` for non-parameter nodes).
    param_slot: Vec<u32>,
    /// Nodes the heads transitively depend on (dead nodes are never
    /// computed — their stochastic records still consume RNG draws).
    needed: Vec<bool>,
    /// Never freed or stolen: leaves and heads.
    pinned: Vec<bool>,
    /// Last read of each node's value on the combined forward+backward
    /// timeline: forward op `j` reads at position `j`, the backward step of
    /// node `j` reads at position `2N−1−j`.
    last_value_use: Vec<usize>,
    /// Values to recycle after forward step / backward step of each node.
    free_after_fwd: Vec<Vec<u32>>,
    free_after_bwd: Vec<Vec<u32>>,
    /// Gradient slots, all `None` between epochs (kept for capacity).
    grads: Vec<Option<Matrix>>,
    /// Scratch for redrawing fused skip masks.
    mask_scratch: Vec<bool>,
    /// Gradient-checkpointing schedule, `None` when checkpointing is off.
    ck: Option<CkSchedule>,
}

/// Segmented replay schedule for tape-level gradient checkpointing.
///
/// The node range is split into contiguous segments. The main forward
/// drops every interior value at the end of its segment, keeping only
/// **boundaries** — values some later segment's forward reads — plus
/// pinned leaves and heads. Backward walks segments in reverse: each
/// segment's dropped values are recomputed (bit-identical — all
/// stochastic records live on op records drawn once per epoch), its
/// backward steps run, and then everything the segment owns is swept back
/// to the workspace. Peak residency falls from O(depth) to
/// O(depth/segments + segments) buffers.
struct CkSchedule {
    /// Segment `s` covers node indices `bounds[s]..bounds[s+1]`.
    bounds: Vec<usize>,
    /// [`TrainProgram::last_value_use`] with every cross-segment last use
    /// masked to [`NO_USE`]: those values must survive until their owning
    /// segment's end-of-backward sweep, so neither the stealing heuristics
    /// nor the free lists may consume them.
    last_use: Vec<usize>,
    /// Intra-segment subsets of the plain free lists (cross-segment frees
    /// are deferred to the sweep — a later segment's backward must never
    /// free a value an earlier segment's recompute still reads).
    free_after_fwd: Vec<Vec<u32>>,
    free_after_bwd: Vec<Vec<u32>>,
    /// Values to drop at the end of each segment's main forward: needed,
    /// non-pinned, non-boundary values whose last use is a backward read.
    /// Dropping them (for recompute later) is the memory saving.
    drop_after_seg: Vec<Vec<u32>>,
}

impl TrainProgram {
    /// Compile a recorded (eager) tape into a replayable program.
    ///
    /// `heads` are the loss outputs: they are pinned across the forward
    /// pass, and dead-code elimination keeps only their dependencies.
    pub fn compile(tape: Tape, heads: Vec<NodeId>) -> Self {
        assert!(
            !tape.is_inference(),
            "TrainProgram compiles eagerly recorded tapes; inference tapes \
             hold no gradient bookkeeping"
        );
        let n = tape.len();
        let mut needed = vec![false; n];
        let mut pinned = vec![false; n];
        for &h in &heads {
            needed[h.0] = true;
            pinned[h.0] = true;
        }
        for idx in (0..n).rev() {
            if needed[idx] {
                op_inputs(&tape.nodes[idx].op, &mut |p| needed[p] = true);
            }
        }
        for (idx, node) in tape.nodes.iter().enumerate() {
            if matches!(node.op, Op::Leaf) {
                pinned[idx] = true;
            }
        }

        // Combined-timeline liveness: process reads in execution order
        // (forward ascending, then backward descending over node indices)
        // and overwrite unconditionally — the final write is the last read.
        let mut last_value_use = vec![NO_USE; n];
        for (idx, &live) in needed.iter().enumerate() {
            if live {
                op_inputs(&tape.nodes[idx].op, &mut |p| last_value_use[p] = idx);
            }
        }
        for idx in (0..n).rev() {
            // A backward step executes exactly for needed nodes that
            // require gradients (every such node receives a gradient from
            // the seeded heads through an all-requires-grad consumer
            // chain).
            if needed[idx] && tape.nodes[idx].requires_grad {
                let pos = 2 * n - 1 - idx;
                backward_value_reads(&tape, idx, &mut |p| last_value_use[p] = pos);
            }
        }

        let mut free_after_fwd = vec![Vec::new(); n];
        let mut free_after_bwd = vec![Vec::new(); n];
        for v in 0..n {
            if pinned[v] || !needed[v] || last_value_use[v] == NO_USE {
                continue;
            }
            let last = last_value_use[v];
            if last < n {
                free_after_fwd[last].push(v as u32);
            } else {
                free_after_bwd[2 * n - 1 - last].push(v as u32);
            }
        }

        let param_nodes = tape.params().to_vec();
        let mut param_slot = vec![u32::MAX; n];
        for (slot, id) in param_nodes.iter().enumerate() {
            param_slot[id.0] = slot as u32;
        }
        let grads = (0..n).map(|_| None).collect();
        Self {
            tape,
            heads,
            param_nodes,
            param_slot,
            needed,
            pinned,
            last_value_use,
            free_after_fwd,
            free_after_bwd,
            grads,
            mask_scratch: Vec::new(),
            ck: None,
        }
    }

    /// Split the schedule into `segments` contiguous node segments and
    /// replay with gradient checkpointing: interior activations are
    /// dropped after their segment's forward pass and recomputed during
    /// backward, one segment at a time. `segments <= 1` disables
    /// checkpointing. Replayed values and gradients stay **bit-identical**
    /// to the non-checkpointed program: recompute re-executes the same
    /// kernels on the same op records (masks, skip sets, and column maps
    /// are drawn once per epoch by [`TrainProgram::begin_epoch`], never
    /// redrawn by recompute).
    pub fn enable_checkpointing(&mut self, segments: usize) {
        let n = self.tape.len();
        if segments <= 1 || n == 0 {
            self.ck = None;
            return;
        }
        let segments = segments.min(n);
        let mut bounds = Vec::with_capacity(segments + 1);
        for s in 0..=segments {
            bounds.push(s * n / segments);
        }
        let mut seg_of = vec![0u32; n];
        for s in 0..segments {
            for v in seg_of[bounds[s]..bounds[s + 1]].iter_mut() {
                *v = s as u32;
            }
        }
        // A boundary is a value some later segment's forward reads: it
        // must stay materialized from the main forward until its own
        // segment's backward sweep, because that later segment's
        // recompute (and backward, whose value reads are all forward
        // inputs or the node itself) consumes it.
        let mut boundary = vec![false; n];
        for idx in 0..n {
            if self.needed[idx] {
                let seg = seg_of[idx];
                op_inputs(&self.tape.nodes[idx].op, &mut |p| {
                    if seg_of[p] != seg {
                        boundary[p] = true;
                    }
                });
            }
        }
        let mut last_use = self.last_value_use.clone();
        for v in 0..n {
            let last = last_use[v];
            if last == NO_USE {
                continue;
            }
            let reader = if last < n { last } else { 2 * n - 1 - last };
            if seg_of[reader] != seg_of[v] {
                last_use[v] = NO_USE;
            }
        }
        let keep_intra = |lists: &[Vec<u32>]| -> Vec<Vec<u32>> {
            lists
                .iter()
                .enumerate()
                .map(|(j, vs)| {
                    vs.iter()
                        .copied()
                        .filter(|&v| seg_of[v as usize] == seg_of[j])
                        .collect()
                })
                .collect()
        };
        let free_after_fwd = keep_intra(&self.free_after_fwd);
        let free_after_bwd = keep_intra(&self.free_after_bwd);
        let mut drop_after_seg = vec![Vec::new(); segments];
        for v in 0..n {
            if self.needed[v]
                && !self.pinned[v]
                && !boundary[v]
                && self.last_value_use[v] != NO_USE
                && self.last_value_use[v] >= n
            {
                drop_after_seg[seg_of[v] as usize].push(v as u32);
            }
        }
        self.ck = Some(CkSchedule {
            bounds,
            last_use,
            free_after_fwd,
            free_after_bwd,
            drop_after_seg,
        });
    }

    /// Whether gradient checkpointing is active.
    pub fn is_checkpointing(&self) -> bool {
        self.ck.is_some()
    }

    /// The loss heads, in recording order.
    pub fn heads(&self) -> &[NodeId] {
        &self.heads
    }

    /// Parameter nodes in registration (binding) order — gradient slots in
    /// [`TrainProgram::backward`]'s result use the same order.
    pub fn param_nodes(&self) -> &[NodeId] {
        &self.param_nodes
    }

    /// Value of a node (heads stay materialized until the next
    /// [`TrainProgram::begin_epoch`]).
    pub fn value(&self, id: NodeId) -> &Matrix {
        self.tape.value(id)
    }

    /// Re-point the program's registered adjacency at this epoch's sampled
    /// matrix. Transpose/symmetry metadata is cached on the matrix itself,
    /// so re-setting the same `Arc` every epoch is O(1), exactly like the
    /// eager path's per-epoch [`Tape::register_adj`].
    ///
    /// # Panics
    /// Panics if the recorded tape registered anything other than exactly
    /// one adjacency.
    pub fn set_adjacency(&mut self, mat: Arc<CsrMatrix>) {
        assert_eq!(
            self.tape.adjs.len(),
            1,
            "compiled replay expects exactly one registered adjacency"
        );
        self.tape.replace_adj(0, mat);
    }

    /// Copy current parameter values into the program's leaf slots
    /// (replaces the eager path's per-epoch parameter cloning; the copy is
    /// into buffers that already live on the tape).
    ///
    /// # Panics
    /// Panics on a count or shape mismatch with the recorded parameters.
    pub fn load_params<'a>(&mut self, values: impl IntoIterator<Item = &'a Matrix>) {
        let mut count = 0;
        for (slot, v) in values.into_iter().enumerate() {
            let id = self
                .param_nodes
                .get(slot)
                .unwrap_or_else(|| panic!("more parameter values than recorded parameters"));
            match &mut self.tape.nodes[id.0].value {
                Value::Owned(m) => {
                    assert_eq!(m.shape(), v.shape(), "parameter {slot} shape mismatch");
                    m.as_mut_slice().copy_from_slice(v.as_slice());
                }
                _ => unreachable!("parameters are owned leaves"),
            }
            count += 1;
        }
        assert_eq!(
            count,
            self.param_nodes.len(),
            "fewer parameter values than recorded parameters"
        );
    }

    /// Start an epoch: recycle every non-leaf value from the previous
    /// replay and redraw all stochastic records in node order, consuming
    /// `rng` exactly as the eager constructors would (dead nodes included —
    /// the eager forward drew their masks too, so skipping them would
    /// desynchronize the stream).
    pub fn begin_epoch<S: EpochSampler>(&mut self, sampler: &mut S, rng: &mut SplitRng) {
        let mut scratch = std::mem::take(&mut self.mask_scratch);
        for idx in 0..self.tape.len() {
            if !matches!(self.tape.nodes[idx].op, Op::Leaf) {
                self.tape.release(idx);
            }
            match &mut self.tape.nodes[idx].op {
                Op::Mask { dropped, rate, .. } | Op::RowMask { dropped, rate, .. } => {
                    rng.fill_bernoulli(*rate, dropped)
                }
                // A dropout folded into its propagation, drawn where its
                // own `Mask` would have drawn.
                Op::Spmm { dropped, rate, .. } if *rate > 0.0 => rng.fill_bernoulli(*rate, dropped),
                Op::SparseInput {
                    xs, dropped, rate, ..
                } if *rate > 0.0 => {
                    let len = xs.rows() * xs.cols();
                    rng.fill_bernoulli_at(*rate, len, xs.stored_positions(), dropped);
                }
                Op::RowCombine { take_skip, .. } => {
                    sampler.skip_mask(rng, take_skip);
                }
                Op::SkipConv {
                    cache,
                    dropped,
                    rate,
                    ..
                } => {
                    // The folded dropout's flags first, where its own
                    // `Mask` would have drawn them.
                    if *rate > 0.0 {
                        rng.fill_bernoulli(*rate, dropped);
                    }
                    scratch.clear();
                    scratch.resize(cache.col_map.len(), false);
                    sampler.skip_mask(rng, &mut scratch);
                    // Rebuild the active set / column map exactly as
                    // `Tape::skip_conv_step` does at recording time.
                    cache.active.clear();
                    for (r, &take) in scratch.iter().enumerate() {
                        if take {
                            cache.col_map[r] = COL_SKIP;
                        } else {
                            cache.col_map[r] = cache.active.len() as u32;
                            cache.active.push(r as u32);
                        }
                    }
                }
                _ => {}
            }
        }
        self.mask_scratch = scratch;
    }

    /// Execute the forward schedule: live nodes only, recycling each value
    /// at its last forward read (values the backward pass still needs stay
    /// materialized until their backward read — or, under checkpointing,
    /// only until the end of their segment).
    pub fn replay_forward(&mut self) {
        if self.ck.is_some() {
            return self.replay_forward_ck();
        }
        for idx in 0..self.tape.len() {
            if !self.needed[idx] || matches!(self.tape.nodes[idx].op, Op::Leaf) {
                continue;
            }
            let (kind, t) = (
                op_timers::kind(&self.tape.nodes[idx].op),
                op_timers::start(),
            );
            self.tape
                .eval_node(idx, &self.last_value_use, &self.pinned, true);
            op_timers::stop(t, Phase::Forward, kind);
            for &v in &self.free_after_fwd[idx] {
                self.tape.release(v as usize);
            }
        }
    }

    /// Checkpointed main forward: evaluate each segment, then drop its
    /// backward-only interior values (boundaries, leaves, and heads stay).
    fn replay_forward_ck(&mut self) {
        let segments = self.ck.as_ref().expect("ck driver without schedule");
        let nseg = segments.bounds.len() - 1;
        for s in 0..nseg {
            let (lo, hi) = match &self.ck {
                Some(c) => (c.bounds[s], c.bounds[s + 1]),
                None => unreachable!(),
            };
            for idx in lo..hi {
                if !self.needed[idx] || matches!(self.tape.nodes[idx].op, Op::Leaf) {
                    continue;
                }
                self.eval_ck(idx);
                self.release_ck_fwd_frees(idx);
            }
            self.drop_segment_interior(s);
        }
    }

    /// Evaluate node `idx` under the checkpointed liveness, timed as
    /// forward work.
    fn eval_ck(&mut self, idx: usize) {
        let (kind, t) = (
            op_timers::kind(&self.tape.nodes[idx].op),
            op_timers::start(),
        );
        match &self.ck {
            Some(c) => self.tape.eval_node(idx, &c.last_use, &self.pinned, true),
            None => unreachable!(),
        }
        op_timers::stop(t, Phase::Forward, kind);
    }

    /// Apply the intra-segment forward free list of node `idx`.
    fn release_ck_fwd_frees(&mut self, idx: usize) {
        let list = match &self.ck {
            Some(c) => &c.free_after_fwd[idx],
            None => unreachable!(),
        };
        for &v in list {
            self.tape.release(v as usize);
        }
    }

    /// Drop segment `s`'s backward-only values and strip the fused
    /// SkipNode caches of every dropped node (recompute refreshes them).
    fn drop_segment_interior(&mut self, s: usize) {
        let (lo, hi, drops) = match &self.ck {
            Some(c) => (c.bounds[s], c.bounds[s + 1], &c.drop_after_seg[s]),
            None => unreachable!(),
        };
        for &v in drops {
            self.tape.release(v as usize);
        }
        // A SkipConv whose value is no longer materialized will be
        // re-evaluated during this segment's recompute, which rebuilds
        // `p_active` / `relu_active`; park the stale copies until then.
        for idx in lo..hi {
            if !self.needed[idx] || !matches!(self.tape.nodes[idx].value, Value::Pending { .. }) {
                continue;
            }
            if let Op::SkipConv { cache, .. } = &mut self.tape.nodes[idx].op {
                workspace::give(std::mem::replace(&mut cache.p_active, Matrix::zeros(0, 0)));
                workspace::give(std::mem::replace(
                    &mut cache.relu_active,
                    Matrix::zeros(0, 0),
                ));
            }
        }
    }

    /// Execute the backward schedule from the given seed gradients and
    /// return parameter gradients in [`TrainProgram::param_nodes`] order.
    ///
    /// Gradient buffers flow: each step consumes its upstream gradient
    /// (mutating it in place where the arithmetic allows), recycles it
    /// otherwise, and frees forward values at their last backward read.
    /// Results are byte-identical to [`Tape::backward_multi`] on an eager
    /// tape with the same values.
    pub fn backward(&mut self, seeds: Vec<(NodeId, Matrix)>) -> Vec<Option<Matrix>> {
        let mut grads = std::mem::take(&mut self.grads);
        let mut param_grads: Vec<Option<Matrix>> =
            (0..self.param_nodes.len()).map(|_| None).collect();
        let mut max_id = 0usize;
        for (root, seed) in seeds {
            assert_eq!(
                seed.shape(),
                self.tape.nodes[root.0].value.shape(),
                "seed gradient shape mismatch"
            );
            max_id = max_id.max(root.0);
            accum(&mut grads, root, seed);
        }
        if self.ck.is_some() {
            self.backward_ck(max_id, &mut grads, &mut param_grads);
        } else {
            self.backward_span(0, max_id, &mut grads, &mut param_grads);
        }
        self.grads = grads;
        param_grads
    }

    /// Backward steps for node indices `lo..=hi`, descending. The step
    /// order — and therefore every gradient accumulation — is identical
    /// whether the range is walked whole (plain replay) or segment by
    /// segment (checkpointed replay).
    fn backward_span(
        &mut self,
        lo: usize,
        hi: usize,
        grads: &mut [Option<Matrix>],
        param_grads: &mut [Option<Matrix>],
    ) {
        for idx in (lo..=hi).rev() {
            let Some(g) = grads[idx].take() else {
                continue;
            };
            if matches!(self.tape.nodes[idx].op, Op::Leaf) {
                let slot = self.param_slot[idx];
                if slot == u32::MAX {
                    // Constant leaf that a requires-grad consumer fed —
                    // cannot happen today, but recycle defensively.
                    workspace::give(g);
                } else {
                    param_grads[slot as usize] = Some(g);
                }
                continue;
            }
            if !self.tape.nodes[idx].requires_grad {
                workspace::give(g);
                continue;
            }
            // Checkpointing masks cross-segment last uses, so a value an
            // earlier segment's recompute still reads is never stolen.
            let (last_use, free_after_bwd) = match &self.ck {
                Some(c) => (&c.last_use, &c.free_after_bwd),
                None => (&self.last_value_use, &self.free_after_bwd),
            };
            let steal = !self.pinned[idx] && last_use[idx] == 2 * self.tape.len() - 1 - idx;
            let (kind, t) = (
                op_timers::kind(&self.tape.nodes[idx].op),
                op_timers::start(),
            );
            self.tape.backward_step(idx, g, grads, steal);
            op_timers::stop(t, Phase::Backward, kind);
            for &v in &free_after_bwd[idx] {
                self.tape.release(v as usize);
            }
        }
    }

    /// Checkpointed backward: walk segments in reverse, recomputing each
    /// segment's dropped values before its backward steps, then sweeping
    /// every value the segment owns back to the workspace.
    fn backward_ck(
        &mut self,
        max_id: usize,
        grads: &mut [Option<Matrix>],
        param_grads: &mut [Option<Matrix>],
    ) {
        let nseg = match &self.ck {
            Some(c) => c.bounds.len() - 1,
            None => unreachable!(),
        };
        for s in (0..nseg).rev() {
            let (lo, hi) = match &self.ck {
                Some(c) => (c.bounds[s], c.bounds[s + 1]),
                None => unreachable!(),
            };
            if lo <= max_id {
                // Recompute in index order: operands from earlier segments
                // are boundaries (still materialized) or leaves; operands
                // from this segment are recomputed just before their
                // consumers, exactly as in the main forward.
                for idx in lo..hi {
                    if !self.needed[idx]
                        || matches!(self.tape.nodes[idx].op, Op::Leaf)
                        || !matches!(self.tape.nodes[idx].value, Value::Pending { .. })
                    {
                        continue;
                    }
                    self.eval_ck(idx);
                    self.release_ck_fwd_frees(idx);
                }
                self.backward_span(lo, hi.min(max_id + 1) - 1, grads, param_grads);
            }
            // All segments >= s are done and every reader of a value has
            // an index (and therefore a segment) at least the value's own,
            // so nothing can read this segment's values again this epoch.
            for v in lo..hi {
                if !self.pinned[v] {
                    self.tape.release(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Grads;
    use crate::AttentionGraph;
    use skipnode_sparse::gcn_adjacency;
    use std::sync::Arc;

    /// Uniform skip sampling, one bernoulli per node — mirrored by the
    /// eager builders below so RNG streams align.
    struct UniformSampler {
        p: f64,
    }

    impl EpochSampler for UniformSampler {
        fn skip_mask(&mut self, rng: &mut SplitRng, out: &mut [bool]) {
            rng.fill_bernoulli(self.p, out);
        }
    }

    fn assert_same(tag: &str, a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape(), "{tag}: shape");
        assert_eq!(a.as_slice(), b.as_slice(), "{tag}: values differ bitwise");
    }

    /// Stored entries of a sparse input: negative values, an empty row.
    fn sparse_features(rows: usize, cols: usize, rng: &mut SplitRng) -> Arc<CsrMatrix> {
        let mut m = Matrix::zeros(rows, cols);
        for r in 1..rows {
            for c in 0..cols {
                if rng.bernoulli(0.4) {
                    m.set(r, c, rng.uniform(-1.0, 1.0));
                }
            }
        }
        Arc::new(CsrMatrix::from_dense_within(&m, usize::MAX).expect("no bound"))
    }

    struct Fixture {
        adj: Arc<CsrMatrix>,
        graph: AttentionGraph,
        x: Matrix,
        xs: Arc<CsrMatrix>,
        w: Matrix,
        b: Matrix,
        a_src: Matrix,
        a_dst: Matrix,
    }

    impl Fixture {
        fn new() -> Self {
            let mut init = SplitRng::new(1234);
            let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
            Self {
                adj: Arc::new(gcn_adjacency(5, &edges)),
                graph: AttentionGraph::from_edges(5, &edges),
                x: init.uniform_matrix(5, 4, -1.0, 1.0),
                xs: sparse_features(5, 4, &mut init),
                w: init.uniform_matrix(4, 4, -0.5, 0.5),
                b: init.uniform_matrix(1, 4, -0.1, 0.1),
                a_src: init.uniform_matrix(4, 1, -1.0, 1.0),
                a_dst: init.uniform_matrix(4, 1, -1.0, 1.0),
            }
        }

        /// Stochastic fused chain: (spmm → matmul) + sparse_input →
        /// skip_conv → dropout → row_combine → gat_aggregate → pairnorm →
        /// relu. Draws from `fwd` exactly where compiled replay redraws;
        /// the attention weights follow the redrawn masks, so every
        /// evaluation must refresh them.
        fn record(&self, tape: &mut Tape, fwd: &mut SplitRng, skip_p: f64) -> NodeId {
            let adj = tape.register_adj(self.adj.clone());
            let xn = tape.constant(self.x.clone());
            let wn = tape.param(self.w.clone());
            let bn = tape.param(self.b.clone());
            let a_src = tape.constant(self.a_src.clone());
            let a_dst = tape.constant(self.a_dst.clone());
            let prop = tape.spmm(adj, xn);
            let dense = tape.matmul(prop, wn);
            let sparse = tape.sparse_input(Arc::clone(&self.xs), Some(adj), wn, 0.3, fwd);
            let sk = tape.add(dense, sparse);
            let mask: Vec<bool> = (0..5).map(|_| fwd.bernoulli(skip_p)).collect();
            let fused = tape.skip_conv(adj, xn, sk, wn, bn, &mask);
            let dropped = tape.dropout(fused, 0.3, fwd);
            let rc_mask: Vec<bool> = (0..5).map(|_| fwd.bernoulli(skip_p)).collect();
            let comb = tape.row_combine(dropped, sk, &rc_mask);
            let s_src = tape.matmul(comb, a_src);
            let s_dst = tape.matmul(comb, a_dst);
            let att = tape.gat_aggregate(comb, s_src, s_dst, &self.graph, 0.2);
            let normed = tape.pairnorm(att, 1.0);
            tape.relu(normed)
        }
    }

    fn eager_epoch(fix: &Fixture, epoch: u64, skip_p: f64) -> (Matrix, Matrix, Matrix) {
        let mut fwd = SplitRng::new(1000 + epoch);
        let mut tape = Tape::new();
        let out = fix.record(&mut tape, &mut fwd, skip_p);
        let value = tape.value(out).clone();
        let seed = Matrix::full(5, 4, 1.0);
        let mut grads: Grads = tape.backward(out, seed);
        let params = tape.params().to_vec();
        let gw = grads.take(params[0]).unwrap();
        let gb = grads.take(params[1]).unwrap();
        (value, gw, gb)
    }

    #[test]
    fn replay_matches_fresh_eager_tapes_across_epochs() {
        let fix = Fixture::new();
        let skip_p = 0.4;
        let mut probe = SplitRng::new(0xdead);
        let mut tape = Tape::new();
        let out = fix.record(&mut tape, &mut probe, skip_p);
        let mut prog = TrainProgram::compile(tape, vec![out]);
        let mut sampler = UniformSampler { p: skip_p };
        for epoch in 0..4 {
            let mut fwd = SplitRng::new(1000 + epoch);
            prog.set_adjacency(fix.adj.clone());
            prog.load_params([&fix.w, &fix.b]);
            prog.begin_epoch(&mut sampler, &mut fwd);
            prog.replay_forward();
            let (e_val, e_gw, e_gb) = eager_epoch(&fix, epoch, skip_p);
            assert_same(&format!("epoch {epoch} value"), prog.value(out), &e_val);
            let seed = Matrix::full(5, 4, 1.0);
            let mut pgrads = prog.backward(vec![(out, seed)]);
            let gw = pgrads[0].take().unwrap();
            let gb = pgrads[1].take().unwrap();
            assert_same(&format!("epoch {epoch} dW"), &gw, &e_gw);
            assert_same(&format!("epoch {epoch} db"), &gb, &e_gb);
            workspace::give(gw);
            workspace::give(gb);
        }
    }

    /// Coverage for the remaining backward ports: hadamard, add_scaled,
    /// scale, max_pool, concat_cols, weighted_sum, lin_comb, dropout_rows,
    /// add_bias, and the dense form of sparse_input — with two seeded heads.
    struct MiscFixture {
        x: Matrix,
        xs: Arc<CsrMatrix>,
        w1: Matrix,
        w2: Matrix,
        ws: Matrix,
        b: Matrix,
        adj: Arc<CsrMatrix>,
    }

    impl MiscFixture {
        fn new() -> Self {
            let mut init = SplitRng::new(77);
            Self {
                x: init.uniform_matrix(6, 3, -1.0, 1.0),
                xs: sparse_features(6, 3, &mut init),
                w1: init.uniform_matrix(3, 3, -0.5, 0.5),
                w2: init.uniform_matrix(3, 3, -0.5, 0.5),
                ws: init.uniform_matrix(1, 3, -1.0, 1.0),
                b: init.uniform_matrix(1, 3, -0.2, 0.2),
                adj: Arc::new(gcn_adjacency(6, &[(0, 1), (1, 2), (3, 4), (4, 5)])),
            }
        }

        fn record(&self, tape: &mut Tape, fwd: &mut SplitRng) -> (NodeId, NodeId) {
            let _adj = tape.register_adj(self.adj.clone());
            let xn = tape.constant(self.x.clone());
            let w1 = tape.param(self.w1.clone());
            let w2 = tape.param(self.w2.clone());
            let ws = tape.param(self.ws.clone());
            let bn = tape.param(self.b.clone());
            let dense = tape.matmul(xn, w1);
            let sparse = tape.sparse_input(Arc::clone(&self.xs), None, w1, 0.25, fwd);
            let a = tape.add(dense, sparse);
            let b2 = tape.matmul(xn, w2);
            let h = tape.hadamard(a, b2);
            let s = tape.add_scaled(a, h, 0.5);
            let sc = tape.scale(s, 1.25);
            let mp = tape.max_pool(&[a, b2, sc]);
            let cc = tape.concat_cols(&[mp, a]);
            let wsum = tape.weighted_sum(&[a, b2, mp], ws);
            let lc = tape.lin_comb(&[(wsum, 0.3), (mp, 0.7)]);
            let dr = tape.dropout_rows(lc, 0.4, fwd);
            let ab = tape.add_bias(dr, bn);
            let out = tape.relu(ab);
            (cc, out)
        }
    }

    #[test]
    fn misc_ops_replay_matches_eager_multi_head() {
        let fix = MiscFixture::new();
        let mut probe = SplitRng::new(0xbeef);
        let mut tape = Tape::new();
        let (cc, out) = fix.record(&mut tape, &mut probe);
        let mut prog = TrainProgram::compile(tape, vec![cc, out]);
        let mut sampler = UniformSampler { p: 0.5 }; // never called: no skip ops
        for epoch in 0..3 {
            let mut fwd = SplitRng::new(500 + epoch);
            prog.load_params([&fix.w1, &fix.w2, &fix.ws, &fix.b]);
            prog.begin_epoch(&mut sampler, &mut fwd);
            prog.replay_forward();

            let mut e_fwd = SplitRng::new(500 + epoch);
            let mut e_tape = Tape::new();
            let (e_cc, e_out) = fix.record(&mut e_tape, &mut e_fwd);
            assert_same("cc", prog.value(cc), e_tape.value(e_cc));
            assert_same("out", prog.value(out), e_tape.value(e_out));

            let seed_cc = Matrix::full(6, 6, 0.5);
            let seed_out = Matrix::full(6, 3, 1.0);
            let mut pgrads = prog.backward(vec![(cc, seed_cc.clone()), (out, seed_out.clone())]);
            let mut e_grads = e_tape.backward_multi(vec![(e_cc, seed_cc), (e_out, seed_out)]);
            for (slot, &pid) in e_tape.params().iter().enumerate() {
                let pg = pgrads[slot].take().unwrap();
                let eg = e_grads.take(pid).unwrap();
                assert_same(&format!("epoch {epoch} param {slot}"), &pg, &eg);
                workspace::give(pg);
                workspace::give(eg);
            }
        }
    }

    #[test]
    fn dead_stochastic_nodes_still_consume_rng() {
        // A dead dropout branch must draw in replay exactly as eager
        // recording did, or every later mask desynchronizes.
        let build = |tape: &mut Tape, fwd: &mut SplitRng| -> NodeId {
            let x = tape.constant(Matrix::full(4, 2, 1.0));
            let w = tape.param(Matrix::full(2, 2, 0.5));
            let live = tape.matmul(x, w);
            let _dead = tape.dropout(live, 0.5, fwd);
            tape.dropout(live, 0.25, fwd)
        };
        let mut probe = SplitRng::new(9);
        let mut tape = Tape::new();
        let out = build(&mut tape, &mut probe);
        let mut prog = TrainProgram::compile(tape, vec![out]);
        let mut sampler = UniformSampler { p: 0.0 };
        for epoch in 0..3 {
            let mut fwd = SplitRng::new(40 + epoch);
            prog.load_params([&Matrix::full(2, 2, 0.5)]);
            prog.begin_epoch(&mut sampler, &mut fwd);
            prog.replay_forward();

            let mut e_fwd = SplitRng::new(40 + epoch);
            let mut e_tape = Tape::new();
            let e_out = build(&mut e_tape, &mut e_fwd);
            assert_same("value", prog.value(out), e_tape.value(e_out));
        }
    }

    /// One training epoch on `prog`: returns (head value, dW, db).
    fn epoch_outputs(
        prog: &mut TrainProgram,
        fix: &Fixture,
        out: NodeId,
        skip_p: f64,
        epoch: u64,
    ) -> (Matrix, Matrix, Matrix) {
        let mut fwd = SplitRng::new(9000 + epoch);
        let mut sampler = UniformSampler { p: skip_p };
        prog.set_adjacency(fix.adj.clone());
        prog.load_params([&fix.w, &fix.b]);
        prog.begin_epoch(&mut sampler, &mut fwd);
        prog.replay_forward();
        let value = prog.value(out).clone();
        let mut pg = prog.backward(vec![(out, Matrix::full(5, 4, 1.0))]);
        (value, pg[0].take().unwrap(), pg[1].take().unwrap())
    }

    #[test]
    fn checkpointed_replay_is_bit_identical_to_plain() {
        let fix = Fixture::new();
        let skip_p = 0.4;
        // Every segment count from trivial to one-node-per-segment: the
        // boundary/drop/recompute bookkeeping must be invisible bitwise.
        for segments in [2usize, 3, 5, 10, 64] {
            let mut probe = SplitRng::new(0xabc);
            let mut tape = Tape::new();
            let out = fix.record(&mut tape, &mut probe, skip_p);
            let mut plain = TrainProgram::compile(tape, vec![out]);
            let mut probe_ck = SplitRng::new(0xabc);
            let mut tape_ck = Tape::new();
            let out_ck = fix.record(&mut tape_ck, &mut probe_ck, skip_p);
            let mut ck = TrainProgram::compile(tape_ck, vec![out_ck]);
            ck.enable_checkpointing(segments);
            assert!(ck.is_checkpointing());
            for epoch in 0..3 {
                let (v_p, gw_p, gb_p) = epoch_outputs(&mut plain, &fix, out, skip_p, epoch);
                let (v_c, gw_c, gb_c) = epoch_outputs(&mut ck, &fix, out_ck, skip_p, epoch);
                let tag = format!("segments {segments} epoch {epoch}");
                assert_same(&format!("{tag} value"), &v_p, &v_c);
                assert_same(&format!("{tag} dW"), &gw_p, &gw_c);
                assert_same(&format!("{tag} db"), &gb_p, &gb_c);
                for g in [gw_p, gb_p, gw_c, gb_c] {
                    workspace::give(g);
                }
            }
        }
    }

    #[test]
    fn checkpointing_disables_below_two_segments() {
        let fix = Fixture::new();
        let mut probe = SplitRng::new(3);
        let mut tape = Tape::new();
        let out = fix.record(&mut tape, &mut probe, 0.3);
        let mut prog = TrainProgram::compile(tape, vec![out]);
        prog.enable_checkpointing(1);
        assert!(!prog.is_checkpointing());
        prog.enable_checkpointing(4);
        assert!(prog.is_checkpointing());
        prog.enable_checkpointing(0);
        assert!(!prog.is_checkpointing());
    }

    #[test]
    fn checkpointed_misc_ops_match_plain_multi_head() {
        let fix = MiscFixture::new();
        for segments in [2usize, 4, 7] {
            let build = |segs: Option<usize>| {
                let mut probe = SplitRng::new(0xf00);
                let mut tape = Tape::new();
                let (cc, out) = fix.record(&mut tape, &mut probe);
                let mut prog = TrainProgram::compile(tape, vec![cc, out]);
                if let Some(s) = segs {
                    prog.enable_checkpointing(s);
                }
                (prog, cc, out)
            };
            let (mut plain, cc_p, out_p) = build(None);
            let (mut ck, cc_c, out_c) = build(Some(segments));
            let mut sampler = UniformSampler { p: 0.5 };
            for epoch in 0..2 {
                let mut run = |prog: &mut TrainProgram, cc: NodeId, out: NodeId| {
                    let mut fwd = SplitRng::new(700 + epoch);
                    prog.load_params([&fix.w1, &fix.w2, &fix.ws, &fix.b]);
                    prog.begin_epoch(&mut sampler, &mut fwd);
                    prog.replay_forward();
                    let vals = (prog.value(cc).clone(), prog.value(out).clone());
                    let seeds = vec![
                        (cc, Matrix::full(6, 6, 0.5)),
                        (out, Matrix::full(6, 3, 1.0)),
                    ];
                    (vals, prog.backward(seeds))
                };
                let ((vcc_p, vout_p), mut g_p) = run(&mut plain, cc_p, out_p);
                let ((vcc_c, vout_c), mut g_c) = run(&mut ck, cc_c, out_c);
                let tag = format!("segments {segments} epoch {epoch}");
                assert_same(&format!("{tag} cc"), &vcc_p, &vcc_c);
                assert_same(&format!("{tag} out"), &vout_p, &vout_c);
                for slot in 0..g_p.len() {
                    let gp = g_p[slot].take().unwrap();
                    let gc = g_c[slot].take().unwrap();
                    assert_same(&format!("{tag} param {slot}"), &gp, &gc);
                    workspace::give(gp);
                    workspace::give(gc);
                }
            }
        }
    }

    #[test]
    fn grads_are_drained_between_epochs() {
        let fix = Fixture::new();
        let mut probe = SplitRng::new(5);
        let mut tape = Tape::new();
        let out = fix.record(&mut tape, &mut probe, 0.3);
        let mut prog = TrainProgram::compile(tape, vec![out]);
        let mut sampler = UniformSampler { p: 0.3 };
        let mut fwd = SplitRng::new(6);
        prog.begin_epoch(&mut sampler, &mut fwd);
        prog.replay_forward();
        let pg = prog.backward(vec![(out, Matrix::full(5, 4, 1.0))]);
        assert!(pg.iter().all(Option::is_some));
        for g in pg.into_iter().flatten() {
            workspace::give(g);
        }
        assert!(
            prog.grads.iter().all(Option::is_none),
            "all interior gradients recycled"
        );
    }
}
