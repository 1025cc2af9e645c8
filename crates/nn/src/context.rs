//! Plug-and-play strategies and the per-forward context.

use skipnode_autograd::{AdjId, NodeId, Tape};
use skipnode_core::SkipNodeConfig;
use skipnode_graph::Graph;
use skipnode_sparse::{gcn_adjacency_filtered, gcn_adjacency_with_node_mask, CsrMatrix};
use skipnode_tensor::{SegmentTable, SplitRng};
use std::sync::Arc;

/// Segment-aware skip-mask draw for packed multi-graph batches: one
/// independent draw per graph, in segment (= row) order, so the
/// skip rate and degree-biased weighting are computed *within* each graph
/// rather than across the union.
///
/// RNG-parity rule: segments are contiguous and ordered, so a 1-segment
/// batch makes exactly one [`SkipNodeConfig::sample_mask`] call over the
/// full degree slice — the identical call, consuming the identical stream,
/// as the single-graph path. The packed-identity tests pin this bitwise.
pub(crate) fn sample_skip_mask_segmented(
    cfg: &SkipNodeConfig,
    degrees: &[usize],
    segments: Option<&SegmentTable>,
    rng: &mut SplitRng,
) -> Vec<bool> {
    match segments {
        None => cfg.sample_mask(degrees, rng),
        Some(seg) => {
            assert_eq!(seg.total_rows(), degrees.len(), "segment table mismatch");
            let mut mask = Vec::with_capacity(degrees.len());
            for s in 0..seg.num_segments() {
                mask.extend(cfg.sample_mask(&degrees[seg.range(s)], rng));
            }
            mask
        }
    }
}

/// The plug-and-play strategies compared throughout the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Plain backbone.
    None,
    /// DropEdge \[25\]: delete a fraction of edges each epoch and
    /// renormalize the adjacency.
    DropEdge {
        /// Fraction of edges removed.
        rate: f64,
    },
    /// DropNode \[34\]: remove a fraction of nodes (and incident edges) from
    /// the propagation graph each epoch; removed nodes get zero rows.
    DropNode {
        /// Fraction of nodes removed.
        rate: f64,
    },
    /// PairNorm \[22\]: center-and-scale normalization after each middle
    /// convolution (active at train *and* eval — it is architectural).
    PairNorm {
        /// Target row-norm scale `s`.
        scale: f32,
    },
    /// SkipNode (this paper): sampled nodes skip each middle convolution
    /// during training.
    SkipNode(SkipNodeConfig),
    /// Ablation variant: the skip mask is also sampled at evaluation time
    /// (the paper keeps SkipNode train-only; `ablation_eval_mode` measures
    /// why).
    SkipNodeTrainEval(SkipNodeConfig),
}

impl Strategy {
    /// Short label used in result tables.
    pub fn label(&self) -> String {
        match self {
            Strategy::None => "-".into(),
            Strategy::DropEdge { rate } => format!("DropEdge({rate})"),
            Strategy::DropNode { rate } => format!("DropNode({rate})"),
            Strategy::PairNorm { scale } => format!("PairNorm({scale})"),
            Strategy::SkipNodeTrainEval(cfg) => format!("SkipNode-eval({})", cfg.rate()),
            Strategy::SkipNode(cfg) => format!(
                "SkipNode-{}({})",
                match cfg.sampling() {
                    skipnode_core::Sampling::Uniform => "U",
                    skipnode_core::Sampling::Biased => "B",
                    skipnode_core::Sampling::InverseBiased => "I",
                    skipnode_core::Sampling::TopDegree => "T",
                },
                cfg.rate()
            ),
        }
    }

    /// The propagation matrix for one epoch. Graph-modifying strategies
    /// (DropEdge, DropNode) resample and renormalize during training;
    /// everything else — and all evaluation — uses the cached full `Ã`.
    pub fn epoch_adjacency(
        &self,
        graph: &Graph,
        full: &Arc<CsrMatrix>,
        train: bool,
        rng: &mut SplitRng,
    ) -> Arc<CsrMatrix> {
        self.epoch_adjacency_edges(graph.num_nodes(), graph.edges(), full, train, rng)
    }

    /// [`Strategy::epoch_adjacency`] over a raw `(n, edges)` pair, so
    /// packed multi-graph batches ([`skipnode_graph::GraphBatch`]) resample
    /// with the identical logic and RNG consumption as a single graph.
    /// Connected components never span pack boundaries, so the resampled
    /// normalization stays block-diagonal.
    pub fn epoch_adjacency_edges(
        &self,
        n: usize,
        edges: &[(usize, usize)],
        full: &Arc<CsrMatrix>,
        train: bool,
        rng: &mut SplitRng,
    ) -> Arc<CsrMatrix> {
        if !train {
            return Arc::clone(full);
        }
        match self {
            Strategy::DropEdge { rate } => {
                let kept = edges.iter().copied().filter(|_| !rng.bernoulli(*rate));
                Arc::new(gcn_adjacency_filtered(n, kept))
            }
            Strategy::DropNode { rate } => {
                let mut keep = vec![false; n];
                rng.fill_bernoulli(*rate, &mut keep);
                for k in &mut keep {
                    *k = !*k;
                }
                Arc::new(gcn_adjacency_with_node_mask(n, edges, &keep))
            }
            _ => Arc::clone(full),
        }
    }
}

/// Per-forward-pass context handed to every model.
pub struct ForwardCtx<'a> {
    /// The epoch's propagation matrix, already registered on the tape.
    pub adj: AdjId,
    /// Input features on the tape.
    pub x: NodeId,
    /// Node degrees (drives SkipNode's biased sampler).
    pub degrees: &'a [usize],
    /// Strategy in effect.
    pub strategy: &'a Strategy,
    /// Training (true) vs evaluation (false) semantics.
    pub train: bool,
    /// RNG for dropout and mask sampling.
    pub rng: &'a mut SplitRng,
    /// Set by models: the representation before the classification layer
    /// (the MAD metric of Figures 2(a) and 5(b) reads it).
    pub penultimate: Option<NodeId>,
    /// Route SkipNode middle layers through the fused masked kernel
    /// ([`Tape::skip_conv`]) when applicable, and fold a layer's dropout,
    /// bias and ReLU into its SpMM and GEMM ([`Tape::spmm_dropout`],
    /// [`Tape::linear`]; see `crate::plan`). On by default; `false` runs
    /// the unfused op chain, the reference the identity tests compare
    /// against. Both paths produce bit-identical outputs and draw
    /// identically from `rng`.
    pub fuse: bool,
    /// Per-graph row ranges when this forward runs over a packed
    /// multi-graph batch ([`skipnode_graph::GraphBatch`]). Skip masks are
    /// then drawn independently per segment, one
    /// [`SkipNodeConfig::sample_mask`] call per graph; `None` means
    /// single-graph semantics.
    pub segments: Option<&'a Arc<SegmentTable>>,
}

impl<'a> ForwardCtx<'a> {
    /// Create a context.
    pub fn new(
        adj: AdjId,
        x: NodeId,
        degrees: &'a [usize],
        strategy: &'a Strategy,
        train: bool,
        rng: &'a mut SplitRng,
    ) -> Self {
        Self {
            adj,
            x,
            degrees,
            strategy,
            train,
            rng,
            penultimate: None,
            fuse: true,
            segments: None,
        }
    }

    /// When the fused SkipNode kernel applies to a middle layer whose conv
    /// output has shape `conv_shape` and whose skip branch has shape
    /// `prev_shape`, the draw of its skip mask, for [`Tape::skip_conv_step`]
    /// to run on the forward RNG; `None` means the caller must use the
    /// unfused `conv → relu → post_conv` chain.
    ///
    /// The kernel draws the mask at exactly the point
    /// [`ForwardCtx::post_conv`] would draw it (after the layer's dropout
    /// flags), so fused and unfused forwards consume identical RNG streams.
    pub fn fused_skip_sampler(
        &self,
        conv_shape: (usize, usize),
        prev_shape: (usize, usize),
    ) -> Option<impl FnOnce(&mut SplitRng) -> Vec<bool> + 'a> {
        let cfg = self.fused_skip_config(conv_shape, prev_shape)?;
        let (degrees, segments) = (self.degrees, self.segments);
        Some(move |rng: &mut SplitRng| {
            sample_skip_mask_segmented(cfg, degrees, segments.map(Arc::as_ref), rng)
        })
    }

    /// The SkipNode configuration [`ForwardCtx::fused_skip_sampler`] would
    /// sample from for these shapes, decided without drawing anything;
    /// `None` when the layer takes the unfused chain.
    pub(crate) fn fused_skip_config(
        &self,
        conv_shape: (usize, usize),
        prev_shape: (usize, usize),
    ) -> Option<&'a SkipNodeConfig> {
        if !self.fuse || conv_shape != prev_shape {
            return None;
        }
        match self.strategy {
            Strategy::SkipNode(cfg) if self.train => Some(cfg),
            Strategy::SkipNodeTrainEval(cfg) => Some(cfg),
            _ => None,
        }
    }

    /// Post-convolution hook for *middle* layers: applies PairNorm
    /// (always) or the SkipNode row-combine against the layer input
    /// (training only). `h_act` and `h_prev` must share a shape for
    /// SkipNode to engage.
    pub fn post_conv(&mut self, tape: &mut Tape, h_act: NodeId, h_prev: NodeId) -> NodeId {
        match self.strategy {
            Strategy::PairNorm { scale } => tape.pairnorm(h_act, *scale),
            Strategy::SkipNode(cfg) if self.train => {
                if tape.shape(h_act) != tape.shape(h_prev) {
                    return h_act;
                }
                let mask = sample_skip_mask_segmented(
                    cfg,
                    self.degrees,
                    self.segments.map(Arc::as_ref),
                    self.rng,
                );
                tape.row_combine(h_act, h_prev, &mask)
            }
            Strategy::SkipNodeTrainEval(cfg) => {
                if tape.shape(h_act) != tape.shape(h_prev) {
                    return h_act;
                }
                let mask = sample_skip_mask_segmented(
                    cfg,
                    self.degrees,
                    self.segments.map(Arc::as_ref),
                    self.rng,
                );
                tape.row_combine(h_act, h_prev, &mask)
            }
            _ => h_act,
        }
    }

    /// Training-time dropout (identity at eval or rate 0).
    pub fn dropout(&mut self, tape: &mut Tape, h: NodeId, rate: f64) -> NodeId {
        if self.train && rate > 0.0 {
            tape.dropout(h, rate, self.rng)
        } else {
            h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipnode_graph::{load, DatasetName, Scale};

    fn cornell() -> Graph {
        load(DatasetName::Cornell, Scale::Bench, 7)
    }

    #[test]
    fn eval_always_uses_full_adjacency() {
        let g = cornell();
        let full = g.gcn_adjacency();
        let mut rng = SplitRng::new(1);
        let s = Strategy::DropEdge { rate: 0.9 };
        let adj = s.epoch_adjacency(&g, &full, false, &mut rng);
        assert!(Arc::ptr_eq(&adj, &full));
    }

    #[test]
    fn dropedge_removes_edges_at_train_time() {
        let g = cornell();
        let full = g.gcn_adjacency();
        let mut rng = SplitRng::new(2);
        let s = Strategy::DropEdge { rate: 0.5 };
        let adj = s.epoch_adjacency(&g, &full, true, &mut rng);
        assert!(adj.nnz() < full.nnz(), "{} vs {}", adj.nnz(), full.nnz());
        // Still symmetric and renormalized.
        assert!(adj.is_symmetric(1e-6));
    }

    #[test]
    fn dropnode_zeroes_dropped_rows() {
        let g = cornell();
        let full = g.gcn_adjacency();
        let mut rng = SplitRng::new(3);
        let s = Strategy::DropNode { rate: 0.5 };
        let adj = s.epoch_adjacency(&g, &full, true, &mut rng);
        let empty_rows = (0..g.num_nodes()).filter(|&r| adj.row_nnz(r) == 0).count();
        let frac = empty_rows as f64 / g.num_nodes() as f64;
        assert!((frac - 0.5).abs() < 0.15, "empty fraction {frac}");
    }

    #[test]
    fn non_graph_strategies_reuse_full_adjacency() {
        let g = cornell();
        let full = g.gcn_adjacency();
        let mut rng = SplitRng::new(4);
        for s in [
            Strategy::None,
            Strategy::PairNorm { scale: 1.0 },
            Strategy::SkipNode(SkipNodeConfig::new(0.5, skipnode_core::Sampling::Uniform)),
        ] {
            let adj = s.epoch_adjacency(&g, &full, true, &mut rng);
            assert!(Arc::ptr_eq(&adj, &full), "{}", s.label());
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Strategy::None.label(), "-");
        assert_eq!(Strategy::DropEdge { rate: 0.3 }.label(), "DropEdge(0.3)");
        let s = Strategy::SkipNode(SkipNodeConfig::new(0.5, skipnode_core::Sampling::Biased));
        assert_eq!(s.label(), "SkipNode-B(0.5)");
    }
}
