//! Fused graph-attention aggregation (the GAT primitive).
//!
//! One op computes, for every destination node `v` with in-neighborhood
//! `N(v) ∪ {v}`:
//!
//! ```text
//! e_uv = LeakyReLU(s_src[u] + s_dst[v])
//! α_uv = softmax over u of e_uv
//! out_v = Σ_u α_uv · h_u
//! ```
//!
//! `h`, `s_src`, and `s_dst` are ordinary tape nodes (the attention logits
//! are usually `h · a_src` and `h · a_dst` matmuls), so the learnable
//! attention vectors get gradients through the fused backward below.

use crate::tape::{NodeId, Op, Tape};
use skipnode_tensor::{workspace, Matrix};

/// Precomputed neighborhood structure for attention: for each destination
/// node, the list of source nodes attended over (self-loop included).
#[derive(Debug, Clone)]
pub struct AttentionGraph {
    neighbors: Vec<Vec<u32>>,
}

impl AttentionGraph {
    /// Build from an undirected edge list; every node attends over its
    /// neighbors plus itself.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut neighbors: Vec<Vec<u32>> = (0..n).map(|i| vec![i as u32]).collect();
        for &(u, v) in edges {
            if u != v {
                neighbors[u].push(v as u32);
                neighbors[v].push(u as u32);
            }
        }
        Self { neighbors }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Attention sources for one destination (self-loop first).
    pub fn sources(&self, v: usize) -> &[u32] {
        &self.neighbors[v]
    }
}

pub(crate) struct GatCache {
    pub graph: AttentionGraph,
    /// α_uv per destination, aligned with `graph.sources(v)`. Written by
    /// every retaining evaluation (training tapes and compiled replay);
    /// empty on an inference tape, which never runs the backward.
    pub alphas: Vec<Vec<f32>>,
    /// LeakyReLU derivative per (v, u) pair (1.0 or `slope`), kept like
    /// `alphas`.
    pub leaky_grad: Vec<Vec<f32>>,
    /// LeakyReLU slope, so [`gat_forward`] can rerun from the op record.
    pub slope: f32,
}

/// Forward attention aggregation. Also returns `(alphas, leaky_grad)`,
/// the records the backward pass reads.
pub(crate) fn gat_forward(
    h: &Matrix,
    s_src: &Matrix,
    s_dst: &Matrix,
    graph: &AttentionGraph,
    slope: f32,
) -> (Matrix, Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let n = graph.nodes();
    assert_eq!(h.rows(), n, "feature rows");
    assert_eq!(s_src.shape(), (n, 1), "s_src must be n×1");
    assert_eq!(s_dst.shape(), (n, 1), "s_dst must be n×1");
    let d = h.cols();
    let mut out = workspace::take(n, d);
    let mut alphas = Vec::with_capacity(n);
    let mut leaky_grad = Vec::with_capacity(n);
    for v in 0..n {
        let srcs = graph.sources(v);
        let mut scores = Vec::with_capacity(srcs.len());
        let mut lg = Vec::with_capacity(srcs.len());
        let sv = s_dst.get(v, 0);
        let mut max = f32::NEG_INFINITY;
        for &u in srcs {
            let raw = s_src.get(u as usize, 0) + sv;
            let (e, g) = if raw >= 0.0 {
                (raw, 1.0)
            } else {
                (slope * raw, slope)
            };
            max = max.max(e);
            scores.push(e);
            lg.push(g);
        }
        let mut total = 0.0f64;
        for e in scores.iter_mut() {
            *e = (*e - max).exp();
            total += *e as f64;
        }
        let inv = (1.0 / total) as f32;
        let row = out.row_mut(v);
        for (i, &u) in srcs.iter().enumerate() {
            scores[i] *= inv; // now α_uv
            let hu = h.row(u as usize);
            for (o, &x) in row.iter_mut().zip(hu) {
                *o += scores[i] * x;
            }
        }
        alphas.push(scores);
        leaky_grad.push(lg);
    }
    (out, alphas, leaky_grad)
}

/// Backward for the fused attention op. Returns `(dh, ds_src, ds_dst)`.
pub(crate) fn gat_backward(h: &Matrix, cache: &GatCache, g: &Matrix) -> (Matrix, Matrix, Matrix) {
    let n = cache.graph.nodes();
    let d = h.cols();
    let mut dh = workspace::take(n, d);
    let mut ds_src = workspace::take(n, 1);
    let mut ds_dst = workspace::take(n, 1);
    for v in 0..n {
        let srcs = cache.graph.sources(v);
        let alphas = &cache.alphas[v];
        let gv = g.row(v);
        // dα_uv = g_v · h_u ; softmax backward ; leaky backward.
        let mut dalpha = Vec::with_capacity(srcs.len());
        let mut weighted_sum = 0.0f64;
        for (i, &u) in srcs.iter().enumerate() {
            let hu = h.row(u as usize);
            let dot: f32 = gv.iter().zip(hu).map(|(&a, &b)| a * b).sum();
            dalpha.push(dot);
            weighted_sum += (alphas[i] * dot) as f64;
            // dh_u += α_uv g_v
            let a = alphas[i];
            for (c, &gvc) in gv.iter().enumerate() {
                dh.set(u as usize, c, dh.get(u as usize, c) + a * gvc);
            }
        }
        let mut de_total = 0.0f32;
        for (i, &u) in srcs.iter().enumerate() {
            let de = alphas[i] * (dalpha[i] - weighted_sum as f32) * cache.leaky_grad[v][i];
            ds_src.set(u as usize, 0, ds_src.get(u as usize, 0) + de);
            de_total += de;
        }
        ds_dst.set(v, 0, ds_dst.get(v, 0) + de_total);
    }
    (dh, ds_src, ds_dst)
}

impl Tape {
    /// Fused GAT aggregation: attention-weighted neighborhood average of
    /// `h`, with logits `s_src` (per source) and `s_dst` (per destination)
    /// and LeakyReLU slope `slope`.
    pub fn gat_aggregate(
        &mut self,
        h: NodeId,
        s_src: NodeId,
        s_dst: NodeId,
        graph: &AttentionGraph,
        slope: f32,
    ) -> NodeId {
        let n = graph.nodes();
        assert_eq!(self.shape(h).0, n, "feature rows");
        assert_eq!(self.shape(s_src), (n, 1), "s_src must be n×1");
        assert_eq!(self.shape(s_dst), (n, 1), "s_dst must be n×1");
        let cols = self.shape(h).1;
        self.record(
            n,
            cols,
            Op::GatAggregate {
                h,
                s_src,
                s_dst,
                cache: Box::new(GatCache {
                    graph: graph.clone(),
                    alphas: Vec::new(),
                    leaky_grad: Vec::new(),
                    slope,
                }),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::finite_difference_check;
    use skipnode_tensor::SplitRng;

    fn line_graph() -> AttentionGraph {
        AttentionGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn self_loops_included() {
        let g = line_graph();
        assert_eq!(g.sources(0), &[0, 1]);
        assert_eq!(g.sources(1), &[1, 0, 2]);
    }

    #[test]
    fn attention_weights_sum_to_one_and_average_features() {
        let g = line_graph();
        let mut rng = SplitRng::new(1);
        let h = rng.uniform_matrix(4, 3, -1.0, 1.0);
        // Zero logits → uniform attention → plain neighborhood mean.
        let s = Matrix::zeros(4, 1);
        let (out, alphas, _) = gat_forward(&h, &s, &s, &g, 0.2);
        for (v, a) in alphas.iter().enumerate() {
            let total: f32 = a.iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "node {v}: {total}");
            let k = g.sources(v).len() as f32;
            assert!(a.iter().all(|&x| (x - 1.0 / k).abs() < 1e-5));
        }
        // out_1 = mean(h_1, h_0, h_2)
        for c in 0..3 {
            let want = (h.get(1, c) + h.get(0, c) + h.get(2, c)) / 3.0;
            assert!((out.get(1, c) - want).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_wrt_features_matches_finite_difference() {
        let g = line_graph();
        let mut rng = SplitRng::new(2);
        let h = rng.uniform_matrix(4, 3, -1.0, 1.0);
        let ssrc = rng.uniform_matrix(4, 1, -0.5, 0.5);
        let sdst = rng.uniform_matrix(4, 1, -0.5, 0.5);
        let dev = finite_difference_check(&h, 1e-2, |t, hid| {
            let a = t.constant(ssrc.clone());
            let b = t.constant(sdst.clone());
            t.gat_aggregate(hid, a, b, &g, 0.2)
        });
        assert!(dev < 3e-2, "dev {dev}");
    }

    #[test]
    fn gradient_wrt_src_logits_matches_finite_difference() {
        let g = line_graph();
        let mut rng = SplitRng::new(3);
        let h = rng.uniform_matrix(4, 3, -1.0, 1.0);
        let ssrc = rng.uniform_matrix(4, 1, -0.5, 0.5);
        let sdst = rng.uniform_matrix(4, 1, -0.5, 0.5);
        let dev = finite_difference_check(&ssrc, 1e-2, |t, sid| {
            let hid = t.constant(h.clone());
            let b = t.constant(sdst.clone());
            t.gat_aggregate(hid, sid, b, &g, 0.2)
        });
        assert!(dev < 3e-2, "dev {dev}");
    }

    #[test]
    fn gradient_wrt_dst_logits_matches_finite_difference() {
        let g = line_graph();
        let mut rng = SplitRng::new(4);
        let h = rng.uniform_matrix(4, 3, -1.0, 1.0);
        let ssrc = rng.uniform_matrix(4, 1, -0.5, 0.5);
        let sdst = rng.uniform_matrix(4, 1, -0.5, 0.5);
        let dev = finite_difference_check(&sdst, 1e-2, |t, sid| {
            let hid = t.constant(h.clone());
            let a = t.constant(ssrc.clone());
            t.gat_aggregate(hid, a, sid, &g, 0.2)
        });
        assert!(dev < 3e-2, "dev {dev}");
    }

    #[test]
    fn isolated_node_attends_only_to_itself() {
        let g = AttentionGraph::from_edges(3, &[(0, 1)]);
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[7.0]]);
        let s = Matrix::zeros(3, 1);
        let (out, _, _) = gat_forward(&h, &s, &s, &g, 0.2);
        assert_eq!(out.get(2, 0), 7.0);
    }
}
