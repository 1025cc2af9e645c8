//! Packed multi-graph batches for graph classification.
//!
//! A [`GraphBatch`] is the block-diagonal union of several [`Graph`]s: node
//! features and labels are concatenated row-wise, edges are offset-shifted
//! into a single index space, and a [`SegmentTable`] records which row
//! range belongs to which graph. Because GCN normalization is local to a
//! connected component, the normalized adjacency of the union is exactly
//! the block-diagonal of the per-graph normalized adjacencies — so one
//! SpMM over the packed matrix computes every graph's convolution at once
//! without ever mixing rows across graphs.
//!
//! The packed adjacency is built by [`gcn_adjacency`] over the
//! offset-shifted edge list, the same builder [`Graph::gcn_adjacency`]
//! uses, so a 1-graph pack produces a byte-identical `CsrMatrix`.

use crate::generators::erdos_renyi;
use crate::graph::Graph;
use crate::splits::Split;
use skipnode_sparse::{gcn_adjacency, CsrMatrix};
use skipnode_tensor::{Matrix, SegmentTable, SplitRng};
use std::sync::{Arc, OnceLock};

/// Block-diagonal union of several graphs plus per-graph labels.
pub struct GraphBatch {
    seg: Arc<SegmentTable>,
    /// Offset-shifted canonical undirected edges of the union.
    edges: Vec<(usize, usize)>,
    features: Arc<Matrix>,
    node_labels: Vec<usize>,
    node_classes: usize,
    graph_labels: Vec<usize>,
    graph_classes: usize,
    degrees: Vec<usize>,
    gcn_adj: OnceLock<Arc<CsrMatrix>>,
}

impl GraphBatch {
    /// Pack `graphs` into one block-diagonal batch. `graph_labels[i]` is
    /// the class of `graphs[i]`; all graphs must share feature dimension
    /// and node-label space. Empty and single-node graphs are allowed.
    pub fn pack(graphs: &[&Graph], graph_labels: &[usize], graph_classes: usize) -> Self {
        assert!(!graphs.is_empty(), "cannot pack an empty batch");
        assert_eq!(graphs.len(), graph_labels.len(), "one label per graph");
        for &l in graph_labels {
            assert!(l < graph_classes, "graph label {l} >= {graph_classes}");
        }
        let dim = graphs[0].feature_dim();
        let node_classes = graphs[0].num_classes();
        let lens: Vec<usize> = graphs.iter().map(|g| g.num_nodes()).collect();
        let seg = Arc::new(SegmentTable::from_lens(&lens));
        let total = seg.total_rows();

        let mut features = Matrix::zeros(total, dim);
        let mut node_labels = Vec::with_capacity(total);
        let mut degrees = Vec::with_capacity(total);
        let mut edges = Vec::new();
        for (gi, g) in graphs.iter().enumerate() {
            assert_eq!(g.feature_dim(), dim, "feature dim mismatch in batch");
            assert_eq!(g.num_classes(), node_classes, "node-class mismatch");
            let off = seg.range(gi).start;
            for r in 0..g.num_nodes() {
                features
                    .row_mut(off + r)
                    .copy_from_slice(g.features().row(r));
            }
            node_labels.extend_from_slice(g.labels());
            degrees.extend_from_slice(&g.degrees());
            // Graph canonicalizes edges on construction (u < v, sorted,
            // deduped); a uniform shift preserves that ordering, so the
            // union list is canonical per block and globally sorted.
            edges.extend(g.edges().iter().map(|&(u, v)| (u + off, v + off)));
        }

        Self {
            seg,
            edges,
            features: Arc::new(features),
            node_labels,
            node_classes,
            graph_labels: graph_labels.to_vec(),
            graph_classes,
            degrees,
            gcn_adj: OnceLock::new(),
        }
    }

    /// Pack a single graph (the identity-path special case).
    pub fn pack_one(g: &Graph, label: usize, graph_classes: usize) -> Self {
        Self::pack(&[g], &[label], graph_classes)
    }

    /// Segment table mapping rows to graphs.
    pub fn segments(&self) -> &Arc<SegmentTable> {
        &self.seg
    }

    /// Number of graphs in the batch.
    pub fn num_graphs(&self) -> usize {
        self.seg.num_segments()
    }

    /// Total packed node count.
    pub fn num_nodes(&self) -> usize {
        self.seg.total_rows()
    }

    /// Shared packed feature matrix.
    pub fn features_arc(&self) -> Arc<Matrix> {
        Arc::clone(&self.features)
    }

    /// Concatenated per-node labels (graph order).
    pub fn node_labels(&self) -> &[usize] {
        &self.node_labels
    }

    /// Node-label space size (shared by all packed graphs).
    pub fn node_classes(&self) -> usize {
        self.node_classes
    }

    /// Per-graph class labels.
    pub fn graph_labels(&self) -> &[usize] {
        &self.graph_labels
    }

    /// Graph-label space size.
    pub fn graph_classes(&self) -> usize {
        self.graph_classes
    }

    /// Offset-shifted canonical undirected edge list of the union.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Concatenated per-node degrees (self-loops excluded, as in
    /// [`Graph::degrees`]).
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Symmetric GCN-normalized adjacency of the union, built lazily and
    /// cached. Block-diagonal by construction; for a 1-graph batch it is
    /// byte-identical to [`Graph::gcn_adjacency`].
    pub fn gcn_adjacency(&self) -> Arc<CsrMatrix> {
        Arc::clone(
            self.gcn_adj
                .get_or_init(|| Arc::new(gcn_adjacency(self.num_nodes(), &self.edges))),
        )
    }
}

/// Configuration for the synthetic graph-classification dataset.
#[derive(Debug, Clone)]
pub struct GraphClassConfig {
    /// Number of graphs to generate.
    pub graphs: usize,
    /// Number of graph classes.
    pub classes: usize,
    /// Smallest graph size (nodes).
    pub nodes_min: usize,
    /// Largest graph size (nodes, inclusive).
    pub nodes_max: usize,
    /// Node feature dimensionality.
    pub feature_dim: usize,
    /// Baseline expected degree; class `c` scales it by `1 + c/2`, so
    /// topology alone carries class signal.
    pub mean_degree: f64,
    /// Class separation of the Gaussian feature mixture.
    pub feature_separation: f32,
}

impl Default for GraphClassConfig {
    fn default() -> Self {
        Self {
            graphs: 128,
            classes: 3,
            nodes_min: 8,
            nodes_max: 24,
            feature_dim: 16,
            mean_degree: 3.0,
            feature_separation: 0.8,
        }
    }
}

/// A generated multi-graph classification dataset.
pub struct GraphClassSet {
    /// The graphs, in generation order.
    pub graphs: Vec<Graph>,
    /// One class label per graph.
    pub labels: Vec<usize>,
    /// Number of graph classes.
    pub num_classes: usize,
}

/// Generate a seeded synthetic graph-classification dataset: each graph is
/// Erdős–Rényi with class-dependent density, and its node features are a
/// class-conditioned Gaussian mixture (every node inherits its graph's
/// class as node label), so both topology and features carry the signal.
pub fn graph_classification_dataset(cfg: &GraphClassConfig, rng: &mut SplitRng) -> GraphClassSet {
    assert!(cfg.classes >= 2, "need at least two graph classes");
    assert!(cfg.nodes_min >= 1 && cfg.nodes_min <= cfg.nodes_max);
    // Class centroids are drawn ONCE for the whole dataset. Per-graph
    // centroids (what `class_feature_matrix` with a shared stream would
    // give) carry no cross-graph signal: a classifier can memorize the
    // training graphs but tests at chance.
    let means: Vec<Vec<f32>> = (0..cfg.classes)
        .map(|_| {
            (0..cfg.feature_dim)
                .map(|_| rng.normal() * cfg.feature_separation)
                .collect()
        })
        .collect();
    let mut graphs = Vec::with_capacity(cfg.graphs);
    let mut labels = Vec::with_capacity(cfg.graphs);
    for _ in 0..cfg.graphs {
        let c = rng.below(cfg.classes);
        let n = cfg.nodes_min + rng.below(cfg.nodes_max - cfg.nodes_min + 1);
        let degree = cfg.mean_degree * (1.0 + c as f64 * 0.5);
        let p = (degree / (n.max(2) as f64 - 1.0)).min(1.0);
        let edges = erdos_renyi(n, p, rng);
        let node_labels = vec![c; n];
        // Clipped Gaussian around the dataset-level class mean, matching
        // the noise model of `FeatureStyle::TfidfGaussian`.
        let mut features = Matrix::zeros(n, cfg.feature_dim);
        for i in 0..n {
            let row = features.row_mut(i);
            for (j, r) in row.iter_mut().enumerate() {
                *r = (means[c][j] + rng.normal() * 0.5).max(0.0);
            }
        }
        graphs.push(Graph::new(n, edges, features, node_labels, cfg.classes));
        labels.push(c);
    }
    GraphClassSet {
        graphs,
        labels,
        num_classes: cfg.classes,
    }
}

/// Shuffled 60/20/20 split over *graph* indices (same proportions as
/// [`crate::full_supervised_split`], which splits node indices).
pub fn graph_level_split(num_graphs: usize, rng: &mut SplitRng) -> Split {
    let mut order: Vec<usize> = (0..num_graphs).collect();
    rng.shuffle(&mut order);
    let train_end = (num_graphs as f64 * 0.6).round() as usize;
    let val_end = (num_graphs as f64 * 0.8).round() as usize;
    let split = Split {
        train: order[..train_end].to_vec(),
        val: order[train_end..val_end].to_vec(),
        test: order[val_end..].to_vec(),
    };
    split.validate(num_graphs);
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{class_feature_matrix, partition_graph, FeatureStyle, PartitionConfig};

    fn small_graph(seed: u64, n: usize) -> Graph {
        let mut rng = SplitRng::new(seed);
        let edges = erdos_renyi(n, 0.4, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let features = class_feature_matrix(
            &labels,
            2,
            5,
            FeatureStyle::TfidfGaussian { separation: 1.0 },
            &mut rng,
        );
        Graph::new(n, edges, features, labels, 2)
    }

    #[test]
    fn one_graph_pack_is_byte_identical_to_single_graph_path() {
        let mut rng = SplitRng::new(7);
        let cfg = PartitionConfig {
            n: 40,
            m: 90,
            classes: 2,
            homophily: 0.8,
            power: 0.3,
        };
        let g = partition_graph(&cfg, 8, FeatureStyle::OneHotGroup, &mut rng);
        let batch = GraphBatch::pack_one(&g, 0, 2);
        let packed = batch.gcn_adjacency();
        let single = g.gcn_adjacency();
        assert_eq!(packed.rows(), single.rows());
        for r in 0..single.rows() {
            let (pc, pv) = packed.row(r);
            let (sc, sv) = single.row(r);
            assert_eq!(pc, sc, "row {r} structure");
            let pv_bits: Vec<u32> = pv.iter().map(|v| v.to_bits()).collect();
            let sv_bits: Vec<u32> = sv.iter().map(|v| v.to_bits()).collect();
            assert_eq!(pv_bits, sv_bits, "row {r} values");
        }
        assert_eq!(batch.features_arc().as_slice(), g.features().as_slice());
        assert_eq!(batch.node_labels(), g.labels());
        assert_eq!(batch.degrees(), &g.degrees()[..]);
    }

    #[test]
    fn packed_adjacency_is_block_diagonal_of_per_graph_adjacencies() {
        let graphs: Vec<Graph> = (0..4)
            .map(|i| small_graph(100 + i, 5 + i as usize))
            .collect();
        let refs: Vec<&Graph> = graphs.iter().collect();
        let batch = GraphBatch::pack(&refs, &[0, 1, 0, 1], 2);
        let packed = batch.gcn_adjacency();
        assert!(packed.is_block_diagonal(batch.segments().offsets()));
        // Each diagonal block equals that graph's own normalized adjacency.
        for (gi, g) in graphs.iter().enumerate() {
            let own = g.gcn_adjacency();
            let off = batch.segments().range(gi).start;
            for r in 0..g.num_nodes() {
                let (pc, pv) = packed.row(off + r);
                let (sc, sv) = own.row(r);
                let shifted: Vec<u32> = sc.iter().map(|&c| c + off as u32).collect();
                assert_eq!(pc, &shifted[..], "graph {gi} row {r}");
                let pv_bits: Vec<u32> = pv.iter().map(|v| v.to_bits()).collect();
                let sv_bits: Vec<u32> = sv.iter().map(|v| v.to_bits()).collect();
                assert_eq!(pv_bits, sv_bits, "graph {gi} row {r} values");
            }
        }
    }

    #[test]
    fn empty_and_single_node_graphs_pack_cleanly() {
        let empty = Graph::new(0, vec![], Matrix::zeros(0, 5), vec![], 2);
        let lone = Graph::new(1, vec![], Matrix::zeros(1, 5), vec![1], 2);
        let normal = small_graph(9, 6);
        let batch = GraphBatch::pack(&[&empty, &lone, &normal], &[0, 1, 0], 2);
        assert_eq!(batch.num_graphs(), 3);
        assert_eq!(batch.num_nodes(), 7);
        assert_eq!(batch.segments().len(0), 0);
        assert_eq!(batch.segments().len(1), 1);
        let adj = batch.gcn_adjacency();
        assert_eq!(adj.rows(), 7);
        // The lone node gets a unit self-loop (degree 0 → 1/sqrt(1)).
        let (cols, vals) = adj.row(0);
        assert_eq!(cols, &[0]);
        assert_eq!(vals[0].to_bits(), 1.0f32.to_bits());
        assert!(adj.is_block_diagonal(batch.segments().offsets()));
    }

    #[test]
    fn generator_produces_consistent_dataset_and_split() {
        let cfg = GraphClassConfig {
            graphs: 30,
            ..GraphClassConfig::default()
        };
        let mut rng = SplitRng::new(11);
        let set = graph_classification_dataset(&cfg, &mut rng);
        assert_eq!(set.graphs.len(), 30);
        assert_eq!(set.labels.len(), 30);
        let mut seen = vec![false; set.num_classes];
        for (g, &l) in set.graphs.iter().zip(&set.labels) {
            assert!(l < set.num_classes);
            seen[l] = true;
            assert!(g.num_nodes() >= cfg.nodes_min && g.num_nodes() <= cfg.nodes_max);
            assert_eq!(g.feature_dim(), cfg.feature_dim);
            assert!(g.labels().iter().all(|&nl| nl == l));
        }
        assert!(seen.iter().all(|&s| s), "every class represented");
        let split = graph_level_split(30, &mut rng);
        assert_eq!(split.train.len() + split.val.len() + split.test.len(), 30);
        assert_eq!(split.train.len(), 18);
    }

    #[test]
    fn pack_determinism() {
        let set = graph_classification_dataset(
            &GraphClassConfig {
                graphs: 8,
                ..GraphClassConfig::default()
            },
            &mut SplitRng::new(3),
        );
        let refs: Vec<&Graph> = set.graphs.iter().collect();
        let a = GraphBatch::pack(&refs, &set.labels, set.num_classes);
        let b = GraphBatch::pack(&refs, &set.labels, set.num_classes);
        assert_eq!(a.gcn_adjacency().as_ref(), b.gcn_adjacency().as_ref());
        assert_eq!(a.features_arc().as_slice(), b.features_arc().as_slice());
    }
}
