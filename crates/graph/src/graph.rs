//! The attributed-graph datatype shared across the workspace.

use skipnode_sparse::{dedup_undirected_edges, gcn_adjacency, CsrMatrix};
use skipnode_tensor::Matrix;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

/// An undirected attributed graph with node labels.
///
/// Edges are stored canonically (`u < v`, deduplicated, no self-loops).
/// Features are a dense `n x d` matrix shared by `Arc` (tapes register it
/// without copying); labels are class indices. The full-graph GCN
/// propagation matrix is computed lazily once and cached, so the N training
/// runs of a sweep stop paying N× the O(nnz) normalization.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    edges: Vec<(usize, usize)>,
    features: Arc<Matrix>,
    labels: Vec<usize>,
    num_classes: usize,
    gcn_adj: OnceLock<Arc<CsrMatrix>>,
}

impl Graph {
    /// Construct a graph, canonicalizing the edge list.
    ///
    /// # Panics
    /// Panics if features/labels sizes disagree with `n`, if an edge
    /// endpoint is out of range, or if a label is `>= num_classes`.
    pub fn new(
        n: usize,
        edges: Vec<(usize, usize)>,
        features: Matrix,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        assert_eq!(features.rows(), n, "feature rows != node count");
        assert_eq!(labels.len(), n, "label count != node count");
        for &(u, v) in &edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        }
        for &l in &labels {
            assert!(l < num_classes, "label {l} >= num_classes {num_classes}");
        }
        let edges = dedup_undirected_edges(&edges);
        Self {
            n,
            edges,
            features: Arc::new(features),
            labels,
            num_classes,
            gcn_adj: OnceLock::new(),
        }
    }

    /// Always `None`: graphs carry no node renumbering. Kept only so the
    /// benchmark in `perf/`, which passes it to
    /// `StrategySampler::with_order`, compiles unchanged; the pointee type
    /// is uninhabited, so no value can ever be returned.
    pub fn node_order(&self) -> Option<&Infallible> {
        None
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of (undirected, deduplicated) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Canonical undirected edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Node feature matrix (`n x d`).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Shared handle to the feature matrix, for registering it on a tape
    /// (`Tape::constant_shared`) without copying `n × d` floats per epoch.
    pub fn features_arc(&self) -> Arc<Matrix> {
        Arc::clone(&self.features)
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Node class labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Node degrees (self-loops excluded; edges are canonical).
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg
    }

    /// The GCN-normalized propagation matrix `Ã` for the full graph,
    /// computed on first use and cached. Masked / filtered variants (epoch
    /// subsampling, node masking) remain uncached — they change per epoch.
    pub fn gcn_adjacency(&self) -> Arc<CsrMatrix> {
        Arc::clone(
            self.gcn_adj
                .get_or_init(|| Arc::new(gcn_adjacency(self.n, &self.edges))),
        )
    }

    /// Edge homophily: fraction of edges whose endpoints share a label.
    pub fn edge_homophily(&self) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        let same = self
            .edges
            .iter()
            .filter(|&&(u, v)| self.labels[u] == self.labels[v])
            .count();
        same as f64 / self.edges.len() as f64
    }

    /// Replace the feature matrix (used by augmentation pipelines). The
    /// adjacency cache carries over — the edge list is unchanged.
    pub fn with_features(mut self, features: Matrix) -> Self {
        assert_eq!(features.rows(), self.n, "feature rows != node count");
        self.features = Arc::new(features);
        self
    }

    /// Adjacency list (neighbor ids per node), for metrics like MAD.
    pub fn adjacency_list(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            adj[u].push(v);
            adj[v].push(u);
        }
        adj
    }

    /// Node-induced subgraph. `nodes` are original node ids (deduplicated,
    /// order preserved); returned graph relabels them `0..k`.
    pub fn subgraph(&self, nodes: &[usize]) -> Graph {
        let mut seen = vec![usize::MAX; self.n];
        let mut kept = Vec::with_capacity(nodes.len());
        for &u in nodes {
            assert!(u < self.n, "subgraph node {u} out of range");
            if seen[u] == usize::MAX {
                seen[u] = kept.len();
                kept.push(u);
            }
        }
        let edges: Vec<(usize, usize)> = self
            .edges
            .iter()
            .filter(|&&(u, v)| seen[u] != usize::MAX && seen[v] != usize::MAX)
            .map(|&(u, v)| (seen[u], seen[v]))
            .collect();
        let features = self.features.select_rows(&kept);
        let labels = kept.iter().map(|&u| self.labels[u]).collect();
        Graph::new(kept.len(), edges, features, labels, self.num_classes)
    }

    /// The node ids of the largest connected component.
    pub fn largest_component(&self) -> Vec<usize> {
        let (ids, count) = skipnode_sparse::connected_components(self.n, &self.edges);
        let mut sizes = vec![0usize; count];
        for &c in &ids {
            sizes[c] += 1;
        }
        let biggest = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(c, _)| c)
            .unwrap_or(0);
        (0..self.n).filter(|&i| ids[i] == biggest).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        Graph::new(
            3,
            vec![(0, 1), (1, 0), (1, 2), (2, 2)],
            Matrix::zeros(3, 4),
            vec![0, 0, 1],
            2,
        )
    }

    #[test]
    fn edges_are_canonicalized() {
        let g = tiny();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn degrees_counted_once_per_edge() {
        let g = tiny();
        assert_eq!(g.degrees(), vec![1, 2, 1]);
    }

    #[test]
    fn homophily_counts_same_label_edges() {
        let g = tiny();
        // (0,1): same class; (1,2): different.
        assert!((g.edge_homophily() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn adjacency_list_is_symmetric() {
        let g = tiny();
        let adj = g.adjacency_list();
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![1]);
    }

    #[test]
    fn subgraph_relabels_and_filters() {
        let g = Graph::new(
            4,
            vec![(0, 1), (1, 2), (2, 3)],
            Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]),
            vec![0, 1, 0, 1],
            2,
        );
        let sub = g.subgraph(&[1, 3]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 0); // 1 and 3 are not adjacent
        assert_eq!(sub.labels(), &[1, 1]);
        assert_eq!(sub.features().get(0, 0), 1.0);
        assert_eq!(sub.features().get(1, 0), 3.0);
        let sub2 = g.subgraph(&[2, 1, 2]); // dup ignored
        assert_eq!(sub2.num_nodes(), 2);
        assert_eq!(sub2.num_edges(), 1);
    }

    #[test]
    fn largest_component_found() {
        let g = Graph::new(
            5,
            vec![(0, 1), (1, 2), (3, 4)],
            Matrix::zeros(5, 1),
            vec![0; 5],
            1,
        );
        assert_eq!(g.largest_component(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_edge_rejected() {
        let _ = Graph::new(2, vec![(0, 5)], Matrix::zeros(2, 1), vec![0, 0], 1);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn bad_label_rejected() {
        let _ = Graph::new(1, vec![], Matrix::zeros(1, 1), vec![3], 2);
    }
}
