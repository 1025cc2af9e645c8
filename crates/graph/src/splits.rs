//! Train/validation/test splits matching the paper's protocols.

use crate::graph::Graph;
use skipnode_tensor::SplitRng;

/// A node-classification split.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Split {
    /// Training node indices.
    pub train: Vec<usize>,
    /// Validation node indices.
    pub val: Vec<usize>,
    /// Test node indices.
    pub test: Vec<usize>,
}

impl Split {
    /// Sanity-check that the split partitions disjoint subsets of `[0, n)`.
    pub fn validate(&self, n: usize) {
        let mut seen = vec![false; n];
        for set in [&self.train, &self.val, &self.test] {
            for &i in set {
                assert!(i < n, "split index {i} out of range");
                assert!(!seen[i], "split index {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(!self.train.is_empty(), "empty training set");
    }
}

/// The Planetoid "public split" protocol \[53\]: 20 labeled nodes per class
/// for training, the next 500 nodes for validation, the next 1000 for
/// testing (clamped for small graphs).
pub fn semi_supervised_split(g: &Graph, rng: &mut SplitRng) -> Split {
    let n = g.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let per_class = 20usize;
    let mut counts = vec![0usize; g.num_classes()];
    let mut train = Vec::with_capacity(per_class * g.num_classes());
    let mut rest = Vec::with_capacity(n);
    for &i in &order {
        let c = g.labels()[i];
        if counts[c] < per_class {
            counts[c] += 1;
            train.push(i);
        } else {
            rest.push(i);
        }
    }
    let val_n = 500.min(rest.len() / 2);
    let test_n = 1000.min(rest.len() - val_n);
    let val = rest[..val_n].to_vec();
    let test = rest[val_n..val_n + test_n].to_vec();
    Split { train, val, test }
}

/// The full-supervised protocol: random 60% / 20% / 20% split.
pub fn full_supervised_split(g: &Graph, rng: &mut SplitRng) -> Split {
    let n = g.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let train_n = n * 60 / 100;
    let val_n = n * 20 / 100;
    Split {
        train: order[..train_n].to_vec(),
        val: order[train_n..train_n + val_n].to_vec(),
        test: order[train_n + val_n..].to_vec(),
    }
}

/// A link-prediction split over the graph's edges plus sampled negatives.
#[derive(Debug, Clone)]
pub struct LinkSplit {
    /// Edges visible to the encoder (message passing) — the training graph.
    pub message_edges: Vec<(usize, usize)>,
    /// Positive training edges (supervision; equals `message_edges` here,
    /// following common OGB practice for GCN baselines).
    pub train_pos: Vec<(usize, usize)>,
    /// Held-out positive validation edges.
    pub val_pos: Vec<(usize, usize)>,
    /// Held-out positive test edges.
    pub test_pos: Vec<(usize, usize)>,
    /// Shared negative edges for ranking evaluation (Hits@K protocol).
    pub eval_neg: Vec<(usize, usize)>,
}

/// Split edges 80/10/10 into message/val/test and sample `neg_count`
/// negatives (non-edges) for Hits@K evaluation.
pub fn link_split(g: &Graph, neg_count: usize, rng: &mut SplitRng) -> LinkSplit {
    let mut edges = g.edges().to_vec();
    rng.shuffle(&mut edges);
    let m = edges.len();
    let test_n = m / 10;
    let val_n = m / 10;
    let test_pos = edges[..test_n].to_vec();
    let val_pos = edges[test_n..test_n + val_n].to_vec();
    let message_edges = edges[test_n + val_n..].to_vec();

    let existing: std::collections::HashSet<(usize, usize)> = g.edges().iter().copied().collect();
    let n = g.num_nodes();
    let mut eval_neg = Vec::with_capacity(neg_count);
    let mut guard = 0;
    while eval_neg.len() < neg_count && guard < neg_count * 100 {
        guard += 1;
        let u = rng.below(n);
        let v = rng.below(n);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if !existing.contains(&key) {
            eval_neg.push(key);
        }
    }
    LinkSplit {
        train_pos: message_edges.clone(),
        message_edges,
        val_pos,
        test_pos,
        eval_neg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{load, DatasetName, Scale};

    fn cora() -> Graph {
        load(DatasetName::Cora, Scale::Bench, 7)
    }

    #[test]
    fn semi_split_has_twenty_per_class() {
        let g = cora();
        let mut rng = SplitRng::new(1);
        let s = semi_supervised_split(&g, &mut rng);
        s.validate(g.num_nodes());
        let mut counts = vec![0usize; g.num_classes()];
        for &i in &s.train {
            counts[g.labels()[i]] += 1;
        }
        assert!(counts.iter().all(|&c| c == 20), "{counts:?}");
        assert_eq!(s.val.len(), 500);
        assert_eq!(s.test.len(), 1000);
    }

    #[test]
    fn full_split_proportions() {
        let g = cora();
        let mut rng = SplitRng::new(2);
        let s = full_supervised_split(&g, &mut rng);
        s.validate(g.num_nodes());
        let n = g.num_nodes();
        assert_eq!(s.train.len(), n * 60 / 100);
        assert_eq!(s.val.len(), n * 20 / 100);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), n);
    }

    #[test]
    fn splits_differ_across_seeds() {
        let g = cora();
        let s1 = full_supervised_split(&g, &mut SplitRng::new(1));
        let s2 = full_supervised_split(&g, &mut SplitRng::new(2));
        assert_ne!(s1.train, s2.train);
    }

    #[test]
    fn link_split_partitions_edges() {
        let g = cora();
        let mut rng = SplitRng::new(3);
        let ls = link_split(&g, 2000, &mut rng);
        let m = g.num_edges();
        assert_eq!(
            ls.message_edges.len() + ls.val_pos.len() + ls.test_pos.len(),
            m
        );
        assert_eq!(ls.eval_neg.len(), 2000);
        let edge_set: std::collections::HashSet<_> = g.edges().iter().copied().collect();
        assert!(ls.eval_neg.iter().all(|e| !edge_set.contains(e)));
        assert!(ls.test_pos.iter().all(|e| edge_set.contains(e)));
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn validate_catches_overlap() {
        let s = Split {
            train: vec![0, 1],
            val: vec![1],
            test: vec![],
        };
        s.validate(3);
    }
}
