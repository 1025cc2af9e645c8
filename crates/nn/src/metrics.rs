//! Evaluation metrics: accuracy, MAD, and Hits@K.

use skipnode_tensor::{cosine_distance_rows, Matrix};

/// Classification accuracy over the rows listed in `idx`.
pub fn accuracy(logits: &Matrix, labels: &[usize], idx: &[usize]) -> f64 {
    assert!(!idx.is_empty(), "accuracy over empty index set");
    let mut correct = 0usize;
    for &i in idx {
        let row = logits.row(i);
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
            .map(|(j, _)| j)
            .expect("empty logit row");
        if pred == labels[i] {
            correct += 1;
        }
    }
    correct as f64 / idx.len() as f64
}

/// MAD \[17\]: the mean over nodes of the average cosine distance from each
/// node to its neighbors. Zero means fully over-smoothed features (paper
/// Figures 2(a) and 5(b)). Nodes without neighbors are skipped.
pub fn mean_average_distance(features: &Matrix, adjacency: &[Vec<usize>]) -> f64 {
    assert_eq!(
        features.rows(),
        adjacency.len(),
        "one adjacency row per node"
    );
    let mut total = 0.0f64;
    let mut counted = 0usize;
    for (i, neigh) in adjacency.iter().enumerate() {
        if neigh.is_empty() {
            continue;
        }
        let mut acc = 0.0f64;
        for &j in neigh {
            acc += cosine_distance_rows(features, i, features, j);
        }
        total += acc / neigh.len() as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Hits@K (the OGB link-prediction protocol): the fraction of positive
/// scores that rank strictly above the K-th highest negative score.
pub fn hits_at_k(pos_scores: &[f32], neg_scores: &[f32], k: usize) -> f64 {
    assert!(k >= 1, "K must be positive");
    if pos_scores.is_empty() {
        return 0.0;
    }
    if neg_scores.len() < k {
        // Fewer than K negatives: every positive trivially ranks in top K.
        return 1.0;
    }
    let mut neg = neg_scores.to_vec();
    neg.sort_by(|a, b| b.partial_cmp(a).expect("NaN score"));
    let threshold = neg[k - 1];
    let hits = pos_scores.iter().filter(|&&s| s > threshold).count();
    hits as f64 / pos_scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0], &[5.0, 4.0]]);
        let labels = [0usize, 1, 1];
        assert_eq!(accuracy(&logits, &labels, &[0, 1, 2]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &labels, &[0, 1]), 1.0);
    }

    #[test]
    fn mad_zero_for_identical_features() {
        let f = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]);
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        assert!(mean_average_distance(&f, &adj) < 1e-7);
    }

    #[test]
    fn mad_positive_for_diverse_features() {
        let f = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let adj = vec![vec![1], vec![0]];
        assert!((mean_average_distance(&f, &adj) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn mad_skips_isolated_nodes() {
        let f = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[9.0, 9.0]]);
        let adj = vec![vec![1], vec![0], vec![]];
        assert!((mean_average_distance(&f, &adj) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn mad_zero_for_collapsed_zero_features() {
        // The over-smoothed fixed point: all-zero features → MAD 0.
        let f = Matrix::zeros(3, 4);
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        assert_eq!(mean_average_distance(&f, &adj), 0.0);
    }

    #[test]
    fn hits_at_k_basic_ranking() {
        let pos = [0.9f32, 0.5, 0.1];
        let neg = [0.8f32, 0.6, 0.4, 0.2];
        // K=1: threshold 0.8 → only 0.9 counts.
        assert!((hits_at_k(&pos, &neg, 1) - 1.0 / 3.0).abs() < 1e-9);
        // K=3: threshold 0.4 → 0.9 and 0.5 count.
        assert!((hits_at_k(&pos, &neg, 3) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn hits_at_k_with_few_negatives_is_one() {
        assert_eq!(hits_at_k(&[0.0], &[1.0], 10), 1.0);
    }

    #[test]
    fn hits_at_k_perfect_separation() {
        let pos = [1.0f32, 0.9];
        let neg = [0.1f32, 0.2, 0.05];
        assert_eq!(hits_at_k(&pos, &neg, 1), 1.0);
    }
}
