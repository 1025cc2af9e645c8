//! Random-graph and feature generators.
//!
//! Three topology generators cover the paper's dataset families:
//! - [`erdos_renyi`] — the G(n, p) graph of the Figure 4 theory experiment;
//! - [`planted_partition`] — degree-corrected SBM with a homophily dial,
//!   standing in for the citation (homophilic) and web (heterophilic)
//!   graphs;
//! - [`barabasi_albert_with_classes`] — preferential attachment with
//!   class-biased wiring, standing in for the hub-heavy ogbn-arxiv.

use crate::graph::Graph;
use skipnode_tensor::{Matrix, SplitRng};
use std::collections::HashSet;

/// Erdős–Rényi G(n, p): every pair independently connected with
/// probability `p`. Used by the Figure 4 experiment (n=500, p=0.5).
pub fn erdos_renyi(n: usize, p: f64, rng: &mut SplitRng) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.unit() < p {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Configuration for the degree-corrected planted-partition generator.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Number of nodes.
    pub n: usize,
    /// Target number of undirected edges.
    pub m: usize,
    /// Number of classes (= blocks).
    pub classes: usize,
    /// Probability that a generated edge is intra-class (edge homophily dial).
    pub homophily: f64,
    /// Pareto-ish degree-propensity exponent; higher → heavier hubs.
    /// 0 gives near-uniform degrees.
    pub power: f64,
}

/// Degree-corrected planted partition / SBM.
///
/// Labels are assigned round-robin (balanced classes). Each of the `m`
/// edges picks intra- vs inter-class by `homophily`, then endpoints within
/// the chosen blocks proportional to per-node propensities
/// `θ_i = u_i^{-power}` (heavy-tailed for `power > 0`). Duplicate edges are
/// retried, so the realized edge count matches `m` (up to a retry cap).
pub fn planted_partition(
    cfg: &PartitionConfig,
    rng: &mut SplitRng,
) -> (Vec<(usize, usize)>, Vec<usize>) {
    assert!(cfg.classes >= 1, "need at least one class");
    assert!(cfg.n >= 2, "need at least two nodes");
    let labels: Vec<usize> = (0..cfg.n).map(|i| i % cfg.classes).collect();
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); cfg.classes];
    for (i, &c) in labels.iter().enumerate() {
        by_class[c].push(i);
    }
    // Per-node propensity; alias-free sampling via cumulative weights.
    let theta: Vec<f64> = (0..cfg.n)
        .map(|_| {
            if cfg.power <= 0.0 {
                1.0
            } else {
                rng.unit().max(1e-9).powf(-cfg.power).min(1e4)
            }
        })
        .collect();
    let cum_per_class: Vec<Vec<f64>> = by_class
        .iter()
        .map(|nodes| {
            let mut acc = 0.0;
            nodes
                .iter()
                .map(|&i| {
                    acc += theta[i];
                    acc
                })
                .collect()
        })
        .collect();

    let pick_in_class = |class: usize, rng: &mut SplitRng| -> usize {
        let cum = &cum_per_class[class];
        let total = *cum.last().expect("non-empty class");
        let x = rng.unit() * total;
        let idx = cum.partition_point(|&c| c < x).min(cum.len() - 1);
        by_class[class][idx]
    };

    let mut set: HashSet<(usize, usize)> = HashSet::with_capacity(cfg.m * 2);
    let mut edges = Vec::with_capacity(cfg.m);
    let max_attempts = cfg.m * 50 + 1000;
    let mut attempts = 0;
    while edges.len() < cfg.m && attempts < max_attempts {
        attempts += 1;
        let c1 = rng.below(cfg.classes);
        let c2 = if rng.unit() < cfg.homophily || cfg.classes == 1 {
            c1
        } else {
            // pick a different class uniformly
            let mut c = rng.below(cfg.classes - 1);
            if c >= c1 {
                c += 1;
            }
            c
        };
        let u = pick_in_class(c1, rng);
        let v = pick_in_class(c2, rng);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if set.insert(key) {
            edges.push(key);
        }
    }
    (edges, labels)
}

/// Configuration for the ring-of-blocks citation-graph generator.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Number of nodes.
    pub n: usize,
    /// Target number of undirected edges (sets the mean degree).
    pub m: usize,
    /// Number of classes.
    pub classes: usize,
    /// Class-block length along the ring: labels cycle through classes in
    /// contiguous blocks of this many nodes. Smaller blocks ⇒ more
    /// boundary-crossing edges ⇒ lower homophily.
    pub block: usize,
    /// Fraction of lattice edges rewired to a random nearby node.
    pub rewire: f64,
    /// Rewiring window (max ring distance of a rewired edge).
    pub window: usize,
}

/// Ring-of-blocks generator: a small-world ring lattice whose labels cycle
/// through classes in contiguous blocks.
///
/// This is the **citation-graph substitute**: unlike a planted partition
/// (an expander with `λ ≈ 0.9`), the ring's slow mixing gives
/// `λ ≈ 0.999` — matching real Planetoid graphs (`λ ≈ 0.996` on Cora) and
/// therefore the paper's depth-versus-degradation dynamics. Homophily is
/// set geometrically by `block`: an edge of ring distance `d` crosses a
/// class boundary with probability `≈ d/block`.
pub fn ring_of_blocks(cfg: &RingConfig, rng: &mut SplitRng) -> (Vec<(usize, usize)>, Vec<usize>) {
    assert!(cfg.n >= 4, "ring too small");
    assert!(cfg.block >= 1, "block must be positive");
    assert!(
        (0.0..=1.0).contains(&cfg.rewire),
        "rewire fraction in [0,1]"
    );
    let labels: Vec<usize> = (0..cfg.n).map(|i| (i / cfg.block) % cfg.classes).collect();
    let mean_degree = 2.0 * cfg.m as f64 / cfg.n as f64;
    let k = (mean_degree / 2.0).floor() as usize; // full lattice distances
    let frac = mean_degree / 2.0 - k as f64; // partial distance k+1
    let window = cfg.window.max(1).min(cfg.n / 2 - 1);
    let mut edges = Vec::with_capacity(cfg.m + cfg.n);
    let mut set: HashSet<(usize, usize)> = HashSet::with_capacity(cfg.m * 2);
    let mut place = |u: usize, v: usize, edges: &mut Vec<(usize, usize)>| -> bool {
        if u == v {
            return false;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if set.insert(key) {
            edges.push(key);
            true
        } else {
            false
        }
    };
    for u in 0..cfg.n {
        for d in 1..=(k + 1) {
            if d == k + 1 && rng.unit() >= frac {
                continue;
            }
            if rng.unit() < cfg.rewire {
                // Retry colliding rewires with a fresh window offset instead
                // of dropping the edge, so the realized count tracks `m`
                // instead of silently losing a few percent to duplicates.
                let mut placed = false;
                for _ in 0..20 {
                    let off = 1 + rng.below(window);
                    let v = if rng.bernoulli(0.5) {
                        (u + off) % cfg.n
                    } else {
                        (u + cfg.n - off) % cfg.n
                    };
                    if place(u, v, &mut edges) {
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    // Dense neighborhood: fall back to the lattice edge.
                    place(u, (u + d) % cfg.n, &mut edges);
                }
            } else {
                place(u, (u + d) % cfg.n, &mut edges);
            }
        }
    }
    (edges, labels)
}

/// Preferential attachment with class-biased wiring (ogbn-arxiv stand-in).
///
/// Node `t` joins with `m_attach` edges; each edge endpoint is chosen
/// preferentially by degree among earlier nodes, restricted to `t`'s own
/// class with probability `homophily`. Produces a hub-heavy, homophilic
/// graph like large citation networks.
pub fn barabasi_albert_with_classes(
    n: usize,
    m_attach: usize,
    classes: usize,
    homophily: f64,
    rng: &mut SplitRng,
) -> (Vec<(usize, usize)>, Vec<usize>) {
    assert!(
        n > m_attach + classes,
        "graph too small for attachment count"
    );
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * m_attach);
    let mut degree = vec![0usize; n];
    // Repeated-node list for preferential sampling, per class and global.
    let mut pool_global: Vec<usize> = Vec::new();
    let mut pool_class: Vec<Vec<usize>> = vec![Vec::new(); classes];
    let seed_count = (m_attach + 1).max(classes);
    // Seed clique over the first seed_count nodes.
    for u in 0..seed_count {
        for v in (u + 1)..seed_count {
            edges.push((u, v));
            degree[u] += 1;
            degree[v] += 1;
        }
    }
    for u in 0..seed_count {
        for _ in 0..degree[u].max(1) {
            pool_global.push(u);
            pool_class[labels[u]].push(u);
        }
    }
    for t in seed_count..n {
        let mut targets: HashSet<usize> = HashSet::with_capacity(m_attach);
        let mut guard = 0;
        while targets.len() < m_attach && guard < m_attach * 60 {
            guard += 1;
            let same_class = rng.unit() < homophily;
            let pool = if same_class && !pool_class[labels[t]].is_empty() {
                &pool_class[labels[t]]
            } else {
                &pool_global
            };
            let cand = pool[rng.below(pool.len())];
            if cand != t {
                targets.insert(cand);
            }
        }
        for &v in &targets {
            edges.push((t, v));
            degree[t] += 1;
            degree[v] += 1;
            pool_global.push(v);
            pool_class[labels[v]].push(v);
        }
        pool_global.push(t);
        pool_class[labels[t]].push(t);
    }
    (edges, labels)
}

/// Feature synthesis style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureStyle {
    /// 0/1 bag-of-words: each class owns a block of "topic words"; a node
    /// activates `active` words drawn mostly from its class block plus
    /// uniform noise words (Cora/Citeseer-like). With probability
    /// `confusion` a node's topic block is swapped for a random *other*
    /// class's block — these nodes are unclassifiable from features alone
    /// and set the dataset's accuracy ceiling (a homophilic graph can
    /// recover them through neighbors, exactly as on real citation data).
    BinaryBagOfWords {
        /// Number of word activations per node.
        active: usize,
        /// Probability an activation is an in-class topic word.
        fidelity: f64,
        /// Fraction of nodes whose features mimic a different class.
        confusion: f64,
    },
    /// Dense TF-IDF-like features: class-mean Gaussian mixture, values
    /// clipped at zero (Pubmed-like).
    TfidfGaussian {
        /// Class separation (mean offset scale).
        separation: f32,
    },
    /// One-hot group id (ogbl-ppa's 58 species-like groups).
    OneHotGroup,
}

/// Build an `n x dim` feature matrix conditioned on class labels.
pub fn class_feature_matrix(
    labels: &[usize],
    num_classes: usize,
    dim: usize,
    style: FeatureStyle,
    rng: &mut SplitRng,
) -> Matrix {
    let n = labels.len();
    let mut x = Matrix::zeros(n, dim);
    match style {
        FeatureStyle::BinaryBagOfWords {
            active,
            fidelity,
            confusion,
        } => {
            // Concentrate class signal in a compact topic block: real
            // bag-of-words corpora have a few dozen highly indicative terms
            // per class, and capping the block keeps small training sets
            // able to generalize across it.
            let block = (dim / num_classes).clamp(1, 64);
            for (i, &c) in labels.iter().enumerate() {
                let topic = if num_classes > 1 && rng.unit() < confusion {
                    // Confused node: features mimic a different class.
                    let mut o = rng.below(num_classes - 1);
                    if o >= c {
                        o += 1;
                    }
                    o
                } else {
                    c
                };
                let lo = (topic * block).min(dim.saturating_sub(1));
                let hi = (lo + block).min(dim);
                let row = x.row_mut(i);
                for _ in 0..active {
                    let j = if rng.unit() < fidelity && hi > lo {
                        lo + rng.below(hi - lo)
                    } else {
                        rng.below(dim)
                    };
                    row[j] = 1.0;
                }
            }
        }
        FeatureStyle::TfidfGaussian { separation } => {
            // Random unit-ish class means.
            let mut means = Vec::with_capacity(num_classes);
            for _ in 0..num_classes {
                let m: Vec<f32> = (0..dim).map(|_| rng.normal() * separation).collect();
                means.push(m);
            }
            for (i, &c) in labels.iter().enumerate() {
                let row = x.row_mut(i);
                for (j, r) in row.iter_mut().enumerate() {
                    *r = (means[c][j] + rng.normal() * 0.5).max(0.0);
                }
            }
        }
        FeatureStyle::OneHotGroup => {
            for i in 0..n {
                let g = rng.below(dim);
                x.set(i, g, 1.0);
            }
        }
    }
    x
}

/// Convenience: build a full [`Graph`] from a planted partition + features.
pub fn partition_graph(
    cfg: &PartitionConfig,
    dim: usize,
    style: FeatureStyle,
    rng: &mut SplitRng,
) -> Graph {
    let (edges, labels) = planted_partition(cfg, rng);
    let features = class_feature_matrix(&labels, cfg.classes, dim, style, rng);
    Graph::new(cfg.n, edges, features, labels, cfg.classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_edge_count_matches_expectation() {
        let mut rng = SplitRng::new(1);
        let n = 200;
        let p = 0.1;
        let edges = erdos_renyi(n, p, &mut rng);
        let expect = (n * (n - 1) / 2) as f64 * p;
        let got = edges.len() as f64;
        assert!((got - expect).abs() < expect * 0.15, "{got} vs {expect}");
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SplitRng::new(2);
        assert!(erdos_renyi(20, 0.0, &mut rng).is_empty());
        assert_eq!(erdos_renyi(20, 1.0, &mut rng).len(), 190);
    }

    #[test]
    fn planted_partition_hits_edge_and_homophily_targets() {
        let mut rng = SplitRng::new(3);
        let cfg = PartitionConfig {
            n: 1000,
            m: 4000,
            classes: 5,
            homophily: 0.8,
            power: 0.3,
        };
        let (edges, labels) = planted_partition(&cfg, &mut rng);
        assert!(edges.len() as f64 >= cfg.m as f64 * 0.98, "{}", edges.len());
        let same = edges
            .iter()
            .filter(|&&(u, v)| labels[u] == labels[v])
            .count() as f64;
        let h = same / edges.len() as f64;
        assert!((h - 0.8).abs() < 0.05, "homophily {h}");
    }

    #[test]
    fn planted_partition_heterophilic_regime() {
        let mut rng = SplitRng::new(4);
        let cfg = PartitionConfig {
            n: 500,
            m: 2000,
            classes: 5,
            homophily: 0.2,
            power: 0.0,
        };
        let (edges, labels) = planted_partition(&cfg, &mut rng);
        let same = edges
            .iter()
            .filter(|&&(u, v)| labels[u] == labels[v])
            .count() as f64;
        let h = same / edges.len() as f64;
        assert!(h < 0.3, "homophily {h}");
    }

    #[test]
    fn degree_correction_creates_hubs() {
        let mut rng = SplitRng::new(5);
        let mk = |power: f64, rng: &mut SplitRng| {
            let cfg = PartitionConfig {
                n: 800,
                m: 4000,
                classes: 4,
                homophily: 0.7,
                power,
            };
            let (edges, _) = planted_partition(&cfg, rng);
            let mut deg = vec![0usize; 800];
            for (u, v) in edges {
                deg[u] += 1;
                deg[v] += 1;
            }
            *deg.iter().max().unwrap()
        };
        let max_flat = mk(0.0, &mut rng);
        let max_heavy = mk(0.8, &mut rng);
        assert!(
            max_heavy > max_flat * 2,
            "heavy {max_heavy} vs flat {max_flat}"
        );
    }

    #[test]
    fn ba_graph_is_connected_and_hubby() {
        let mut rng = SplitRng::new(6);
        let (edges, labels) = barabasi_albert_with_classes(2000, 5, 10, 0.7, &mut rng);
        assert_eq!(labels.len(), 2000);
        let (_, count) = skipnode_sparse::connected_components(2000, &edges);
        assert_eq!(count, 1, "BA graph must be connected");
        let mut deg = vec![0usize; 2000];
        for &(u, v) in &edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let max = *deg.iter().max().unwrap();
        let mean = deg.iter().sum::<usize>() as f64 / 2000.0;
        assert!(max as f64 > mean * 5.0, "max {max}, mean {mean}");
    }

    #[test]
    fn ba_homophily_tracks_dial() {
        let mut rng = SplitRng::new(7);
        let (edges, labels) = barabasi_albert_with_classes(3000, 5, 10, 0.8, &mut rng);
        let canon = skipnode_sparse::dedup_undirected_edges(&edges);
        let same = canon
            .iter()
            .filter(|&&(u, v)| labels[u] == labels[v])
            .count() as f64;
        let h = same / canon.len() as f64;
        assert!(h > 0.55, "homophily {h}");
    }

    #[test]
    fn ring_of_blocks_hits_edge_target_and_block_homophily() {
        let mut rng = SplitRng::new(11);
        let cfg = RingConfig {
            n: 2708,
            m: 5429,
            classes: 7,
            block: 15,
            rewire: 0.2,
            window: 12,
        };
        let (edges, labels) = ring_of_blocks(&cfg, &mut rng);
        let canon = skipnode_sparse::dedup_undirected_edges(&edges);
        let m = canon.len() as f64;
        assert!((m - 5429.0).abs() < 5429.0 * 0.02, "edges {m}");
        let same = canon
            .iter()
            .filter(|&&(u, v)| labels[u] == labels[v])
            .count() as f64;
        let h = same / m;
        assert!((h - 0.81).abs() < 0.05, "homophily {h}");
    }

    #[test]
    fn ring_of_blocks_is_slow_mixing() {
        // The whole point of the ring substitute: λ must be close to 1,
        // like real citation graphs, not an expander's ~0.9.
        let mut rng = SplitRng::new(12);
        let cfg = RingConfig {
            n: 800,
            m: 1600,
            classes: 7,
            block: 8,
            rewire: 0.2,
            window: 40,
        };
        let (edges, _) = ring_of_blocks(&cfg, &mut rng);
        let canon = skipnode_sparse::dedup_undirected_edges(&edges);
        let adj = skipnode_sparse::gcn_adjacency(800, &canon);
        let sub = skipnode_sparse::SmoothingSubspace::from_edges(800, &canon);
        let lambda = skipnode_sparse::second_largest_eigen_magnitude(&adj, &sub, 800);
        assert!(lambda > 0.99, "lambda {lambda}");
    }

    #[test]
    fn bag_of_words_features_are_binary_and_class_informative() {
        let mut rng = SplitRng::new(8);
        let labels: Vec<usize> = (0..400).map(|i| i % 4).collect();
        let x = class_feature_matrix(
            &labels,
            4,
            100,
            FeatureStyle::BinaryBagOfWords {
                active: 15,
                fidelity: 0.8,
                confusion: 0.0,
            },
            &mut rng,
        );
        assert!(x.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        // Class-0 nodes should activate block [0, 25) far more than block [25, 50).
        let mut own = 0.0;
        let mut other = 0.0;
        for (i, &c) in labels.iter().enumerate() {
            if c != 0 {
                continue;
            }
            let row = x.row(i);
            own += row[0..25].iter().sum::<f32>();
            other += row[25..50].iter().sum::<f32>();
        }
        assert!(own > other * 2.0, "own {own} vs other {other}");
    }

    #[test]
    fn tfidf_features_are_nonnegative() {
        let mut rng = SplitRng::new(9);
        let labels = vec![0, 1, 2, 0, 1, 2];
        let x = class_feature_matrix(
            &labels,
            3,
            20,
            FeatureStyle::TfidfGaussian { separation: 1.0 },
            &mut rng,
        );
        assert!(x.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn one_hot_features_have_single_active_entry() {
        let mut rng = SplitRng::new(10);
        let labels = vec![0; 50];
        let x = class_feature_matrix(&labels, 1, 58, FeatureStyle::OneHotGroup, &mut rng);
        for r in 0..50 {
            let s: f32 = x.row(r).iter().sum();
            assert_eq!(s, 1.0);
        }
    }
}
