//! Sharded mini-batch training for graphs that don't fit a full-batch
//! forward pass.
//!
//! Two batch schemes, following the two classic scalable-GCN recipes:
//!
//! - [`BatchScheme::ClusterShards`] (Cluster-GCN): partition the graph
//!   once into degree-balanced [`skipnode_graph::SubgraphShard`]s (see
//!   `skipnode_graph::ShardSet`), cache each shard's induced normalized
//!   adjacency, and compile **one [`skipnode_autograd::TrainProgram`] per
//!   shard** that every epoch replays with the liveness engine, fused
//!   SkipNode kernels included. Cut edges are dropped; that is the
//!   documented Cluster-GCN trade-off, quantified by `ShardSet::cut_edges`.
//! - [`BatchScheme::NeighborSampling`] (GraphSAGE): per batch of seed
//!   training nodes, sample a bounded-fanout neighborhood (halo nodes
//!   re-imported, unlike the cluster scheme) and run an eager forward on
//!   the induced subgraph — shapes change per batch, so there is nothing
//!   to compile.
//!
//! Reproducibility contract: shard *visit order* is shuffled from a seed
//! derived from `(shuffle_seed, epoch)` — never from the main RNG — so
//! the main stream sees exactly one `epoch_adjacency` + one `split()` per
//! trained shard, in visit order, plus the evaluation `split()`s. With a
//! single shard this is precisely [`crate::train_node_classifier`]'s
//! stream, and `tests/shard_identity.rs` pins the two trainers
//! bit-identical. Both schemes take each step through the full-batch
//! trainer's own step and update, over a `TrainData` view of the shard or
//! sampled subgraph.

use crate::context::Strategy;
use crate::diagnostics::{DiagnosticsRecorder, EpochDiagnostics};
use crate::metrics::accuracy;
use crate::models::Model;
use crate::optim::Adam;
use crate::trainer::{
    apply_update, compile_for, evaluate, split_accuracy, train_step, Selection, TrainConfig,
    TrainData, TrainResult,
};
use skipnode_graph::{Graph, LargeGraph, ShardSet, Split};
use skipnode_tensor::SplitRng;

/// How training nodes are batched per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchScheme {
    /// Cluster-GCN: `shards` cached induced subgraphs, one optimizer step
    /// per shard per epoch. `shards = 1` degenerates to full batch.
    ClusterShards {
        /// Number of partitions (≥ 1).
        shards: usize,
    },
    /// GraphSAGE-style neighbor sampling: batches of `batch_size` seed
    /// training nodes expanded through `hops` rounds of ≤ `fanout`
    /// sampled neighbors each; loss on the seeds only.
    NeighborSampling {
        /// Seed nodes per batch.
        batch_size: usize,
        /// Maximum sampled neighbors per node per hop.
        fanout: usize,
        /// Expansion rounds (usually the model depth − 1).
        hops: usize,
    },
}

/// Mini-batch settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiniBatchConfig {
    /// Batching scheme.
    pub scheme: BatchScheme,
    /// Seed for the per-epoch shard-order shuffle. Kept separate from the
    /// training RNG so batching order never perturbs the main stream.
    pub shuffle_seed: u64,
}

impl MiniBatchConfig {
    /// Cluster-GCN sharding with `shards` parts.
    pub fn cluster(shards: usize) -> Self {
        Self {
            scheme: BatchScheme::ClusterShards { shards },
            shuffle_seed: 0x5a5a_1d0f,
        }
    }

    /// Neighbor sampling with the given batch size, fanout, and hops.
    pub fn neighbor_sampling(batch_size: usize, fanout: usize, hops: usize) -> Self {
        Self {
            scheme: BatchScheme::NeighborSampling {
                batch_size,
                fanout,
                hops,
            },
            shuffle_seed: 0x5a5a_1d0f,
        }
    }
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        Self::cluster(4)
    }
}

/// Index-derived, byte-reproducible shard visit order for one epoch.
fn epoch_shard_order(shards: usize, shuffle_seed: u64, epoch: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shards).collect();
    let mut rng =
        SplitRng::new(shuffle_seed ^ (epoch as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.shuffle(&mut order);
    order
}

/// Train with mini-batches on an in-memory [`Graph`]; evaluation stays
/// full-batch (exact), which is what makes the 1-shard cluster run
/// bit-identical to [`crate::train_node_classifier`].
pub fn train_node_classifier_minibatch(
    model: &mut dyn Model,
    graph: &Graph,
    split: &Split,
    strategy: &Strategy,
    cfg: &TrainConfig,
    mb: &MiniBatchConfig,
    rng: &mut SplitRng,
) -> TrainResult {
    split.validate(graph.num_nodes());
    match mb.scheme {
        BatchScheme::ClusterShards { shards } => {
            assert!(shards >= 1, "need at least one shard");
            let set = ShardSet::from_graph(graph, split, shards);
            train_over_shards(
                model,
                &set,
                FullEval::Exact { graph, split },
                strategy,
                cfg,
                mb.shuffle_seed,
                rng,
            )
        }
        BatchScheme::NeighborSampling { .. } => {
            train_neighbor_sampled(model, graph, split, strategy, cfg, mb, rng)
        }
    }
}

/// Train on a streamed [`LargeGraph`] via cached cluster shards. The
/// graph never sees a full-batch forward: evaluation aggregates per-shard
/// inference passes (cut edges are ignored at eval too — the same
/// approximation Cluster-GCN reports).
pub fn train_node_classifier_sharded_large(
    model: &mut dyn Model,
    graph: &LargeGraph,
    split: &Split,
    strategy: &Strategy,
    cfg: &TrainConfig,
    mb: &MiniBatchConfig,
    rng: &mut SplitRng,
) -> TrainResult {
    let shards = match mb.scheme {
        BatchScheme::ClusterShards { shards } => shards.max(1),
        BatchScheme::NeighborSampling { .. } => {
            panic!("neighbor sampling on LargeGraph is not supported; use cluster shards")
        }
    };
    let set = ShardSet::from_large(graph, split, shards);
    train_over_shards(
        model,
        &set,
        FullEval::PerShard,
        strategy,
        cfg,
        mb.shuffle_seed,
        rng,
    )
}

/// How evaluation epochs run.
enum FullEval<'a> {
    /// Exact full-graph inference (in-memory graphs).
    Exact { graph: &'a Graph, split: &'a Split },
    /// Shard-local inference aggregated over shards (large graphs).
    PerShard,
}

/// The shared shard-replay training loop.
fn train_over_shards(
    model: &mut dyn Model,
    set: &ShardSet,
    eval_mode: FullEval<'_>,
    strategy: &Strategy,
    cfg: &TrainConfig,
    shuffle_seed: u64,
    rng: &mut SplitRng,
) -> TrainResult {
    let k = set.shards.len();
    let train_total: usize = set.shards.iter().map(|s| s.local_split.train.len()).sum();
    assert!(train_total > 0, "no training nodes in any shard");

    let mut opt = Adam::new(model.store(), cfg.adam);
    let mut recorder = DiagnosticsRecorder::new(cfg.diagnostics_every);

    // Each shard's training view and its compiled program, compiled once
    // and replayed every epoch.
    let data: Vec<TrainData<'_>> = set
        .shards
        .iter()
        .map(|sh| TrainData::from_graph(&sh.graph))
        .collect();
    let mut programs: Vec<_> = data
        .iter()
        .map(|d| compile_for(model, d, strategy, cfg))
        .collect();

    let full_adj = match eval_mode {
        FullEval::Exact { graph, .. } => Some(graph.gcn_adjacency()),
        FullEval::PerShard => None,
    };

    let mut selection = Selection::new();
    let mut epochs_run = 0usize;

    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        let epoch_t0 = std::time::Instant::now();
        let order = epoch_shard_order(k, shuffle_seed, epoch);
        let mut epoch_loss = 0.0f64;
        let mut grad_norm_sq = 0.0f64;
        for &s in &order {
            let sh = &set.shards[s];
            if sh.local_split.train.is_empty() {
                continue;
            }
            let (loss, head_norm, param_grads) = train_step(
                model,
                &data[s],
                &sh.local_split,
                programs[s].as_mut(),
                strategy,
                cfg.fuse,
                rng,
            );
            epoch_loss += loss * sh.local_split.train.len() as f64 / train_total as f64;
            grad_norm_sq += head_norm * head_norm;
            apply_update(model, &mut opt, cfg, epoch, param_grads);
        }

        let train_seconds = epoch_t0.elapsed().as_secs_f64();
        let should_eval = epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs;
        let wants_diag = recorder.wants(epoch);
        if should_eval || wants_diag {
            let mut eval_rng = rng.split();
            let (val_acc, test_acc) = match eval_mode {
                FullEval::Exact { graph, split } => {
                    let full_adj = full_adj.as_ref().expect("exact eval has an adjacency");
                    let (logits, _) = evaluate(model, graph, full_adj, strategy, &mut eval_rng);
                    split_accuracy(&logits, graph.labels(), split)
                }
                FullEval::PerShard => eval_per_shard(model, set, strategy, &mut eval_rng),
            };
            if wants_diag {
                recorder.push(EpochDiagnostics {
                    epoch,
                    train_loss: epoch_loss,
                    val_accuracy: val_acc,
                    output_grad_norm: grad_norm_sq.sqrt(),
                    weight_norm_sq: model.store().total_l2_norm_sq(),
                    mad: None,
                    train_seconds,
                });
            }
            if should_eval && selection.observe(epoch, val_acc, test_acc, cfg) {
                break;
            }
        }
    }

    selection.result(epochs_run, recorder.into_entries(), None)
}

/// Shard-aggregated evaluation: inference on every shard's cached
/// subgraph, accuracy counted over local val/test indices. Falls back to
/// train accuracy when no shard holds validation nodes.
fn eval_per_shard(
    model: &dyn Model,
    set: &ShardSet,
    strategy: &Strategy,
    eval_rng: &mut SplitRng,
) -> (f64, f64) {
    let mut val = (0usize, 0usize); // (correct, total)
    let mut test = (0usize, 0usize);
    let mut train = (0usize, 0usize);
    for sh in &set.shards {
        let adj = sh.graph.gcn_adjacency();
        let (logits, _) = evaluate(model, &sh.graph, &adj, strategy, eval_rng);
        let labels = sh.graph.labels();
        let tally = |idx: &[usize], acc: &mut (usize, usize)| {
            if idx.is_empty() {
                return;
            }
            let frac = accuracy(&logits, labels, idx);
            acc.0 += (frac * idx.len() as f64).round() as usize;
            acc.1 += idx.len();
        };
        tally(&sh.local_split.val, &mut val);
        tally(&sh.local_split.test, &mut test);
        tally(&sh.local_split.train, &mut train);
    }
    let frac = |(c, t): (usize, usize)| c as f64 / t as f64;
    let val_acc = if val.1 > 0 { frac(val) } else { frac(train) };
    let test_acc = if test.1 > 0 { frac(test) } else { val_acc };
    (val_acc, test_acc)
}

/// GraphSAGE-style neighbor-sampled training (eager per batch — subgraph
/// shapes change every batch, so there is nothing to compile). Halo
/// nodes enter each batch's subgraph but contribute no loss.
fn train_neighbor_sampled(
    model: &mut dyn Model,
    graph: &Graph,
    split: &Split,
    strategy: &Strategy,
    cfg: &TrainConfig,
    mb: &MiniBatchConfig,
    rng: &mut SplitRng,
) -> TrainResult {
    let BatchScheme::NeighborSampling {
        batch_size,
        fanout,
        hops,
    } = mb.scheme
    else {
        unreachable!("caller matched the scheme")
    };
    assert!(batch_size >= 1 && fanout >= 1, "degenerate sampling config");
    let n = graph.num_nodes();
    let full_adj = graph.gcn_adjacency();
    let adj_list = graph.adjacency_list();
    let mut opt = Adam::new(model.store(), cfg.adam);

    let mut selection = Selection::new();
    let mut epochs_run = 0usize;
    let mut in_batch = vec![false; n];

    for epoch in 0..cfg.epochs {
        epochs_run = epoch + 1;
        let mut seeds = split.train.clone();
        rng.shuffle(&mut seeds);
        for batch in seeds.chunks(batch_size) {
            // Expand the batch through `hops` sampled frontiers. Seeds
            // come first, so their local ids are 0..batch.len().
            let mut nodes: Vec<usize> = batch.to_vec();
            for &s in batch {
                in_batch[s] = true;
            }
            let mut frontier_lo = 0usize;
            for _ in 0..hops {
                let frontier_hi = nodes.len();
                for fi in frontier_lo..frontier_hi {
                    let u = nodes[fi];
                    let neigh = &adj_list[u];
                    if neigh.len() <= fanout {
                        for &v in neigh {
                            if !in_batch[v] {
                                in_batch[v] = true;
                                nodes.push(v);
                            }
                        }
                    } else {
                        // Partial Fisher–Yates: `fanout` distinct picks.
                        let mut pool: Vec<usize> = neigh.clone();
                        for j in 0..fanout {
                            let pick = j + rng.below(pool.len() - j);
                            pool.swap(j, pick);
                            let v = pool[j];
                            if !in_batch[v] {
                                in_batch[v] = true;
                                nodes.push(v);
                            }
                        }
                    }
                }
                frontier_lo = frontier_hi;
            }
            let sub = graph.subgraph(&nodes);
            for &u in &nodes {
                in_batch[u] = false;
            }
            let local_split = Split {
                train: (0..batch.len()).collect(),
                val: Vec::new(),
                test: Vec::new(),
            };
            let data = TrainData::from_graph(&sub);
            let (_, _, param_grads) =
                train_step(model, &data, &local_split, None, strategy, cfg.fuse, rng);
            apply_update(model, &mut opt, cfg, epoch, param_grads);
        }

        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            let mut eval_rng = rng.split();
            let (logits, _) = evaluate(model, graph, &full_adj, strategy, &mut eval_rng);
            let (val_acc, test_acc) = split_accuracy(&logits, graph.labels(), split);
            if selection.observe(epoch, val_acc, test_acc, cfg) {
                break;
            }
        }
    }

    selection.result(epochs_run, Vec::new(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Gcn;
    use skipnode_graph::{
        full_supervised_split, partition_graph, streamed_partition_graph, FeatureStyle,
        PartitionConfig,
    };

    fn graph() -> Graph {
        partition_graph(
            &PartitionConfig {
                n: 600,
                m: 2400,
                classes: 4,
                homophily: 0.85,
                power: 0.2,
            },
            96,
            FeatureStyle::BinaryBagOfWords {
                active: 10,
                fidelity: 0.9,
                confusion: 0.1,
            },
            &mut SplitRng::new(41),
        )
    }

    fn quick_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            patience: 0,
            eval_every: 5,
            ..Default::default()
        }
    }

    #[test]
    fn minibatch_training_learns() {
        let g = graph();
        let mut rng = SplitRng::new(1);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 2, 0.2, &mut rng);
        let r = train_node_classifier_minibatch(
            &mut model,
            &g,
            &split,
            &Strategy::None,
            &quick_cfg(30),
            &MiniBatchConfig::cluster(4),
            &mut rng,
        );
        assert!(r.test_accuracy > 0.55, "accuracy {}", r.test_accuracy);
    }

    #[test]
    fn single_part_matches_full_batch_protocol() {
        // shards = 1 trains on the whole cached shard; learning quality
        // must be on par with the standard trainer (the bit-exact pin
        // lives in tests/shard_identity.rs).
        let g = graph();
        let mut rng = SplitRng::new(2);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 2, 0.2, &mut rng);
        let r = train_node_classifier_minibatch(
            &mut model,
            &g,
            &split,
            &Strategy::None,
            &quick_cfg(25),
            &MiniBatchConfig::cluster(1),
            &mut rng,
        );
        assert!(r.test_accuracy > 0.55, "accuracy {}", r.test_accuracy);
    }

    #[test]
    fn minibatch_works_with_skipnode() {
        let g = graph();
        let mut rng = SplitRng::new(3);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 4, 0.2, &mut rng);
        let strategy = Strategy::SkipNode(skipnode_core::SkipNodeConfig::new(
            0.5,
            skipnode_core::Sampling::Uniform,
        ));
        let r = train_node_classifier_minibatch(
            &mut model,
            &g,
            &split,
            &strategy,
            &quick_cfg(25),
            &MiniBatchConfig::cluster(3),
            &mut rng,
        );
        assert!(r.test_accuracy > 0.4, "accuracy {}", r.test_accuracy);
    }

    #[test]
    fn sharded_runs_are_byte_reproducible() {
        // Same seeds, two runs: identical trajectories — the shard-order
        // shuffle must not perturb the main RNG stream.
        let g = graph();
        let run = || {
            let mut rng = SplitRng::new(7);
            let split = full_supervised_split(&g, &mut rng);
            let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 3, 0.3, &mut rng);
            let cfg = TrainConfig {
                epochs: 6,
                patience: 0,
                eval_every: 1,
                diagnostics_every: 1,
                ..Default::default()
            };
            let r = train_node_classifier_minibatch(
                &mut model,
                &g,
                &split,
                &Strategy::None,
                &cfg,
                &MiniBatchConfig::cluster(3),
                &mut rng,
            );
            let params: Vec<f32> = model
                .store()
                .values()
                .flat_map(|m| m.as_slice().to_vec())
                .collect();
            (r.diagnostics, params)
        };
        let (d1, p1) = run();
        let (d2, p2) = run();
        assert_eq!(p1, p2, "parameters diverged");
        for (a, b) in d1.iter().zip(&d2) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.output_grad_norm.to_bits(), b.output_grad_norm.to_bits());
        }
    }

    #[test]
    fn neighbor_sampling_learns() {
        let g = graph();
        let mut rng = SplitRng::new(5);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 2, 0.2, &mut rng);
        let r = train_node_classifier_minibatch(
            &mut model,
            &g,
            &split,
            &Strategy::None,
            &quick_cfg(20),
            &MiniBatchConfig::neighbor_sampling(64, 8, 2),
            &mut rng,
        );
        assert!(r.test_accuracy > 0.5, "accuracy {}", r.test_accuracy);
    }

    #[test]
    fn large_graph_sharded_training_learns_and_reproduces() {
        let cfg = PartitionConfig {
            n: 4000,
            m: 16000,
            classes: 4,
            homophily: 0.85,
            power: 0.0,
        };
        let (lg, _) = streamed_partition_graph(
            &cfg,
            32,
            FeatureStyle::BinaryBagOfWords {
                active: 6,
                fidelity: 0.9,
                confusion: 0.1,
            },
            1 << 12,
            99,
        );
        let run = || {
            let mut rng = SplitRng::new(11);
            let mut order: Vec<usize> = (0..lg.num_nodes()).collect();
            rng.shuffle(&mut order);
            let split = Split {
                train: order[..2400].to_vec(),
                val: order[2400..3200].to_vec(),
                test: order[3200..].to_vec(),
            };
            let mut model = Gcn::new(lg.feature_dim(), 16, lg.num_classes(), 2, 0.2, &mut rng);
            let r = train_node_classifier_sharded_large(
                &mut model,
                &lg,
                &split,
                &Strategy::None,
                &quick_cfg(20),
                &MiniBatchConfig::cluster(4),
                &mut rng,
            );
            let params: Vec<f32> = model
                .store()
                .values()
                .flat_map(|m| m.as_slice().to_vec())
                .collect();
            (r, params)
        };
        let (r1, p1) = run();
        let (_, p2) = run();
        assert!(r1.test_accuracy > 0.55, "accuracy {}", r1.test_accuracy);
        assert_eq!(p1, p2, "large-graph run not reproducible");
    }
}
