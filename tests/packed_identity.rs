//! Packed-batch equivalence gates for the segment-aware execution stack.
//!
//! Two families of pins:
//!
//! 1. **1-graph byte identity** — training a node classifier on a packed
//!    batch containing exactly one graph must be *bit-identical* to the
//!    single-graph trainer: same loss curve, same output-gradient norms,
//!    same weight-norm trajectory, same evaluation protocol, same final
//!    parameters — for every backbone × strategy × fused/unfused × engine
//!    combination. The packed path reuses the single-graph adjacency builder,
//!    segment-aware skip-mask sampling, and the shared training core, so
//!    any divergence means one of those drifted from the reference.
//! 2. **Per-graph reference loop** — a multi-graph packed forward must
//!    reproduce, row range by row range, what each member graph computes
//!    alone with the same parameters. Exercised with empty graphs,
//!    single-node graphs, and a batch large enough that the packed SpMM
//!    crosses `SPMM_PARALLEL_THRESHOLD` into its parallel path.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    full_supervised_split, graph_classification_dataset, partition_graph, FeatureStyle, Graph,
    GraphBatch, GraphClassConfig, PartitionConfig,
};
use skipnode_nn::models::build_by_name;
use skipnode_nn::{
    evaluate, evaluate_packed, train_node_classifier, train_packed_node_classifier, Strategy,
    TrainConfig, TrainEngine, TrainResult,
};
use skipnode_tensor::{Matrix, SplitRng};

const DEPTH: usize = 4;
const HIDDEN: usize = 16;
const DROPOUT: f64 = 0.4;
const EPOCHS: usize = 6;

fn graph() -> Graph {
    partition_graph(
        &PartitionConfig {
            n: 120,
            m: 500,
            classes: 4,
            homophily: 0.8,
            power: 0.3,
        },
        24,
        FeatureStyle::BinaryBagOfWords {
            active: 6,
            fidelity: 0.9,
            confusion: 0.1,
        },
        &mut SplitRng::new(11),
    )
}

fn cfg(engine: TrainEngine, fuse: bool) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        patience: 0,
        eval_every: 3,
        diagnostics_every: 1,
        engine,
        fuse,
        ..Default::default()
    }
}

/// One training run through either the single-graph or the packed path:
/// fresh same-seed model, fresh same-seed training RNG.
fn run(
    name: &str,
    g: &Graph,
    strategy: &Strategy,
    engine: TrainEngine,
    fuse: bool,
    packed: bool,
) -> (TrainResult, Vec<Matrix>) {
    let mut rng = SplitRng::new(42);
    let split = full_supervised_split(g, &mut rng);
    let mut model = build_by_name(
        name,
        g.feature_dim(),
        HIDDEN,
        g.num_classes(),
        DEPTH,
        DROPOUT,
        &mut rng,
    )
    .expect("known backbone");
    let result = if packed {
        let batch = GraphBatch::pack_one(g, 0, 1);
        train_packed_node_classifier(
            model.as_mut(),
            &batch,
            &split,
            strategy,
            &cfg(engine, fuse),
            &mut rng,
        )
    } else {
        train_node_classifier(
            model.as_mut(),
            g,
            &split,
            strategy,
            &cfg(engine, fuse),
            &mut rng,
        )
    };
    let params = model.store().values().cloned().collect();
    (result, params)
}

fn assert_identical(
    label: &str,
    single: &(TrainResult, Vec<Matrix>),
    packed: &(TrainResult, Vec<Matrix>),
) {
    let (sr, sp) = single;
    let (pr, pp) = packed;
    assert_eq!(
        sr.diagnostics.len(),
        pr.diagnostics.len(),
        "{label}: diagnostics length"
    );
    for (sd, pd) in sr.diagnostics.iter().zip(&pr.diagnostics) {
        assert_eq!(sd.epoch, pd.epoch, "{label}: epoch index");
        assert_eq!(
            sd.train_loss.to_bits(),
            pd.train_loss.to_bits(),
            "{label}: train loss diverged at epoch {} ({} vs {})",
            sd.epoch,
            sd.train_loss,
            pd.train_loss
        );
        assert_eq!(
            sd.output_grad_norm.to_bits(),
            pd.output_grad_norm.to_bits(),
            "{label}: output-gradient norm diverged at epoch {}",
            sd.epoch
        );
        assert_eq!(
            sd.weight_norm_sq.to_bits(),
            pd.weight_norm_sq.to_bits(),
            "{label}: weight norm diverged at epoch {}",
            sd.epoch
        );
    }
    assert_eq!(
        (sr.test_accuracy, sr.val_accuracy, sr.best_epoch),
        (pr.test_accuracy, pr.val_accuracy, pr.best_epoch),
        "{label}: evaluation protocol diverged"
    );
    assert_eq!(sp.len(), pp.len(), "{label}: parameter count");
    for (i, (a, b)) in sp.iter().zip(pp).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{label}: final parameter {i} is not byte-identical"
        );
    }
}

#[test]
fn one_graph_packed_training_is_byte_identical_to_single_graph_path() {
    let g = graph();
    let strategies = [
        Strategy::None,
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform)),
    ];
    for name in ["gcn", "resgcn", "jknet"] {
        for strategy in &strategies {
            for fuse in [true, false] {
                for engine in [TrainEngine::Eager, TrainEngine::Compiled] {
                    let label = format!(
                        "{name} × {} × {} × {engine:?}",
                        strategy.label(),
                        if fuse { "fused" } else { "unfused" }
                    );
                    let single = run(name, &g, strategy, engine, fuse, false);
                    let packed = run(name, &g, strategy, engine, fuse, true);
                    assert_identical(&label, &single, &packed);
                }
            }
        }
    }
}

/// Assert that a packed eval forward reproduces each member graph's own
/// forward bitwise, segment by segment.
fn assert_packed_matches_reference_loop(graphs: &[Graph], hidden: usize, label: &str) {
    let labels: Vec<usize> = graphs.iter().map(|_| 0).collect();
    let refs: Vec<&Graph> = graphs.iter().collect();
    let batch = GraphBatch::pack(&refs, &labels, 1);
    assert!(batch
        .gcn_adjacency()
        .is_block_diagonal(batch.segments().offsets()));

    let feature_dim = graphs[0].feature_dim();
    let num_classes = graphs[0].num_classes();
    let mut rng = SplitRng::new(77);
    let model = build_by_name("gcn", feature_dim, hidden, num_classes, 3, 0.0, &mut rng)
        .expect("known backbone");

    let mut eval_rng = rng.split();
    let (packed_logits, _) =
        evaluate_packed(model.as_ref(), &batch, &Strategy::None, &mut eval_rng);
    assert_eq!(packed_logits.rows(), batch.num_nodes(), "{label}: rows");

    // Per-graph reference loop: the same parameters, one forward per graph.
    for (gi, g) in graphs.iter().enumerate() {
        if g.num_nodes() == 0 {
            continue;
        }
        let mut per_rng = SplitRng::new(3); // eval draws nothing; seed is arbitrary
        let (own, _) = evaluate(
            model.as_ref(),
            g,
            &g.gcn_adjacency(),
            &Strategy::None,
            &mut per_rng,
        );
        let range = batch.segments().range(gi);
        for (local, row) in range.clone().enumerate() {
            let packed_bits: Vec<u32> =
                packed_logits.row(row).iter().map(|v| v.to_bits()).collect();
            let own_bits: Vec<u32> = own.row(local).iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                packed_bits, own_bits,
                "{label}: graph {gi} row {local} diverged from the reference loop"
            );
        }
    }
}

#[test]
fn packed_forward_matches_reference_loop_with_empty_and_single_node_graphs() {
    let mut rng = SplitRng::new(21);
    let set = graph_classification_dataset(
        &GraphClassConfig {
            graphs: 6,
            classes: 2,
            nodes_min: 4,
            nodes_max: 10,
            feature_dim: 8,
            ..GraphClassConfig::default()
        },
        &mut rng,
    );
    let dim = set.graphs[0].feature_dim();
    let classes = set.graphs[0].num_classes();
    let mut graphs = set.graphs;
    // Edge cases: an empty graph and a single-node graph mixed into the
    // batch, including an empty graph in the *first* slot.
    graphs.insert(
        0,
        Graph::new(0, vec![], Matrix::zeros(0, dim), vec![], classes),
    );
    graphs.push(Graph::new(
        1,
        vec![],
        Matrix::zeros(1, dim),
        vec![0],
        classes,
    ));
    assert_packed_matches_reference_loop(&graphs, 12, "edge-case batch");
}

#[test]
fn packed_forward_matches_reference_loop_beyond_one_spmm_chunk() {
    // Total packed work must exceed SPMM_PARALLEL_THRESHOLD (1 << 18
    // multiply-adds): ~200 graphs × ~20 nodes at hidden width 32 pushes
    // nnz · d well past it, so the packed SpMM takes the parallel path
    // while each per-graph reference forward stays sequential.
    let mut rng = SplitRng::new(31);
    let set = graph_classification_dataset(
        &GraphClassConfig {
            graphs: 200,
            classes: 2,
            nodes_min: 16,
            nodes_max: 24,
            feature_dim: 8,
            mean_degree: 4.0,
            ..GraphClassConfig::default()
        },
        &mut rng,
    );
    let batch_nnz: usize = {
        let labels: Vec<usize> = set.graphs.iter().map(|_| 0).collect();
        let refs: Vec<&Graph> = set.graphs.iter().collect();
        GraphBatch::pack(&refs, &labels, 1).gcn_adjacency().nnz()
    };
    assert!(
        batch_nnz * 32 >= (1 << 18),
        "batch too small to cross the SpMM parallel threshold: nnz {batch_nnz}"
    );
    assert_packed_matches_reference_loop(&set.graphs, 32, "large batch");
}
