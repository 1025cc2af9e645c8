//! Integration tests for the training-infrastructure extensions:
//! checkpointing, LR schedules, gradient clipping, Dirichlet energy, and
//! graph-level training over packed batches.

use skipnode::nn::{dirichlet_energy, evaluate, load_checkpoint, save_checkpoint, LrSchedule};
use skipnode::prelude::*;

fn graph() -> Graph {
    skipnode::graph::partition_graph(
        &skipnode::graph::PartitionConfig {
            n: 250,
            m: 900,
            classes: 4,
            homophily: 0.85,
            power: 0.2,
        },
        64,
        skipnode::graph::FeatureStyle::BinaryBagOfWords {
            active: 10,
            fidelity: 0.9,
            confusion: 0.1,
        },
        &mut SplitRng::new(31),
    )
}

#[test]
fn checkpoint_round_trip_preserves_predictions() {
    let g = graph();
    let mut rng = SplitRng::new(1);
    let split = full_supervised_split(&g, &mut rng);
    let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 3, 0.2, &mut rng);
    let cfg = TrainConfig {
        epochs: 20,
        patience: 0,
        eval_every: 5,
        ..Default::default()
    };
    let _ = train_node_classifier(&mut model, &g, &split, &Strategy::None, &cfg, &mut rng);

    let path = std::env::temp_dir().join("skipnode_trained.skpn");
    save_checkpoint(model.store(), &path).unwrap();
    let restored = load_checkpoint(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // Predictions from the restored parameters must match exactly.
    assert_eq!(restored.len(), model.store().len());
    for (a, b) in model.store().ids().into_iter().zip(restored.ids()) {
        assert_eq!(model.store().value(a), restored.value(b));
    }
}

#[test]
fn cosine_schedule_trains_and_ends_with_small_lr() {
    let g = graph();
    let mut rng = SplitRng::new(2);
    let split = full_supervised_split(&g, &mut rng);
    let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 2, 0.2, &mut rng);
    let cfg = TrainConfig {
        epochs: 40,
        patience: 0,
        eval_every: 5,
        lr_schedule: LrSchedule::Cosine {
            total: 40,
            floor: 0.01,
        },
        ..Default::default()
    };
    let r = train_node_classifier(&mut model, &g, &split, &Strategy::None, &cfg, &mut rng);
    assert!(r.test_accuracy > 0.5, "accuracy {}", r.test_accuracy);
}

#[test]
fn clipping_keeps_training_stable_with_huge_lr() {
    let g = graph();
    let mut rng = SplitRng::new(3);
    let split = full_supervised_split(&g, &mut rng);
    let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 2, 0.2, &mut rng);
    let adam = skipnode::nn::AdamConfig {
        lr: 0.5, // deliberately too hot
        ..Default::default()
    };
    let cfg = TrainConfig {
        epochs: 30,
        patience: 0,
        eval_every: 5,
        adam,
        clip_norm: Some(1.0),
        ..Default::default()
    };
    let r = train_node_classifier(&mut model, &g, &split, &Strategy::None, &cfg, &mut rng);
    // The run must remain finite and usable (no NaN collapse).
    assert!(r.test_accuracy.is_finite());
    assert!(r.val_accuracy > 0.2, "val {}", r.val_accuracy);
}

#[test]
fn dirichlet_energy_tracks_oversmoothing() {
    // Energy of raw features vs features propagated many times: repeated
    // propagation must crush the energy, matching the MAD story.
    let g = graph();
    let adj = g.gcn_adjacency();
    let raw = dirichlet_energy(g.features(), &g);
    let mut smoothed = g.features().clone();
    for _ in 0..20 {
        smoothed = adj.spmm(&smoothed);
    }
    let after = dirichlet_energy(&smoothed, &g);
    assert!(after < raw * 0.05, "energy barely moved: {after} vs {raw}");
}

#[test]
fn trained_deep_vanilla_has_lower_energy_than_skipnode() {
    // Oversmoothing relief is a distributional claim, so compare mean
    // Dirichlet energy over a few training seeds rather than a single run
    // (any individual seed can land a vanilla network that has not yet
    // collapsed after 60 epochs).
    let g = graph();
    let full_adj = g.gcn_adjacency();
    let run = |strategy: &Strategy, seed: u64| -> f64 {
        let mut rng = SplitRng::new(seed);
        let split = full_supervised_split(&g, &mut rng);
        let mut model = Gcn::new(g.feature_dim(), 16, g.num_classes(), 12, 0.2, &mut rng);
        let cfg = TrainConfig {
            epochs: 60,
            patience: 0,
            eval_every: 10,
            ..Default::default()
        };
        let _ = train_node_classifier(&mut model, &g, &split, strategy, &cfg, &mut rng);
        let mut eval_rng = SplitRng::new(seed + 1);
        let (_, penultimate) = evaluate(&model, &g, &full_adj, strategy, &mut eval_rng);
        dirichlet_energy(&penultimate.expect("penultimate"), &g)
    };
    let seeds = [4u64, 14, 24];
    let skipnode = Strategy::SkipNode(SkipNodeConfig::new(0.6, Sampling::Uniform));
    let vanilla: f64 =
        seeds.iter().map(|&s| run(&Strategy::None, s)).sum::<f64>() / seeds.len() as f64;
    let skip: f64 = seeds.iter().map(|&s| run(&skipnode, s)).sum::<f64>() / seeds.len() as f64;
    assert!(
        skip > vanilla,
        "mean SkipNode energy {skip:.4} should exceed vanilla {vanilla:.4} at depth 12"
    );
}

#[test]
fn graph_classifier_learns_planted_classes() {
    use skipnode::graph::{
        graph_classification_dataset, graph_level_split, GraphBatch, GraphClassConfig,
    };
    use skipnode::nn::models::{GraphBackbone, GraphClassifier};
    use skipnode::nn::train_graph_classifier;
    use skipnode::tensor::ReadoutKind;

    // Molecule-sized class-conditioned ER graphs: degree and features both
    // carry the class, so a SkipNode graph classifier must beat chance
    // (1/3) comfortably.
    let gen_cfg = GraphClassConfig {
        graphs: 256,
        nodes_min: 4,
        nodes_max: 12,
        ..GraphClassConfig::default()
    };
    let mut rng = SplitRng::new(97);
    let set = graph_classification_dataset(&gen_cfg, &mut rng);
    let refs: Vec<&Graph> = set.graphs.iter().collect();
    let batch = GraphBatch::pack(&refs, &set.labels, set.num_classes);
    let split = graph_level_split(batch.num_graphs(), &mut rng);
    let mut model = GraphClassifier::new(
        GraphBackbone::Plain,
        gen_cfg.feature_dim,
        16,
        set.num_classes,
        4,
        0.3,
        ReadoutKind::Mean,
        &mut rng,
    );
    let cfg = TrainConfig {
        epochs: 60,
        patience: 0,
        eval_every: 5,
        ..Default::default()
    };
    let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let r = train_graph_classifier(&mut model, &batch, &split, &strategy, &cfg, &mut rng);
    assert!(r.test_accuracy >= 0.5, "accuracy {}", r.test_accuracy);
}
