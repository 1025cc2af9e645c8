//! End-to-end gates for the precision modes at the trainer level: f32
//! training must be bit-identical across the compiled and eager engines
//! and with tape-level checkpointing, and int8 quantized inference must
//! agree with the f32 logits on a trained checkpoint.

use skipnode_graph::{full_supervised_split, partition_graph, FeatureStyle, PartitionConfig};
use skipnode_nn::models::build_by_name;
use skipnode_nn::{
    accuracy, evaluate, evaluate_quantized, train_node_classifier, Strategy, TrainConfig,
    TrainEngine, TrainResult,
};
use skipnode_tensor::{Matrix, SplitRng};

const DEPTH: usize = 8;
const HIDDEN: usize = 16;
const EPOCHS: usize = 8;

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        patience: 0,
        eval_every: 4,
        diagnostics_every: 1,
        ..Default::default()
    }
}

/// Fresh same-seed model + RNG per run; returns the result, the final
/// parameters, and the trained model for inference-path checks.
fn run(
    g: &skipnode_graph::Graph,
    config: &TrainConfig,
) -> (
    TrainResult,
    Vec<Matrix>,
    Box<dyn skipnode_nn::models::Model>,
) {
    let mut rng = SplitRng::new(42);
    let split = full_supervised_split(g, &mut rng);
    let mut model = build_by_name(
        "gcn",
        g.feature_dim(),
        HIDDEN,
        g.num_classes(),
        DEPTH,
        0.3,
        &mut rng,
    )
    .expect("gcn is a known backbone");
    let result =
        train_node_classifier(model.as_mut(), g, &split, &Strategy::None, config, &mut rng);
    let params = model.store().values().cloned().collect();
    (result, params, model)
}

fn assert_bitwise(label: &str, a: &(TrainResult, Vec<Matrix>), b: &(TrainResult, Vec<Matrix>)) {
    for (x, y) in a.0.diagnostics.iter().zip(&b.0.diagnostics) {
        assert_eq!(
            x.train_loss.to_bits(),
            y.train_loss.to_bits(),
            "{label}: loss diverged at epoch {}",
            x.epoch
        );
    }
    assert_eq!(a.1.len(), b.1.len(), "{label}: parameter count");
    for (i, (x, y)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(
            x.as_slice(),
            y.as_slice(),
            "{label}: parameter {i} not byte-identical"
        );
    }
}

#[test]
fn precision_modes_hold_their_training_and_inference_gates() {
    let g = partition_graph(
        &PartitionConfig {
            n: 140,
            m: 600,
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
    );

    // f32 baseline, compiled engine.
    let mut base_cfg = cfg();
    base_cfg.engine = TrainEngine::Compiled;
    let (f32_result, f32_params, model) = run(&g, &base_cfg);

    // Checkpointing is bitwise-neutral: same run, segmented tape.
    let mut ck_cfg = base_cfg.clone();
    ck_cfg.checkpoint_segments = 4;
    let (ck_result, ck_params, _) = run(&g, &ck_cfg);
    assert_bitwise(
        "checkpointed vs plain compiled (f32)",
        &(f32_result.clone(), f32_params.clone()),
        &(ck_result, ck_params),
    );

    // The eager engine reproduces the compiled run bit for bit.
    let mut eager_cfg = cfg();
    eager_cfg.engine = TrainEngine::Eager;
    let (eager_result, eager_params, _) = run(&g, &eager_cfg);
    assert_bitwise(
        "compiled vs eager (f32)",
        &(eager_result, eager_params),
        &(f32_result, f32_params),
    );

    // Quantized inference on the f32-trained checkpoint: ≥ 99% argmax
    // agreement with the f32 logits, accuracy within 1 pt on the test set.
    let mut rng = SplitRng::new(42);
    let split = full_supervised_split(&g, &mut rng);
    let adj = g.gcn_adjacency();
    let (logits_f32, _) = evaluate(
        model.as_ref(),
        &g,
        &adj,
        &Strategy::None,
        &mut SplitRng::new(88),
    );
    let (logits_i8, _) = evaluate_quantized(
        model.as_ref(),
        &g,
        &adj,
        &Strategy::None,
        &mut SplitRng::new(88),
    );
    let acc_f32 = accuracy(&logits_f32, g.labels(), &split.test);
    let acc_i8 = accuracy(&logits_i8, g.labels(), &split.test);
    assert!(
        acc_f32 - acc_i8 <= 0.01 + 1e-12,
        "quantized inference dropped {:.4} -> {:.4}",
        acc_f32,
        acc_i8
    );
    let (n, c) = (logits_f32.rows(), logits_f32.cols());
    let argmax = |m: &Matrix, r: usize| {
        (0..c)
            .map(|j| m.get(r, j))
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite logits"))
            .map(|(j, _)| j)
            .expect("non-empty row")
    };
    let agree = (0..n)
        .filter(|&r| argmax(&logits_f32, r) == argmax(&logits_i8, r))
        .count();
    assert!(
        agree as f64 >= 0.99 * n as f64,
        "int8 argmax agreement {agree}/{n} below 99%"
    );
}
