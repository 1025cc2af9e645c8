//! Byte-identity of the compiled training engine against the eager tape.
//!
//! The record-once/replay-many contract: for every backbone, strategy, and
//! fused/unfused kernel choice, a full training run driven by the compiled
//! [`TrainProgram`] must be *bit-identical* to one that records a fresh
//! eager tape every epoch — same loss curve, same output-gradient norms,
//! same weight-norm trajectory, same final parameters. Any drift means the
//! replay consumed RNG differently or its backward deviated from the
//! reference arithmetic.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    full_supervised_split, partition_graph, FeatureStyle, Graph, PartitionConfig,
};
use skipnode_nn::models::{build_by_name, Gat, Model, BACKBONE_NAMES};
use skipnode_nn::{train_node_classifier, Strategy, TrainConfig, TrainEngine, TrainResult};
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
        ..Default::default()
    }
    .with_engine(engine, fuse)
}

/// Small local extension so the test reads declaratively.
trait WithEngine {
    fn with_engine(self, engine: TrainEngine, fuse: bool) -> Self;
}

impl WithEngine for TrainConfig {
    fn with_engine(mut self, engine: TrainEngine, fuse: bool) -> Self {
        self.engine = engine;
        self.fuse = fuse;
        self
    }
}

/// One full run: fresh same-seed model, fresh same-seed training RNG.
/// `name` is a backbone from [`BACKBONE_NAMES`] or `"gat"`.
fn run(
    name: &str,
    g: &Graph,
    strategy: &Strategy,
    engine: TrainEngine,
    fuse: bool,
) -> (TrainResult, Vec<Matrix>) {
    let mut rng = SplitRng::new(42);
    let split = full_supervised_split(g, &mut rng);
    let mut model: Box<dyn Model> = if name == "gat" {
        Box::new(Gat::new(
            g.num_nodes(),
            g.edges(),
            g.feature_dim(),
            HIDDEN,
            g.num_classes(),
            DEPTH,
            DROPOUT,
            &mut rng,
        ))
    } else {
        build_by_name(
            name,
            g.feature_dim(),
            HIDDEN,
            g.num_classes(),
            DEPTH,
            DROPOUT,
            &mut rng,
        )
        .expect("known backbone")
    };
    let result = train_node_classifier(
        model.as_mut(),
        g,
        &split,
        strategy,
        &cfg(engine, fuse),
        &mut rng,
    );
    let params = model.store().values().cloned().collect();
    (result, params)
}

fn assert_identical(
    label: &str,
    eager: &(TrainResult, Vec<Matrix>),
    other: &(TrainResult, Vec<Matrix>),
) {
    let (er, ep) = eager;
    let (or, op) = other;
    assert_eq!(
        er.diagnostics.len(),
        or.diagnostics.len(),
        "{label}: diagnostics length"
    );
    for (ed, od) in er.diagnostics.iter().zip(&or.diagnostics) {
        assert_eq!(ed.epoch, od.epoch, "{label}: epoch index");
        assert_eq!(
            ed.train_loss.to_bits(),
            od.train_loss.to_bits(),
            "{label}: train loss diverged at epoch {} ({} vs {})",
            ed.epoch,
            ed.train_loss,
            od.train_loss
        );
        assert_eq!(
            ed.output_grad_norm.to_bits(),
            od.output_grad_norm.to_bits(),
            "{label}: output-gradient norm diverged at epoch {}",
            ed.epoch
        );
        assert_eq!(
            ed.weight_norm_sq.to_bits(),
            od.weight_norm_sq.to_bits(),
            "{label}: weight norm diverged at epoch {}",
            ed.epoch
        );
    }
    assert_eq!(
        (er.test_accuracy, er.val_accuracy, er.best_epoch),
        (or.test_accuracy, or.val_accuracy, or.best_epoch),
        "{label}: evaluation protocol diverged"
    );
    assert_eq!(ep.len(), op.len(), "{label}: parameter count");
    for (i, (a, b)) in ep.iter().zip(op).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{label}: final parameter {i} is not byte-identical"
        );
    }
}

#[test]
fn compiled_training_is_byte_identical_to_eager_for_every_backbone() {
    let g = graph();
    let strategies = [
        Strategy::None,
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform)),
    ];
    for name in BACKBONE_NAMES {
        for strategy in &strategies {
            for fuse in [true, false] {
                let label = format!(
                    "{name} × {} × {}",
                    strategy.label(),
                    if fuse { "fused" } else { "unfused" }
                );
                let eager = run(name, &g, strategy, TrainEngine::Eager, fuse);
                let compiled = run(name, &g, strategy, TrainEngine::Compiled, fuse);
                assert_identical(&label, &eager, &compiled);
            }
        }
    }
}

/// GAT's fused attention op compiles like every other op: its replayed
/// attention weights and backward must match the eager tape bit for bit.
#[test]
fn compiled_gat_training_is_byte_identical_to_eager() {
    let g = graph();
    for strategy in [
        Strategy::None,
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform)),
    ] {
        let label = format!("gat × {} × unfused", strategy.label());
        let eager = run("gat", &g, &strategy, TrainEngine::Eager, false);
        let compiled = run("gat", &g, &strategy, TrainEngine::Compiled, false);
        assert_identical(&label, &eager, &compiled);
    }
}
