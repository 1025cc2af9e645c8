//! Byte-identity of the sharded mini-batch trainer against the full-batch
//! harness.
//!
//! The shard-cache round-trip contract: with a single cluster shard, the
//! mini-batch trainer sees the same induced graph, the same normalized
//! adjacency, the same split, and — because the shard-order shuffle draws
//! from its own index-derived seed — consumes the main RNG in exactly the
//! full-batch order (epoch adjacency, forward split, eval splits). A run
//! must therefore be *bit-identical* to [`train_node_classifier`]: same
//! loss curve, same output-gradient norms, same final parameters. Any
//! drift means sharding perturbed either the cached subgraph or the RNG
//! stream.
//!
//! Runs that cannot match the full-batch trainer — three cluster shards,
//! and neighbor sampling — are pinned to literal bits instead, recorded on
//! the scalar kernels: a change to how either scheme draws, steps or
//! updates that moves one rounding fails here.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    full_supervised_split, partition_graph, FeatureStyle, Graph, PartitionConfig,
};
use skipnode_nn::models::build_by_name;
use skipnode_nn::{
    train_node_classifier, train_node_classifier_minibatch, MiniBatchConfig, Strategy, TrainConfig,
    TrainEngine, TrainResult,
};
use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::{Matrix, SplitRng};
use std::sync::{Mutex, MutexGuard};

const DEPTH: usize = 4;
const HIDDEN: usize = 16;
const DROPOUT: f64 = 0.4;
const EPOCHS: usize = 6;

/// Serialises the tests of this binary: one forces the process-global ISA,
/// and a switch in the middle of another test's pair of runs would split
/// the pair across two kernel sets.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn isa_lock() -> MutexGuard<'static, ()> {
    ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        patience: 0,
        eval_every: 3,
        diagnostics_every: 1,
        ..Default::default()
    }
}

/// One run of either trainer: fresh same-seed model and training RNG.
fn run(
    name: &str,
    g: &Graph,
    strategy: &Strategy,
    shards: Option<usize>,
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
    let result = match shards {
        Some(k) => train_node_classifier_minibatch(
            model.as_mut(),
            g,
            &split,
            strategy,
            &cfg(),
            &MiniBatchConfig::cluster(k),
            &mut rng,
        ),
        None => train_node_classifier(model.as_mut(), g, &split, strategy, &cfg(), &mut rng),
    };
    let params = model.store().values().cloned().collect();
    (result, params)
}

/// Everything except MAD (the mini-batch trainer does not record MAD) must
/// match bit for bit.
fn assert_identical(
    label: &str,
    full: &(TrainResult, Vec<Matrix>),
    sharded: &(TrainResult, Vec<Matrix>),
) {
    let (fr, fp) = full;
    let (sr, sp) = sharded;
    assert_eq!(
        fr.diagnostics.len(),
        sr.diagnostics.len(),
        "{label}: diagnostics length"
    );
    for (fd, sd) in fr.diagnostics.iter().zip(&sr.diagnostics) {
        assert_eq!(fd.epoch, sd.epoch, "{label}: epoch index");
        assert_eq!(
            fd.train_loss.to_bits(),
            sd.train_loss.to_bits(),
            "{label}: train loss diverged at epoch {} ({} vs {})",
            fd.epoch,
            fd.train_loss,
            sd.train_loss
        );
        assert_eq!(
            fd.output_grad_norm.to_bits(),
            sd.output_grad_norm.to_bits(),
            "{label}: output-gradient norm diverged at epoch {}",
            fd.epoch
        );
        assert_eq!(
            fd.weight_norm_sq.to_bits(),
            sd.weight_norm_sq.to_bits(),
            "{label}: weight norm diverged at epoch {}",
            fd.epoch
        );
        assert_eq!(
            fd.val_accuracy.to_bits(),
            sd.val_accuracy.to_bits(),
            "{label}: validation accuracy diverged at epoch {}",
            fd.epoch
        );
    }
    assert_eq!(
        (fr.test_accuracy, fr.val_accuracy, fr.best_epoch),
        (sr.test_accuracy, sr.val_accuracy, sr.best_epoch),
        "{label}: evaluation protocol diverged"
    );
    assert_eq!(fp.len(), sp.len(), "{label}: parameter count");
    for (i, (a, b)) in fp.iter().zip(sp).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{label}: final parameter {i} is not byte-identical"
        );
    }
}

#[test]
fn one_shard_minibatch_is_byte_identical_to_full_batch() {
    let _isa = isa_lock();
    let g = graph();
    let strategies = [
        Strategy::None,
        Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform)),
    ];
    for name in ["gcn", "resgcn", "jknet"] {
        for strategy in &strategies {
            let label = format!("{name} × {}", strategy.label());
            let full = run(name, &g, strategy, None);
            let sharded = run(name, &g, strategy, Some(1));
            assert_identical(&label, &full, &sharded);
        }
    }
}

#[test]
fn multi_shard_runs_are_deterministic() {
    // k > 1 cannot match full batch (one optimizer step per shard, cut
    // edges dropped) but must be byte-reproducible run to run.
    let _isa = isa_lock();
    let g = graph();
    let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let a = run("gcn", &g, &strategy, Some(3));
    let b = run("gcn", &g, &strategy, Some(3));
    assert_identical("gcn × skipnode × k=3", &a, &b);
    // And it actually trains on something: loss must be finite and
    // recorded every epoch.
    assert_eq!(a.0.diagnostics.len(), EPOCHS);
    assert!(a.0.diagnostics.iter().all(|d| d.train_loss.is_finite()));
}

/// FNV-1a over the bits of every parameter, in store order.
fn param_hash(params: &[Matrix]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in params {
        for v in m.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    h
}

/// One GCN mini-batch run under the given engine.
fn run_minibatch(mb: &MiniBatchConfig, engine: TrainEngine) -> (TrainResult, Vec<Matrix>) {
    let g = graph();
    let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let mut rng = SplitRng::new(42);
    let split = full_supervised_split(&g, &mut rng);
    let mut model = build_by_name(
        "gcn",
        g.feature_dim(),
        HIDDEN,
        g.num_classes(),
        DEPTH,
        DROPOUT,
        &mut rng,
    )
    .expect("known backbone");
    let cfg = TrainConfig { engine, ..cfg() };
    let result =
        train_node_classifier_minibatch(model.as_mut(), &g, &split, &strategy, &cfg, mb, &mut rng);
    let params = model.store().values().cloned().collect();
    (result, params)
}

/// Pins multi-shard cluster training and neighbor-sampled training to
/// literal bits on the scalar kernels (the bitwise reference on every ISA):
/// per-epoch `train_loss` and a hash of the final parameters for three
/// cluster shards under both engines, and the reported test accuracy and
/// final-parameter hash for neighbor sampling.
#[test]
fn sharded_and_sampled_runs_reproduce_the_recorded_bits() {
    let _isa = isa_lock();
    let default_isa = simd::active();
    simd::force(Isa::Scalar);
    const SHARD_LOSSES: [u64; EPOCHS] = [
        0x3ff6d9513f33757b,
        0x3ff60c548f022736,
        0x3ff54b9958e4bf23,
        0x3ff4b0da8c7d982d,
        0x3ff3ef723b592f1a,
        0x3ff37c49378d460b,
    ];
    const SHARD_HASH: u64 = 0xde6a5c4bc2e75ceb;
    for engine in [TrainEngine::Compiled, TrainEngine::Eager] {
        let (result, params) = run_minibatch(&MiniBatchConfig::cluster(3), engine);
        let losses: Vec<u64> = result
            .diagnostics
            .iter()
            .map(|d| d.train_loss.to_bits())
            .collect();
        assert_eq!(
            losses, SHARD_LOSSES,
            "k=3 ({engine:?}): per-epoch train_loss bits moved"
        );
        assert_eq!(
            param_hash(&params),
            SHARD_HASH,
            "k=3 ({engine:?}): final parameters moved"
        );
    }
    let (result, params) = run_minibatch(
        &MiniBatchConfig::neighbor_sampling(32, 5, 2),
        TrainEngine::default(),
    );
    assert_eq!(
        result.test_accuracy.to_bits(),
        0x3fe2aaaaaaaaaaab,
        "neighbor sampling: test accuracy bits moved"
    );
    assert_eq!(
        param_hash(&params),
        0x207f6b3bbf72696e,
        "neighbor sampling: final parameters moved"
    );
    simd::force(default_isa);
}
