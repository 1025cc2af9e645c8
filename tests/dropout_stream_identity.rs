//! Pins two seeded Cora training runs to literal bits: the per-epoch
//! training loss and a hash of the final parameters.
//!
//! The literals fix the RNG stream and the arithmetic of dropout: a change
//! to how masks are drawn, stored or applied that moves one draw or one
//! rounding fails here. GCN depth 8 with dropout 0.5 and SkipNode-U
//! ρ = 0.5 exercises `Op::Mask` and the skip sampler; GRAND exercises
//! `Op::RowMask` through its row dropout. ResGCN, JKNet, InceptGCN and
//! GCNII at depth 6 under the same strategy pin the fused layer's gradient
//! into its carry where other routes also land: the post-ReLU residual,
//! the aggregation head and the initial residual.
//!
//! Both training engines must reproduce the literals: the eager engine
//! draws its masks while recording, the compiled one in `begin_epoch`.
//!
//! The kernel ISA is process-global, so each ISA's runs live in ONE
//! `#[test]` and the tests take [`ISA_LOCK`] before forcing it. The first
//! forces the scalar kernels (the bitwise reference on every ISA); the
//! second pins the AVX2+FMA kernels, where the sparse input layer takes its
//! FMA arm, and adds APPNP, whose input layer is a `Dense` op.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{full_supervised_split, load, DatasetName, Scale};
use skipnode_nn::models::build_by_name;
use skipnode_nn::{train_node_classifier, Strategy, TrainConfig, TrainEngine};
use skipnode_tensor::simd::{self, Isa};
use skipnode_tensor::SplitRng;
use std::sync::{Mutex, MutexGuard};

const HIDDEN: usize = 16;
const EPOCHS: usize = 3;

/// Serialises the tests of this binary: each forces a process-global ISA.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn isa_lock() -> MutexGuard<'static, ()> {
    ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a over the bits of every parameter, in store order.
fn param_hash<'a>(params: impl Iterator<Item = &'a skipnode_tensor::Matrix>) -> u64 {
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

/// Per-epoch `train_loss` bits and the final-parameter hash of one run.
fn run(backbone: &str, depth: usize, strategy: &Strategy, engine: TrainEngine) -> (Vec<u64>, u64) {
    let g = load(DatasetName::Cora, Scale::Bench, 7);
    let mut rng = SplitRng::new(7);
    let split = full_supervised_split(&g, &mut rng);
    let mut model = build_by_name(
        backbone,
        g.feature_dim(),
        HIDDEN,
        g.num_classes(),
        depth,
        0.5,
        &mut rng,
    )
    .expect("known backbone");
    let cfg = TrainConfig {
        epochs: EPOCHS,
        patience: 0,
        diagnostics_every: 1,
        engine,
        ..Default::default()
    };
    let result = train_node_classifier(model.as_mut(), &g, &split, strategy, &cfg, &mut rng);
    let losses = result
        .diagnostics
        .iter()
        .map(|d| d.train_loss.to_bits())
        .collect();
    (losses, param_hash(model.store().values()))
}

type Case<'a> = (&'a str, usize, &'a Strategy, [u64; EPOCHS], u64);

/// Runs every case under both engines and asserts its literals.
fn assert_cases(cases: &[Case<'_>]) {
    for &(backbone, depth, strategy, losses, hash) in cases {
        for engine in [TrainEngine::Compiled, TrainEngine::Eager] {
            let (got_losses, got_hash) = run(backbone, depth, strategy, engine);
            assert_eq!(
                got_losses, losses,
                "{backbone} ({engine:?}): per-epoch train_loss bits moved"
            );
            assert_eq!(
                got_hash, hash,
                "{backbone} ({engine:?}): final parameters moved"
            );
        }
    }
}

#[test]
fn dropout_masks_reproduce_the_recorded_training_runs() {
    let _isa = isa_lock();
    simd::force(Isa::Scalar);
    let skipnode = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let cases: [Case<'_>; 6] = [
        (
            "gcn",
            8,
            &skipnode,
            [0x3fff2600282d3ce8, 0x3fff0d2ef7ba444c, 0x3ffeeb93999deee2],
            0x29ce53eb1e884669,
        ),
        (
            "grand",
            4,
            &Strategy::None,
            [0x3fff5086bb395458, 0x3ffd0bc5fa3b526a, 0x3ffae804a123c54d],
            0x521e80f0e63b0481,
        ),
        (
            "resgcn",
            6,
            &skipnode,
            [0x3fff95c0a82553f1, 0x3ffd06ccb99ac686, 0x3ffaa68f0c703b6c],
            0x9fef6954b033cd10,
        ),
        (
            "jknet",
            6,
            &skipnode,
            [0x3fff22b13d9b60c5, 0x3ffdaf7952d229fc, 0x3ffbd73b0ddf6e10],
            0x822280dc9004f884,
        ),
        (
            "inceptgcn",
            6,
            &skipnode,
            [0x3fff3da05c2b6a97, 0x3ffdb7ba49439026, 0x3ffc04ede85ccdb2],
            0x6a35e9847d4682ce,
        ),
        (
            "gcnii",
            6,
            &skipnode,
            [0x3fff4df21a916b94, 0x3ffde81639eea90b, 0x3ffccbb3e3d40489],
            0xc73822a1e12d6dbf,
        ),
    ];
    assert_cases(&cases);
}

#[test]
fn avx2_training_runs_reproduce_the_recorded_bits() {
    let _isa = isa_lock();
    if simd::force(Isa::Avx2) != Isa::Avx2 {
        eprintln!("skipped: this host has no AVX2+FMA; the AVX2 literals are not checked");
        return;
    }
    let skipnode = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let cases: [Case<'_>; 6] = [
        (
            "gcn",
            8,
            &skipnode,
            [0x3fff2600284ce230, 0x3fff0d2ef84bfaa4, 0x3ffeeb9399bb6cd6],
            0x208a6e948f4c1258,
        ),
        (
            "appnp",
            4,
            &Strategy::None,
            [0x3fff409ab62edf82, 0x3ffd37d2235f8825, 0x3ffb382edef8aa82],
            0xe1a393a5735ade41,
        ),
        (
            "resgcn",
            6,
            &skipnode,
            [0x3fff95c0a79dea4c, 0x3ffd06ccb9545522, 0x3ffaa68f0bc0eae9],
            0x628d5e38009e1ed4,
        ),
        (
            "jknet",
            6,
            &skipnode,
            [0x3fff22b13db07149, 0x3ffdaf79527f4e61, 0x3ffbd73b0e4d7b78],
            0xf4ff419948a65d6e,
        ),
        (
            "inceptgcn",
            6,
            &skipnode,
            [0x3fff3da05be9c4b8, 0x3ffdb7ba486e9b95, 0x3ffc04ede9dadfc0],
            0xc32cb70c07d1fd5c,
        ),
        (
            "gcnii",
            6,
            &skipnode,
            [0x3fff4df21a76c913, 0x3ffde81639dafe75, 0x3ffccbb3e36edebe],
            0xc33828c173ebdfd5,
        ),
    ];
    assert_cases(&cases);
}
