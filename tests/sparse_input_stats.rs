//! The `sparse_input` kernel-stats family records which input-layer path
//! ran: one call per evaluation of the sparse input layer. One compiled
//! training epoch of a GCN on Cora's bag-of-words features (1.1% nonzero)
//! evaluates it once; on dense features the dense chain runs and the family
//! stays at zero. Kept alone in this file: the counters are process-global,
//! and a dedicated test binary keeps concurrent tests from polluting the
//! deltas.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::Scale;
use skipnode_graph::{load, partition_graph, DatasetName, FeatureStyle, Graph, PartitionConfig};
use skipnode_nn::models::build_by_name;
use skipnode_nn::{compile_train_program, Strategy, StrategySampler};
use skipnode_sparse::SPARSE_INPUT_DENSITY_DIVISOR;
use skipnode_tensor::kstats::{self, Kernel};
use skipnode_tensor::precision::{self, Storage};
use skipnode_tensor::{workspace, Matrix, SplitRng};

fn density(g: &Graph) -> f64 {
    let x = g.features().as_slice();
    x.iter().filter(|&&v| v != 0.0).count() as f64 / x.len() as f64
}

fn sparse_input_calls() -> u64 {
    kstats::snapshot()[Kernel::SparseInput as usize].calls
}

/// `sparse_input` calls made by one compiled epoch (begin, forward,
/// backward) of a depth-4 GCN with dropout 0.5 and SkipNode-U.
fn calls_in_one_compiled_epoch(g: &Graph) -> u64 {
    let mut rng = SplitRng::new(3);
    let model = build_by_name(
        "gcn",
        g.feature_dim(),
        16,
        g.num_classes(),
        4,
        0.5,
        &mut rng,
    )
    .expect("known backbone");
    let strategy = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let full = g.gcn_adjacency();
    let degrees = g.degrees();
    let mut program =
        compile_train_program(model.as_ref(), g, &full, &strategy, true).expect("compiles");
    let before = sparse_input_calls();
    program.set_adjacency(full);
    program.load_params(model.store().values());
    program.begin_epoch(&mut StrategySampler::new(&strategy, &degrees), &mut rng);
    program.replay_forward();
    let head = program.heads()[0];
    let (rows, cols) = program.value(head).shape();
    let grads = program.backward(vec![(head, Matrix::full(rows, cols, 1.0))]);
    let calls = sparse_input_calls() - before;
    for g in grads.into_iter().flatten() {
        workspace::give(g);
    }
    calls
}

#[test]
fn sparse_input_family_counts_one_call_per_sparse_epoch_and_none_on_dense_features() {
    kstats::set_enabled(true);
    precision::force(Storage::F32);

    let cora = load(DatasetName::Cora, Scale::Bench, 7);
    assert!(density(&cora) <= 1.0 / SPARSE_INPUT_DENSITY_DIVISOR as f64);
    assert_eq!(
        calls_in_one_compiled_epoch(&cora),
        1,
        "Cora: one sparse call"
    );

    let dense = partition_graph(
        &PartitionConfig {
            n: 120,
            m: 500,
            classes: 4,
            homophily: 0.8,
            power: 0.3,
        },
        24,
        FeatureStyle::TfidfGaussian { separation: 0.3 },
        &mut SplitRng::new(11),
    );
    assert!(density(&dense) > 1.0 / SPARSE_INPUT_DENSITY_DIVISOR as f64);
    assert_eq!(
        calls_in_one_compiled_epoch(&dense),
        0,
        "dense features: none"
    );
}
