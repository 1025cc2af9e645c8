//! Exact workspace residency: `workspace::stats().live_bytes` counts the
//! bytes taken from the workspace and not yet given back, so a training
//! run or an evaluation that returns everything it took leaves it where
//! it started. A buffer allocated elsewhere and retired through `give`
//! (a loss seed, a parameter clone) would push it below; one taken and
//! dropped without `give` would leave it above. Kept alone in this file,
//! and its tests take turns: the counters are process-global.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    full_supervised_split, partition_graph, FeatureStyle, Graph, GraphUpdate, PartitionConfig,
};
use skipnode_nn::models::build_by_name;
use skipnode_nn::{
    evaluate, train_node_classifier, BackboneSpec, ModelCheckpoint, Strategy, TrainConfig,
    TrainEngine,
};
use skipnode_serve::{ServeEngine, ServeMode};
use skipnode_tensor::{workspace, SplitRng};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
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

#[test]
fn a_compiled_epoch_and_an_evaluation_leave_live_bytes_where_they_started() {
    let _serial = serial();
    let g = graph();
    let skipnode = Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform));
    let cases = [
        ("gcn", Strategy::None),
        ("gcn", skipnode.clone()),
        ("resgcn", Strategy::None),
        ("jknet", Strategy::None),
    ];
    for (name, strategy) in &cases {
        for fuse in [true, false] {
            let label = format!("{name} × {} × fuse={fuse}", strategy.label());
            let mut rng = SplitRng::new(3);
            let split = full_supervised_split(&g, &mut rng);
            let mut model =
                build_by_name(name, g.feature_dim(), 16, g.num_classes(), 4, 0.4, &mut rng)
                    .expect("known backbone");
            let cfg = TrainConfig {
                epochs: 1,
                patience: 0,
                eval_every: 1,
                engine: TrainEngine::Compiled,
                fuse,
                ..Default::default()
            };
            let before = workspace::stats().live_bytes;
            train_node_classifier(model.as_mut(), &g, &split, strategy, &cfg, &mut rng);
            let after = workspace::stats().live_bytes;
            assert_eq!(
                after, before,
                "{label}: one compiled epoch moved live_bytes"
            );

            let before = workspace::stats().live_bytes;
            let (logits, penultimate) =
                evaluate(model.as_ref(), &g, &g.gcn_adjacency(), strategy, &mut rng);
            workspace::give(logits);
            if let Some(p) = penultimate {
                workspace::give(p);
            }
            let after = workspace::stats().live_bytes;
            assert_eq!(after, before, "{label}: one evaluation moved live_bytes");
        }
    }
}

/// A served batch gives back every buffer it takes, the returned logits
/// included once the caller gives them back, before and after the graph
/// grows by a node and an edge.
#[test]
fn a_served_batch_leaves_live_bytes_where_it_started() {
    let _serial = serial();
    let g = graph();
    for name in ["gcn", "jknet", "gcnii", "appnp"] {
        for mode in [ServeMode::F32, ServeMode::Quantized] {
            let spec = BackboneSpec::new(name, g.feature_dim(), 16, g.num_classes(), 4, 0.4);
            let model = spec.build(&mut SplitRng::new(5)).expect("known backbone");
            let ckpt = ModelCheckpoint::capture(&spec, model.as_ref());
            let mut engine = ServeEngine::from_checkpoint(&ckpt, &g, mode).expect("servable");
            workspace::give(engine.serve_batch(&[0, 1, 2, 3]));
            let n = g.num_nodes();
            for (stage, queries) in [("before", [5, 17, 17, 90]), ("after", [5, n, 17, 90])] {
                if stage == "after" {
                    engine.apply_update(&GraphUpdate::AddNode(vec![1.0; g.feature_dim()]));
                    engine.apply_update(&GraphUpdate::AddEdge(n, 5));
                }
                let before = workspace::stats().live_bytes;
                let logits = engine.serve_batch(&queries);
                workspace::give(logits);
                let after = workspace::stats().live_bytes;
                assert_eq!(
                    after, before,
                    "{name} {mode:?}: a batch {stage} the updates moved live_bytes"
                );
            }
        }
    }
}
