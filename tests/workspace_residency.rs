//! Exact workspace residency: `workspace::stats().live_bytes` counts the
//! bytes taken from the workspace and not yet given back, so a training
//! run or an evaluation that returns everything it took leaves it where
//! it started. A buffer allocated elsewhere and retired through `give`
//! (a loss seed, a parameter clone) would push it below; one taken and
//! dropped without `give` would leave it above. Kept alone in this file:
//! the counters are process-global.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    full_supervised_split, partition_graph, FeatureStyle, Graph, PartitionConfig,
};
use skipnode_nn::models::build_by_name;
use skipnode_nn::{evaluate, train_node_classifier, Strategy, TrainConfig, TrainEngine};
use skipnode_tensor::{workspace, SplitRng};

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
