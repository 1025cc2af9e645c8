//! Table 8 with statistical rigor: one full training epoch (forward +
//! backward + Adam) of a 5-layer GCN on the Cora substitute, per strategy.
//!
//! DropEdge/DropNode pay per-epoch adjacency renormalization; SkipNode and
//! PairNorm should stay within a small factor of the plain backbone.

use skipnode_autograd::{softmax_cross_entropy, Tape};
use skipnode_bench::timing::Bencher;
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{load, semi_supervised_split, DatasetName, Scale};
use skipnode_nn::models::{Gcn, Model};
use skipnode_nn::{Adam, AdamConfig, ForwardCtx, Strategy};
use skipnode_tensor::{workspace, Matrix, SplitRng};
use std::sync::Arc;

#[allow(clippy::too_many_arguments)]
fn one_epoch(
    model: &mut Gcn,
    opt: &mut Adam,
    g: &skipnode_graph::Graph,
    train_idx: &[usize],
    strategy: &Strategy,
    full_adj: &Arc<skipnode_sparse::CsrMatrix>,
    degrees: &[usize],
    rng: &mut SplitRng,
) {
    let adj = strategy.epoch_adjacency(g, full_adj, true, rng);
    let mut tape = Tape::new();
    let binding = model.store().bind(&mut tape);
    let adj_id = tape.register_adj(adj);
    let x = tape.constant(workspace::take_copy(g.features()));
    let mut fwd_rng = rng.split();
    let mut ctx = ForwardCtx::new(adj_id, x, degrees, strategy, true, &mut fwd_rng);
    let logits = model.forward(&mut tape, &binding, &mut ctx);
    let out = softmax_cross_entropy(tape.value(logits), g.labels(), train_idx);
    let mut grads = tape.backward(logits, out.grad);
    let param_grads: Vec<Option<Matrix>> = binding.nodes().iter().map(|&n| grads.take(n)).collect();
    opt.step(model.store_mut(), &param_grads);
    for g in param_grads.into_iter().flatten() {
        workspace::give(g);
    }
}

fn main() {
    let g = load(DatasetName::Cora, Scale::Bench, 7);
    let mut rng = SplitRng::new(1);
    let split = semi_supervised_split(&g, &mut rng);
    let full_adj = g.gcn_adjacency();
    let degrees = g.degrees();
    let strategies: Vec<(&str, Strategy)> = vec![
        ("none", Strategy::None),
        ("dropedge", Strategy::DropEdge { rate: 0.3 }),
        ("dropnode", Strategy::DropNode { rate: 0.3 }),
        ("pairnorm", Strategy::PairNorm { scale: 1.0 }),
        (
            "skipnode-u",
            Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform)),
        ),
        (
            "skipnode-b",
            Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Biased)),
        ),
    ];
    let bench = Bencher::default();
    for (label, strategy) in strategies {
        let mut model = Gcn::new(g.feature_dim(), 64, g.num_classes(), 5, 0.5, &mut rng);
        let mut opt = Adam::new(model.store(), AdamConfig::default());
        let mut bench_rng = rng.split();
        bench.run("strategy_epoch_L5", label, || {
            one_epoch(
                &mut model,
                &mut opt,
                &g,
                &split.train,
                &strategy,
                &full_adj,
                &degrees,
                &mut bench_rng,
            )
        });
    }
}
