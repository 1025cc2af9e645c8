//! Forward-pass cost vs depth: quantifies SkipNode's claimed O(diag-mask)
//! overhead against the vanilla forward as L grows.

use skipnode_autograd::Tape;
use skipnode_bench::timing::Bencher;
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{load, DatasetName, Scale};
use skipnode_nn::models::{Gcn, Model};
use skipnode_nn::{ForwardCtx, Strategy};
use skipnode_tensor::{workspace, SplitRng};
use std::sync::Arc;

fn main() {
    let g = load(DatasetName::Cora, Scale::Bench, 7);
    let full_adj = g.gcn_adjacency();
    let degrees = g.degrees();
    let bench = Bencher::default();
    for &depth in &[4usize, 16, 64] {
        for (label, strategy) in [
            ("vanilla", Strategy::None),
            (
                "skipnode",
                Strategy::SkipNode(SkipNodeConfig::new(0.5, Sampling::Uniform)),
            ),
        ] {
            let mut rng = SplitRng::new(1);
            let model = Gcn::new(g.feature_dim(), 64, g.num_classes(), depth, 0.0, &mut rng);
            bench.run("forward_depth", &format!("{label}/{depth}"), || {
                let mut tape = Tape::new();
                let binding = model.store().bind(&mut tape);
                let adj_id = tape.register_adj(Arc::clone(&full_adj));
                let x = tape.constant(workspace::take_copy(g.features()));
                let mut fwd_rng = SplitRng::new(2);
                let mut ctx = ForwardCtx::new(adj_id, x, &degrees, &strategy, true, &mut fwd_rng);
                model.forward(&mut tape, &binding, &mut ctx)
            });
        }
    }
}
