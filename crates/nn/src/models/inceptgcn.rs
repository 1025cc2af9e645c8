//! InceptGCN [28]: parallel GCN branches of increasing receptive field.
//!
//! The original InceptionGCN runs a small number of parallel convolution
//! towers with different depths and fuses them. To keep the parameter and
//! compute budget sane at the paper's deepest settings (L = 64), we use at
//! most `MAX_BRANCHES` towers whose depths are spread evenly up to `L`
//! (documented adaptation; the receptive-field mixture is what matters).

use super::{JkAggregate, Model};
use crate::param::{LayerInit, ParamId, ParamStore};
use crate::plan::{LayerPlan, PlanBuilder};
use skipnode_tensor::SplitRng;

const MAX_BRANCHES: usize = 4;

/// The depth of each tower of an `layers`-deep InceptGCN.
pub(crate) fn branch_depths(layers: usize) -> Vec<usize> {
    let b = MAX_BRANCHES.min(layers);
    (1..=b)
        .map(|i| ((layers * i) as f64 / b as f64).round().max(1.0) as usize)
        .collect()
}

struct Branch {
    weights: Vec<ParamId>,
    biases: Vec<ParamId>,
}

/// Inception-style GCN with parallel towers of depths spread over `1..=L`.
pub struct InceptGcn {
    store: ParamStore,
    branches: Vec<Branch>,
    out_w: ParamId,
    out_b: ParamId,
    dropout: f64,
}

impl InceptGcn {
    /// Build towers with depths evenly spaced up to `layers`.
    pub fn new(
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        layers: usize,
        dropout: f64,
        rng: &mut SplitRng,
    ) -> Self {
        assert!(layers >= 1, "InceptGCN needs at least 1 layer");
        let mut store = ParamStore::new();
        let depths = branch_depths(layers);
        let b = depths.len();
        let mut branches = Vec::with_capacity(b);
        let mut init = LayerInit::new(&mut store, rng);
        for (bi, &depth) in depths.iter().enumerate() {
            let mut weights = Vec::with_capacity(depth);
            let mut biases = Vec::with_capacity(depth);
            for l in 0..depth {
                let fi = if l == 0 { in_dim } else { hidden };
                let (w, b) = init.linear(format!("b{bi}_w{l}"), format!("b{bi}_b{l}"), fi, hidden);
                weights.push(w);
                biases.push(b);
            }
            branches.push(Branch { weights, biases });
        }
        let (out_w, out_b) = init.linear("out_w", "out_b", hidden * b, out_dim);
        Self {
            store,
            branches,
            out_w,
            out_b,
            dropout,
        }
    }

    /// Branch depths (ascending).
    pub fn branch_depths(&self) -> Vec<usize> {
        self.branches.iter().map(|b| b.weights.len()).collect()
    }
}

impl Model for InceptGcn {
    fn name(&self) -> &'static str {
        "inceptgcn"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn plan(&self) -> Option<LayerPlan> {
        let mut b = PlanBuilder::new();
        let mut outs = Vec::with_capacity(self.branches.len());
        for branch in &self.branches {
            let mut h = PlanBuilder::input();
            for l in 0..branch.weights.len() {
                let h_in = b.dropout(h, self.dropout);
                h = b.activated_conv(h_in, h, branch.weights[l], branch.biases[l]);
            }
            outs.push(h);
        }
        let rep = b.aggregate(outs, JkAggregate::Concat);
        b.penultimate(rep);
        let rep = b.dropout(rep, self.dropout);
        let out = b.dense(rep, self.out_w, self.out_b);
        Some(b.finish(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ForwardCtx, Strategy};
    use skipnode_autograd::Tape;
    use skipnode_graph::{load, DatasetName, Scale};

    #[test]
    fn branch_depths_spread_to_requested_depth() {
        let mut rng = SplitRng::new(1);
        let m = InceptGcn::new(10, 8, 3, 8, 0.0, &mut rng);
        let depths = m.branch_depths();
        assert_eq!(depths.len(), 4);
        assert_eq!(*depths.last().unwrap(), 8);
        assert!(depths.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn shallow_model_gets_fewer_branches() {
        let mut rng = SplitRng::new(2);
        let m = InceptGcn::new(10, 8, 3, 2, 0.0, &mut rng);
        assert_eq!(m.branch_depths(), vec![1, 2]);
    }

    #[test]
    fn forward_produces_logits() {
        let g = load(DatasetName::Cornell, Scale::Bench, 7);
        let mut rng = SplitRng::new(3);
        let model = InceptGcn::new(g.feature_dim(), 16, g.num_classes(), 5, 0.0, &mut rng);
        let mut tape = Tape::new();
        let binding = model.store().bind(&mut tape);
        let adj = tape.register_adj(g.gcn_adjacency());
        let x = tape.constant(g.features().clone());
        let degrees = g.degrees();
        let strategy = Strategy::None;
        let mut fwd_rng = SplitRng::new(4);
        let mut ctx = ForwardCtx::new(adj, x, &degrees, &strategy, false, &mut fwd_rng);
        let out = model.forward(&mut tape, &binding, &mut ctx);
        assert_eq!(tape.value(out).shape(), (183, 5));
        assert!(tape.value(out).all_finite());
    }
}
