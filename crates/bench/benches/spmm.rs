//! SpMM microbenchmark: the per-layer propagation cost `Ã X` across the
//! dataset substitutes.

use skipnode_bench::timing::Bencher;
use skipnode_graph::{load, DatasetName, Scale};
use skipnode_tensor::SplitRng;

fn main() {
    let bench = Bencher::default();
    for name in [
        DatasetName::Cora,
        DatasetName::Chameleon,
        DatasetName::Pubmed,
    ] {
        let g = load(name, Scale::Bench, 7);
        let adj = g.gcn_adjacency();
        let mut rng = SplitRng::new(1);
        let x = rng.uniform_matrix(g.num_nodes(), 64, -1.0, 1.0);
        bench.run("spmm", name.as_str(), || adj.spmm(&x));
    }
}
