//! SkipNode mask-sampling microbenchmark: uniform Bernoulli vs weighted
//! without-replacement (biased) vs deterministic top-degree, at Cora and
//! arxiv-substitute scale.

use skipnode_bench::timing::Bencher;
use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{load, DatasetName, Scale};
use skipnode_tensor::SplitRng;

fn main() {
    let bench = Bencher::default();
    for name in [DatasetName::Cora, DatasetName::OgbnArxiv] {
        let g = load(name, Scale::Bench, 7);
        let degrees = g.degrees();
        for sampling in [Sampling::Uniform, Sampling::Biased, Sampling::TopDegree] {
            let cfg = SkipNodeConfig::new(0.5, sampling);
            let mut rng = SplitRng::new(1);
            bench.run(
                "mask_sampling",
                &format!("{}/{}", sampling.as_str(), name.as_str()),
                || cfg.sample_mask(&degrees, &mut rng),
            );
        }
    }
}
