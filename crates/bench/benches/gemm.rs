//! Dense GEMM microbenchmark: the per-layer transform cost `H W` at the
//! shapes GCN training actually uses.

use skipnode_bench::timing::Bencher;
use skipnode_tensor::SplitRng;

fn main() {
    let bench = Bencher::default();
    for &(n, k, m) in &[
        (2708usize, 1433usize, 64usize),
        (2708, 64, 64),
        (6000, 64, 64),
    ] {
        let mut rng = SplitRng::new(1);
        let a = rng.uniform_matrix(n, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, m, -1.0, 1.0);
        bench.run("gemm", &format!("{n}x{k}x{m}"), || a.matmul(&b));
    }
}
