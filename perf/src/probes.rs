//! Machine peaks and kernel rates, measured in the same process.
//!
//! The machine probes give the roofline denominators: single-thread f32
//! FMA throughput on register-resident data, and single-thread copy
//! bandwidth over buffers far larger than the last-level cache. The kernel
//! probes call the workspace's public GEMM and SpMM entry points on the
//! workload's own graph and layer shapes. Bytes moved are computed from
//! the operand sizes, not measured.

use skipnode_graph::Graph;
use skipnode_tensor::{Matrix, SplitRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum time each kernel probe runs.
const PROBE_TIME: Duration = Duration::from_millis(250);

/// Peak single-thread f32 FMA rate (GFLOP/s): best of five timed blocks.
pub fn fma_gflops() -> f64 {
    const ITERS: usize = 1 << 23;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let flops = fma_chains(ITERS);
            flops / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Run `iters` rounds of independent multiply-add chains; returns flops.
fn fma_chains(iters: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: both target features were detected on this CPU.
            unsafe { x86::fma_chains(iters) };
            return (iters * x86::CHAINS * 8 * 2) as f64;
        }
    }
    // Portable fallback: 8 chains of scalar multiply-adds.
    let mut acc = [1.0f32; 8];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * 0.999_999 + 1e-7;
        }
    }
    black_box(acc);
    (iters * 8 * 2) as f64
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{__m256, _mm256_fmadd_ps, _mm256_set1_ps};

    /// Independent accumulators: enough to cover FMA latency × ports.
    pub const CHAINS: usize = 10;

    #[target_feature(enable = "avx2,fma")]
    pub fn fma_chains(iters: usize) {
        let a = _mm256_set1_ps(0.999_999);
        let b = _mm256_set1_ps(1e-7);
        let mut acc: [__m256; CHAINS] = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_ps(*x, a, b);
            }
        }
        std::hint::black_box(acc);
    }
}

/// Single-thread copy bandwidth (GB/s, bytes read plus bytes written)
/// over 32 MB buffers: best of five copies after a warm-up copy.
pub fn copy_gbps() -> f64 {
    let len = 8 << 20;
    let src = vec![1.0f32; len];
    let mut dst = vec![0.0f32; len];
    dst.copy_from_slice(&src);
    (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            (2 * len * 4) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}

/// Achieved rates of the layer kernels on one workload's shapes.
pub struct KernelRates {
    /// `X·W`, features times the input weight (GFLOP/s).
    pub gemm_in: f64,
    /// `H·W`, hidden times a hidden-square weight (GFLOP/s).
    pub gemm_hidden: f64,
    /// `Xᵀ·G`, the input weight's gradient (GFLOP/s).
    pub gemm_at_b: f64,
    /// `Ã·H` over every row (GB/s).
    pub spmm: f64,
    /// `Ã·H` over a random tenth of the rows, the rows SkipNode at
    /// `ρ = 0.9` keeps (GB/s).
    pub spmm_subset: f64,
}

/// Time the public GEMM and SpMM entry points on `graph`'s features and
/// normalized adjacency with `hidden`-wide operands.
pub fn kernel_rates(graph: &Graph, hidden: usize, seed: u64) -> KernelRates {
    let x = graph.features();
    let adj = graph.gcn_adjacency();
    let (n, f) = x.shape();
    let h = hidden;
    let mut rng = SplitRng::new(seed);
    let w_in = rng.uniform_matrix(f, h, -0.1, 0.1);
    let w_h = rng.uniform_matrix(h, h, -0.1, 0.1);
    let act = rng.uniform_matrix(n, h, -1.0, 1.0);
    let mut out_nh = Matrix::zeros(n, h);
    let mut out_fh = Matrix::zeros(f, h);

    let gemm_flops_in = 2.0 * (n * f * h) as f64;
    let gemm_in = rate(gemm_flops_in, || x.matmul_into(&w_in, &mut out_nh));
    let gemm_hidden = rate(2.0 * (n * h * h) as f64, || {
        act.matmul_into(&w_h, &mut out_nh)
    });
    let gemm_at_b = rate(gemm_flops_in, || x.t_matmul_into(&act, &mut out_fh));

    // Each stored entry reads its value and column index and one operand
    // row; each output row is written once; row pointers are read once.
    let spmm_bytes = |rows: &[usize]| -> f64 {
        let nnz: usize = rows.iter().map(|&r| adj.row_nnz(r)).sum();
        (nnz * (8 + 4 * h) + rows.len() * (4 * h + 8)) as f64
    };
    let all: Vec<usize> = (0..n).collect();
    let spmm = rate(spmm_bytes(&all), || adj.spmm_into(&act, &mut out_nh));
    let mut kept: Vec<usize> = (0..n).filter(|_| !rng.bernoulli(0.9)).collect();
    if kept.is_empty() {
        kept.push(0);
    }
    let rows: Vec<u32> = kept.iter().map(|&r| r as u32).collect();
    let mut out_sub = Matrix::zeros(rows.len(), h);
    let spmm_subset = rate(spmm_bytes(&kept), || {
        adj.spmm_rows_subset(&act, &rows, &mut out_sub)
    });
    KernelRates {
        gemm_in,
        gemm_hidden,
        gemm_at_b,
        spmm,
        spmm_subset,
    }
}

/// Mean rate of `f` in units of `work` per nanosecond (i.e. G-units per
/// second), after one warm-up call, over at least three calls and
/// [`PROBE_TIME`].
fn rate(work: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || t.elapsed() < PROBE_TIME {
        f();
        calls += 1;
    }
    work * f64::from(calls) / t.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_probes_report_positive_rates() {
        assert!(fma_chains(16) > 0.0);
        assert!(copy_gbps() > 0.0);
    }
}
