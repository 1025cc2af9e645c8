#![warn(missing_docs)]

//! Shared harness utilities for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). This library provides the CLI
//! argument plumbing, the backbone/strategy factories, aligned table
//! printing, and the repeated-split experiment runner they all share.

pub mod executor;
pub mod harness;
pub mod sweep;
pub mod table;
pub mod timing;

pub use executor::{derive_seed, parse_workers, Executor};
pub use harness::{
    build_model, mean_std, require, run_classification, strategy_by_name, tuned_rho, BenchSession,
    ExpArgs, Protocol, RunOutcome,
};
pub use sweep::{sweep_backbone, sweep_rate, RateSweepResult, SweepResult, SweepSpace};
pub use table::TablePrinter;
pub use timing::{fmt_ns, Bencher, LatencyHistogram, Sample};

/// Kernel-backend provenance for bench JSON metadata: the detected SIMD
/// ISA, the workspace free-list's live/peak byte counters at snapshot
/// time, and the int8 conversion-kernel counters (quantize/GEMM), so a
/// results file says how much data actually moved through the quantized
/// paths. The conversion counters read 0 unless
/// `SKIPNODE_KERNEL_STATS=1` (or the bench forced collection on).
/// Recorded by every `bench_pr*` binary.
pub fn perf_metadata() -> Vec<(&'static str, String)> {
    use skipnode_tensor::kstats::{self, Kernel};
    use skipnode_tensor::{simd, workspace};
    let ws = workspace::stats();
    let ks = kstats::snapshot();
    let conv = |k: Kernel| {
        let s = ks[k as usize];
        format!("calls={} work={}", s.calls, s.work)
    };
    vec![
        ("simd_isa", simd::active().name().to_string()),
        ("workspace_live_bytes", ws.live_bytes.to_string()),
        ("workspace_peak_live_bytes", ws.peak_live_bytes.to_string()),
        ("kernel_quant_i8", conv(Kernel::QuantI8)),
        ("kernel_gemm_i8", conv(Kernel::GemmI8)),
    ]
}
