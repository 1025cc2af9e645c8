//! Optional per-kernel invocation and work counters.
//!
//! Enabled by `SKIPNODE_KERNEL_STATS=1` (or forced on via
//! [`set_enabled`]), each dispatched kernel entry point records one
//! invocation plus a work measure — output **rows** for the GEMM/SpMM
//! families, **elements** for elementwise, reduce, and Adam kernels. The
//! counters complement the [`crate::workspace`] free-list counters: the
//! workspace says what memory moved, these say which kernels did the
//! flops.
//!
//! When disabled (the default) the cost per kernel call is one relaxed
//! atomic load of the cached enable flag. [`snapshot`] reads the
//! counters.

use std::sync::atomic::{AtomicI8, AtomicU64, Ordering};

/// Kernel families tracked by the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Dense `A·B` (work = output rows).
    Gemm,
    /// Dense `Aᵀ·B` (work = output rows).
    GemmAtB,
    /// Dense `A·Bᵀ` (work = output rows).
    GemmABt,
    /// Full SpMM (work = output rows).
    Spmm,
    /// Masked/subset SpMM of the fused SkipNode path (work = active rows).
    SpmmSubset,
    /// Column-compacted SpMM of the fused backward over the active set's
    /// neighborhood (work = rows computed).
    SpmmCompact,
    /// Adjacency blocks frontier serving cuts per propagation (work = block
    /// rows), named `spmm_mapped` for the serving benchmark that reads it.
    ServeBlock,
    /// Sparse mat-vec (work = output rows).
    Spmv,
    /// Elementwise update kernels: `add_scaled`, `relu` (work = elements).
    Elemwise,
    /// f64-accumulated reductions (work = elements).
    Reduce,
    /// Fused Adam parameter step (work = parameter elements).
    Adam,
    /// f32 → int8 symmetric quantization (work = elements quantized).
    QuantI8,
    /// int8 GEMM with i32 accumulation (work = output rows).
    GemmI8,
    /// Segmented (per-graph) pooling reductions (work = input elements).
    SegReduce,
    /// Sparse input layer `[Ã·] dropout(X) · W` over the stored entries of
    /// sparse features, one call per op evaluation, recorded beside the
    /// kernels it calls (work = stored entries of `[Ã·] dropout(X)`).
    SparseInput,
}

/// Number of tracked kernel families.
pub const KERNEL_COUNT: usize = 15;

const NAMES: [&str; KERNEL_COUNT] = [
    "gemm",
    "gemm_at_b",
    "gemm_a_bt",
    "spmm",
    "spmm_subset",
    "spmm_compact",
    "spmm_mapped",
    "spmv",
    "elemwise",
    "reduce",
    "adam",
    "quant_i8",
    "gemm_i8",
    "seg_reduce",
    "sparse_input",
];

static CALLS: [AtomicU64; KERNEL_COUNT] = [const { AtomicU64::new(0) }; KERNEL_COUNT];
static WORK: [AtomicU64; KERNEL_COUNT] = [const { AtomicU64::new(0) }; KERNEL_COUNT];

/// -1 = off, 0 = unresolved (read env on first query), 1 = on.
static ENABLED: AtomicI8 = AtomicI8::new(0);

/// Whether counters are being collected (cached env lookup).
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        -1 => false,
        _ => {
            let on = matches!(
                std::env::var("SKIPNODE_KERNEL_STATS").as_deref(),
                Ok("1") | Ok("on") | Ok("true")
            );
            ENABLED.store(if on { 1 } else { -1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Force collection on or off regardless of the environment (benchmarks
/// that read the counters, tests that assert on them).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { -1 }, Ordering::Relaxed);
}

/// Record one invocation of `kernel` covering `work` rows/elements.
/// A no-op unless collection is enabled.
#[inline]
pub fn record(kernel: Kernel, work: usize) {
    if !enabled() {
        return;
    }
    let i = kernel as usize;
    CALLS[i].fetch_add(1, Ordering::Relaxed);
    WORK[i].fetch_add(work as u64, Ordering::Relaxed);
}

/// One kernel family's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel family name (stable, lowercase).
    pub name: &'static str,
    /// Invocations recorded.
    pub calls: u64,
    /// Total rows/elements processed.
    pub work: u64,
}

/// Snapshot of all counters (zero entries included).
pub fn snapshot() -> [KernelStat; KERNEL_COUNT] {
    std::array::from_fn(|i| KernelStat {
        name: NAMES[i],
        calls: CALLS[i].load(Ordering::Relaxed),
        work: WORK[i].load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters and the enable flag are process-global, so both behaviors
    // live in one test (parallel tests toggling the flag would race) and
    // assertions are deltas, not absolutes.

    #[test]
    fn record_respects_the_enable_flag() {
        set_enabled(true);
        let before = snapshot()[Kernel::Spmv as usize];
        record(Kernel::Spmv, 42);
        let after = snapshot()[Kernel::Spmv as usize];
        assert_eq!(after.calls, before.calls + 1);
        assert_eq!(after.work, before.work + 42);

        set_enabled(false);
        let before = snapshot()[Kernel::Reduce as usize];
        record(Kernel::Reduce, 7);
        let after = snapshot()[Kernel::Reduce as usize];
        assert_eq!(before, after);
    }
}
