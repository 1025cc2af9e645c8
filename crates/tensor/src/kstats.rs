//! Optional per-kernel invocation and work counters.
//!
//! Enabled by `SKIPNODE_KERNEL_STATS=1` (or forced on by benches via
//! [`set_enabled`]), each dispatched kernel entry point records one
//! invocation plus a work measure — output **rows** for the GEMM/SpMM
//! families, **elements** for elementwise, reduce, and Adam kernels. The
//! counters complement the [`crate::workspace`] free-list counters: the
//! workspace says what memory moved, these say which kernels did the
//! flops, which is the observability needed to sanity-check the
//! auto-tuner's choices.
//!
//! When disabled (the default) the cost per kernel call is one relaxed
//! atomic load of the cached enable flag. Bench binaries hold an
//! [`ExitReport`] guard so the table prints on exit without `atexit`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI8, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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
    /// Column-compacted SpMM of the fused backward (work = output rows).
    SpmmCompact,
    /// Row-subset SpMM against a col-mapped compact operand — the serving
    /// frontier kernel (work = computed rows).
    SpmmSubsetMapped,
    /// Sparse mat-vec (work = output rows).
    Spmv,
    /// Elementwise update kernels: `add_scaled`, `relu` (work = elements).
    Elemwise,
    /// f64-accumulated reductions (work = elements).
    Reduce,
    /// Fused Adam parameter step (work = parameter elements).
    Adam,
    /// f32 → bf16 narrowing (work = elements packed).
    PackBf16,
    /// bf16 → f32 widening, counted by the bf16 drivers as packed elements
    /// streamed through widen-on-load (work = elements widened).
    WidenBf16,
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
pub const KERNEL_COUNT: usize = 17;

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
    "pack_bf16",
    "widen_bf16",
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

/// Force collection on or off regardless of the environment (benches that
/// want the exit table, tests that assert on counters).
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
    let shard = SHARD.load(Ordering::Relaxed);
    if shard != NO_SHARD {
        let mut table = shard_table().lock().expect("shard-stats lock");
        table.entry(shard).or_insert([0u64; KERNEL_COUNT])[i] += work as u64;
    }
}

/// No shard scope active (the default).
const NO_SHARD: u32 = u32::MAX;

/// The shard every [`record`] call is currently attributed to, if any.
/// Process-global: kernels dispatched to worker threads still run on
/// behalf of the shard the main loop is training.
static SHARD: AtomicU32 = AtomicU32::new(NO_SHARD);

fn shard_table() -> &'static Mutex<BTreeMap<u32, [u64; KERNEL_COUNT]>> {
    static TABLE: OnceLock<Mutex<BTreeMap<u32, [u64; KERNEL_COUNT]>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Attribute subsequent kernel work to `shard` (`None` ends the scope).
/// The mini-batch trainer brackets each shard's training step with this
/// so the exit report can say which shards did the rows.
pub fn set_shard(shard: Option<u32>) {
    SHARD.store(shard.unwrap_or(NO_SHARD), Ordering::Relaxed);
}

/// Per-shard work table: `(shard, work-per-kernel-family)` rows in shard
/// order. Empty unless collection was enabled inside a shard scope.
pub fn shard_snapshot() -> Vec<(u32, [u64; KERNEL_COUNT])> {
    shard_table()
        .lock()
        .expect("shard-stats lock")
        .iter()
        .map(|(&s, &w)| (s, w))
        .collect()
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

/// Zero all counters, including the per-shard table (tests and benches
/// measuring a window).
pub fn reset() {
    for i in 0..KERNEL_COUNT {
        CALLS[i].store(0, Ordering::Relaxed);
        WORK[i].store(0, Ordering::Relaxed);
    }
    shard_table().lock().expect("shard-stats lock").clear();
}

/// The exit table as a string, or `None` when collection is disabled or
/// nothing was recorded.
pub fn report_string() -> Option<String> {
    if !enabled() {
        return None;
    }
    let stats = snapshot();
    if stats.iter().all(|s| s.calls == 0) {
        return None;
    }
    let mut out = String::from("kernel stats (SKIPNODE_KERNEL_STATS):\n");
    out.push_str(&format!(
        "  {:<14} {:>12} {:>16}\n",
        "kernel", "calls", "rows/elems"
    ));
    for s in stats.iter().filter(|s| s.calls > 0) {
        out.push_str(&format!(
            "  {:<14} {:>12} {:>16}\n",
            s.name, s.calls, s.work
        ));
    }
    let shards = shard_snapshot();
    if !shards.is_empty() {
        out.push_str("per-shard attribution:\n");
        out.push_str(&format!(
            "  {:<8} {:>16} {:>16}\n",
            "shard", "spmm rows", "total rows/elems"
        ));
        let spmm_families = [
            Kernel::Spmm as usize,
            Kernel::SpmmSubset as usize,
            Kernel::SpmmCompact as usize,
            Kernel::SpmmSubsetMapped as usize,
            Kernel::Spmv as usize,
        ];
        for (shard, work) in shards {
            let spmm: u64 = spmm_families.iter().map(|&i| work[i]).sum();
            let total: u64 = work.iter().sum();
            out.push_str(&format!("  {shard:<8} {spmm:>16} {total:>16}\n"));
        }
    }
    Some(out)
}

/// Guard that prints [`report_string`] to stderr when dropped. Bench and
/// CLI mains hold one so the table appears at process exit.
#[derive(Debug, Default)]
pub struct ExitReport;

/// Create an exit-report guard (see [`ExitReport`]).
pub fn exit_report() -> ExitReport {
    ExitReport
}

impl Drop for ExitReport {
    fn drop(&mut self) {
        if let Some(report) = report_string() {
            eprintln!("{report}");
        }
    }
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
        assert!(report_string().is_some());

        set_enabled(false);
        let before = snapshot()[Kernel::Reduce as usize];
        record(Kernel::Reduce, 7);
        let after = snapshot()[Kernel::Reduce as usize];
        assert_eq!(before, after);
        assert!(report_string().is_none());

        // Shard scopes attribute work to the active shard only.
        set_enabled(true);
        reset();
        set_shard(Some(3));
        record(Kernel::Spmm, 11);
        set_shard(None);
        record(Kernel::Spmm, 5); // unattributed
        set_shard(Some(4));
        record(Kernel::Gemm, 2);
        set_shard(None);
        let shards = shard_snapshot();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].0, 3);
        assert_eq!(shards[0].1[Kernel::Spmm as usize], 11);
        assert_eq!(shards[1].0, 4);
        assert_eq!(shards[1].1[Kernel::Gemm as usize], 2);
        let report = report_string().expect("report with shard table");
        assert!(report.contains("per-shard attribution"), "{report}");
        reset();
        assert!(shard_snapshot().is_empty());
        set_enabled(false);
    }
}
