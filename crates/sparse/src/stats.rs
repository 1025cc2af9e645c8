//! Lightweight work counters for the sparse kernels.
//!
//! SkipNode's fused layer op claims to *skip* work for masked rows; these
//! counters make that claim testable. Every SpMM-family kernel records how
//! many output rows it actually computed (one relaxed atomic add per chunk,
//! not per row, so the hot path is unaffected). Tests read the counter
//! before/after a forward pass to assert that row work scales with the
//! non-skipped fraction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Total output rows computed by SpMM-family kernels since process start
/// (or the last [`reset`]).
static SPMM_ROWS: AtomicU64 = AtomicU64::new(0);

/// Record `n` computed SpMM output rows (called once per kernel chunk).
#[inline]
pub fn record_spmm_rows(n: usize) {
    SPMM_ROWS.fetch_add(n as u64, Ordering::Relaxed);
}

/// Current SpMM row-work counter.
pub fn spmm_rows_computed() -> u64 {
    SPMM_ROWS.load(Ordering::Relaxed)
}

/// Reset the counters (tests; counters are process-global, so prefer
/// before/after deltas over absolute values when tests run concurrently).
pub fn reset() {
    SPMM_ROWS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let before = spmm_rows_computed();
        record_spmm_rows(7);
        record_spmm_rows(3);
        assert!(spmm_rows_computed() >= before + 10);
    }
}
