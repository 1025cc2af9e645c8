//! Recycled matrix buffers for the training hot path.
//!
//! A deep-GCN epoch allocates one output matrix per op on the autograd tape
//! — for a 64-layer model that is hundreds of `n × d` buffers per epoch,
//! every one of them freed again when the tape drops. This module keeps
//! those buffers on a process-wide free-list keyed by element count, so
//! steady-state training performs no large allocations at all: the tape,
//! the sparse kernels, and the trainer all draw from and return to the same
//! pool.
//!
//! Invariants:
//! - [`take`] returns a **zeroed** matrix (kernels that overwrite every
//!   element can use [`take_full`] / [`take_copy`] and skip the memset).
//! - A buffer handed to [`give`] must no longer be referenced; it may be
//!   returned by any later `take*` call of the same element count.
//! - The free-list is bounded (`MAX_BUFFERS_PER_SHAPE` per element count,
//!   `MAX_POOL_BYTES` overall); beyond that, `give` simply drops the
//!   buffer, so the pool can never hold more memory than a few epochs'
//!   working set.

use crate::matrix::Matrix;
use std::collections::HashMap;
use std::sync::Mutex;

/// Buffers kept per distinct element count.
const MAX_BUFFERS_PER_SHAPE: usize = 16;
/// Total bytes the free-list may hold before `give` starts dropping.
const MAX_POOL_BYTES: usize = 512 << 20;

#[derive(Default)]
struct FreeList {
    /// Spare buffers keyed by element count (shapes with equal `rows*cols`
    /// share buffers; a `Matrix` is just a `Vec<f32>` plus a shape).
    buffers: HashMap<usize, Vec<Vec<f32>>>,
    bytes: usize,
    hits: u64,
    misses: u64,
    returned: u64,
    /// Bytes taken but not yet given back (workspace-mediated only).
    /// Signed: buffers allocated elsewhere and retired through [`give`]
    /// (loss seeds, cloned matrices) decrement without a matching take.
    live_bytes: i64,
    /// High-water mark of `live_bytes` since the last [`reset_peak`].
    peak_live_bytes: i64,
}

static FREE_LIST: Mutex<Option<FreeList>> = Mutex::new(None);

/// Counters describing free-list effectiveness (used by benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// `take*` calls served from a recycled buffer.
    pub hits: u64,
    /// `take*` calls that had to allocate fresh.
    pub misses: u64,
    /// Buffers accepted back by [`give`].
    pub returned: u64,
    /// Bytes currently parked on the free-list.
    pub pooled_bytes: usize,
    /// Bytes currently taken from the workspace and not yet given back.
    /// May go negative when buffers allocated outside the workspace are
    /// retired through [`give`].
    pub live_bytes: i64,
    /// High-water mark of `live_bytes` since the last [`reset_peak`] —
    /// the peak workspace working set of the measured window.
    pub peak_live_bytes: i64,
}

fn with_list<R>(f: impl FnOnce(&mut FreeList) -> R) -> R {
    let mut guard = FREE_LIST.lock().expect("workspace free-list poisoned");
    f(guard.get_or_insert_with(FreeList::default))
}

fn take_buffer(len: usize) -> Option<Vec<f32>> {
    with_list(|list| {
        let buf = list.buffers.get_mut(&len).and_then(Vec::pop);
        match &buf {
            Some(b) => {
                list.bytes -= b.len() * std::mem::size_of::<f32>();
                list.hits += 1;
            }
            None => list.misses += 1,
        }
        // Both branches hand `len` elements to the caller (the miss path
        // allocates right after returning), so live accounting is uniform.
        list.live_bytes += (len * std::mem::size_of::<f32>()) as i64;
        list.peak_live_bytes = list.peak_live_bytes.max(list.live_bytes);
        buf
    })
}

/// A zeroed `rows × cols` matrix, recycled when a buffer of that element
/// count is on the free-list.
pub fn take(rows: usize, cols: usize) -> Matrix {
    match take_buffer(rows * cols) {
        Some(mut buf) => {
            buf.fill(0.0);
            Matrix::from_vec(rows, cols, buf)
        }
        None => Matrix::zeros(rows, cols),
    }
}

/// A `rows × cols` matrix filled with `value`, recycled when possible.
pub fn take_full(rows: usize, cols: usize, value: f32) -> Matrix {
    match take_buffer(rows * cols) {
        Some(mut buf) => {
            buf.fill(value);
            Matrix::from_vec(rows, cols, buf)
        }
        None => Matrix::full(rows, cols, value),
    }
}

/// A `rows × cols` matrix with **arbitrary** (stale but initialized)
/// contents, recycled when possible. For kernels that overwrite every
/// element (the GEMM/SpMM `*_into` family) this skips the zeroing memset;
/// falls back to a zeroed allocation when the free-list is empty.
pub fn take_scratch(rows: usize, cols: usize) -> Matrix {
    match take_buffer(rows * cols) {
        Some(buf) => Matrix::from_vec(rows, cols, buf),
        None => Matrix::zeros(rows, cols),
    }
}

/// A copy of `src`, recycled when possible (avoids `Matrix::clone`'s fresh
/// allocation on the per-epoch hot path).
pub fn take_copy(src: &Matrix) -> Matrix {
    let (rows, cols) = src.shape();
    match take_buffer(rows * cols) {
        Some(mut buf) => {
            buf.copy_from_slice(src.as_slice());
            Matrix::from_vec(rows, cols, buf)
        }
        None => src.clone(),
    }
}

/// Return a matrix's backing buffer to the free-list. The pool bounds mean
/// this may simply drop it; either way the matrix is consumed.
pub fn give(m: Matrix) {
    let len = m.len();
    if len == 0 {
        return;
    }
    let bytes = len * std::mem::size_of::<f32>();
    with_list(|list| {
        // The buffer leaves the caller's working set whether or not the
        // pool bounds let us park it.
        list.live_bytes -= bytes as i64;
        if list.bytes + bytes > MAX_POOL_BYTES {
            return;
        }
        let bucket = list.buffers.entry(len).or_default();
        if bucket.len() >= MAX_BUFFERS_PER_SHAPE {
            return;
        }
        bucket.push(m.into_vec());
        list.bytes += bytes;
        list.returned += 1;
    });
}

/// Snapshot of the pool counters.
pub fn stats() -> WorkspaceStats {
    with_list(|list| WorkspaceStats {
        hits: list.hits,
        misses: list.misses,
        returned: list.returned,
        pooled_bytes: list.bytes,
        live_bytes: list.live_bytes,
        peak_live_bytes: list.peak_live_bytes,
    })
}

/// Collapse the peak-live-bytes high-water mark down to the current live
/// level, starting a fresh measurement window (benches call this before
/// the region whose peak working set they want to report).
pub fn reset_peak() {
    with_list(|list| list.peak_live_bytes = list.live_bytes);
}

/// Drop every pooled buffer and reset the counters (tests and
/// memory-pressure escapes).
pub fn clear() {
    with_list(|list| *list = FreeList::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    // The free-list is process-global, so these tests avoid asserting on
    // absolute counter values (other tests run concurrently) and instead
    // check behaviors on distinctive shapes.

    #[test]
    fn take_after_give_recycles_and_zeroes() {
        let mut m = take(13, 17);
        m.as_mut_slice().fill(3.5);
        give(m);
        let again = take(13, 17);
        assert_eq!(again.shape(), (13, 17));
        assert!(again.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_copy_matches_source() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        give(take(2, 2)); // ensure a same-size buffer is pooled
        let copy = take_copy(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn shapes_with_equal_len_share_buffers() {
        give(take(3, 8));
        let m = take(8, 3);
        assert_eq!(m.shape(), (8, 3));
        let m2 = take(24, 1);
        assert_eq!(m2.shape(), (24, 1));
    }

    #[test]
    fn empty_matrices_are_ignored() {
        give(Matrix::zeros(0, 5));
        let m = take(0, 5);
        assert_eq!(m.shape(), (0, 5));
    }

    #[test]
    fn stats_move_in_the_right_direction() {
        let before = stats();
        give(take(31, 7));
        let _hit = take(31, 7);
        let after = stats();
        assert!(after.hits > before.hits, "{after:?} vs {before:?}");
        assert!(after.returned > before.returned);
    }

    // Exact-delta assertions on `live_bytes` / `peak_live_bytes` live in
    // `tests/workspace_counters.rs` (their own process): the free-list is
    // global, and matrix ops in concurrently-running unit tests would
    // perturb the counters mid-assertion here.
}
